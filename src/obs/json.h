// Minimal JSON value model, writer and parser for the observability layer.
//
// Everything the telemetry stack emits — metric snapshots, Chrome trace files, BENCH
// reports — is JSON, and the bench_smoke validator must read it back. Keeping one tiny,
// dependency-free implementation here means the writer and the validator can never drift:
// they share the same value model.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slim {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
// Ordered map: snapshots and reports serialize with deterministic key order so runs diff
// cleanly, which is the whole point of machine-readable bench output.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(std::nullptr_t) : kind_(Kind::kNull) {}  // NOLINT(runtime/explicit)
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  JsonValue(double d) : kind_(Kind::kNumber), number_(d) {}  // NOLINT(runtime/explicit)
  JsonValue(int64_t n)  // NOLINT(runtime/explicit)
      : kind_(Kind::kNumber), number_(static_cast<double>(n)), int_(n), is_int_(true) {}
  JsonValue(int n) : JsonValue(static_cast<int64_t>(n)) {}  // NOLINT(runtime/explicit)
  JsonValue(uint64_t n) : JsonValue(static_cast<int64_t>(n)) {}  // NOLINT(runtime/explicit)
  JsonValue(std::string s)  // NOLINT(runtime/explicit)
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}  // NOLINT(runtime/explicit)
  JsonValue(JsonArray a)  // NOLINT(runtime/explicit)
      : kind_(Kind::kArray), array_(std::move(a)) {}
  JsonValue(JsonObject o)  // NOLINT(runtime/explicit)
      : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_double() const { return number_; }
  int64_t as_int() const { return is_int_ ? int_ : static_cast<int64_t>(number_); }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  JsonArray& as_array() { return array_; }
  const JsonObject& as_object() const { return object_; }
  JsonObject& as_object() { return object_; }

  // Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Compact serialization (no insignificant whitespace). `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  int64_t int_ = 0;
  bool is_int_ = false;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

// Parses a complete JSON document. Returns nullopt (with a position/reason in *error when
// non-null) on malformed input or trailing garbage.
std::optional<JsonValue> JsonParse(std::string_view text, std::string* error = nullptr);

// Escapes `s` into a quoted JSON string literal (used by the streaming trace writer, which
// cannot afford to buffer a JsonValue per event).
std::string JsonQuote(std::string_view s);

}  // namespace slim

#endif  // SRC_OBS_JSON_H_
