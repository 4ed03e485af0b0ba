#include "src/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace slim {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void AppendNumber(std::string* out, double d, int64_t i, bool is_int) {
  char buf[40];
  if (is_int) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i));
  } else if (std::isfinite(d)) {
    // %.17g round-trips every double; trim to the shortest form that still does.
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    double parsed = std::strtod(buf, nullptr);
    for (int prec = 15; prec <= 16; ++prec) {
      char shorter[40];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
      if (std::strtod(shorter, nullptr) == d) {
        std::snprintf(buf, sizeof(buf), "%s", shorter);
        break;
      }
      (void)parsed;
    }
  } else {
    // JSON has no Inf/NaN; null is the least-wrong encoding and parsers accept it.
    std::snprintf(buf, sizeof(buf), "null");
  }
  *out += buf;
}

void Newline(std::string* out, int indent, int depth) {
  if (indent > 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      AppendNumber(out, number_, int_, is_int_);
      break;
    case Kind::kString:
      *out += JsonQuote(string_);
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        Newline(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        Newline(out, indent, depth + 1);
        *out += JsonQuote(object_[i].first);
        *out += indent > 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    std::optional<JsonValue> v = ParseValue();
    SkipSpace();
    if (v.has_value() && pos_ != text_.size()) {
      Fail("trailing characters");
      v.reset();
    }
    if (!v.has_value() && error != nullptr) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " at offset %zu", pos_);
      *error = error_ + buf;
    }
    return v;
  }

 private:
  void Fail(const char* why) {
    if (error_.empty()) {
      error_ = why;
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level recurses, so the depth is capped before the stack runs out.
      if (depth_ == kMaxDepth) {
        Fail("nesting too deep");
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      std::optional<std::string> s = ParseString();
      if (!s.has_value()) {
        return std::nullopt;
      }
      return JsonValue(std::move(*s));
    }
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    if (ConsumeLiteral("null")) {
      return JsonValue(nullptr);
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    bool is_int = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_int = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-')) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      Fail("invalid value");
      return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (is_int) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size()) {
        return JsonValue(static_cast<int64_t>(v));
      }
    }
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      Fail("invalid number");
      return std::nullopt;
    }
    return JsonValue(d);
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      Fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return std::nullopt;
          }
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          char* end = nullptr;
          const long cp = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) {
            Fail("invalid \\u escape");
            return std::nullopt;
          }
          // UTF-8 encode the code point (surrogate pairs are not recombined; the telemetry
          // writers only ever emit escapes for control characters).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          Fail("invalid escape");
          return std::nullopt;
      }
    }
    Fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> ParseArray() {
    Consume('[');
    JsonArray items;
    SkipSpace();
    if (Consume(']')) {
      return JsonValue(std::move(items));
    }
    while (true) {
      std::optional<JsonValue> v = ParseValue();
      if (!v.has_value()) {
        return std::nullopt;
      }
      items.push_back(std::move(*v));
      if (Consume(']')) {
        return JsonValue(std::move(items));
      }
      if (!Consume(',')) {
        Fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> ParseObject() {
    Consume('{');
    JsonObject fields;
    SkipSpace();
    if (Consume('}')) {
      return JsonValue(std::move(fields));
    }
    while (true) {
      SkipSpace();
      std::optional<std::string> key = ParseString();
      if (!key.has_value()) {
        return std::nullopt;
      }
      if (!Consume(':')) {
        Fail("expected ':'");
        return std::nullopt;
      }
      std::optional<JsonValue> v = ParseValue();
      if (!v.has_value()) {
        return std::nullopt;
      }
      fields.emplace_back(std::move(*key), std::move(*v));
      if (Consume('}')) {
        return JsonValue(std::move(fields));
      }
      if (!Consume(',')) {
        Fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  // Far deeper than any report nests.
  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> JsonParse(std::string_view text, std::string* error) {
  return Parser(text).Parse(error);
}

}  // namespace slim
