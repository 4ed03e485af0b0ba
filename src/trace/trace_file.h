// Binary serialization of protocol logs.
//
// The paper's methodology logs everything once and answers later questions by
// post-processing (Section 3.1). TraceFile makes that workflow real: a study's logs can be
// written to disk and re-analyzed without re-running the simulation
// (examples/trace_workflow.cpp walks through it).
//
// Format: 16-byte header (magic "SLIMTRC1", entry count), then fixed-size little-endian
// records. Forward-compatible via the version byte in the magic.

#ifndef SRC_TRACE_TRACE_FILE_H_
#define SRC_TRACE_TRACE_FILE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/console/console.h"
#include "src/trace/protocol_log.h"

namespace slim {

// Serializes a log to bytes / parses it back. Parsing returns nullopt on any corruption
// (bad magic, truncated records, invalid enum values).
std::vector<uint8_t> SerializeLog(const ProtocolLog& log);
std::optional<ProtocolLog> ParseLog(std::span<const uint8_t> data);

// Console service logs travel with the protocol log in study caches.
std::vector<uint8_t> SerializeServiceLog(const std::vector<ServiceRecord>& log);
std::optional<std::vector<ServiceRecord>> ParseServiceLog(std::span<const uint8_t> data);

// File helpers; return false / nullopt on I/O failure.
bool WriteFile(const std::string& path, std::span<const uint8_t> data);
std::optional<std::vector<uint8_t>> ReadFile(const std::string& path);

}  // namespace slim

#endif  // SRC_TRACE_TRACE_FILE_H_
