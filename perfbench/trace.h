// In-memory span recorder for the traced mode.
//
// A span is (name, start, end, parent, id). The benchmark opens spans
// around its own calls into the program's public functions; it never
// instruments the program itself. Spans of one request share its id
// (batch-level spans, such as a drain serving many requests, carry the
// id of the batch's first request). Spans stay in memory until the run
// ends and `write_jsonl` dumps them. A disabled tracer records nothing
// and costs one branch per span.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "measure.h"

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFU;

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index into the span list
  std::uint64_t id = 0;              // request id
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span (child of the innermost open span); returns its index,
  /// or kNoParent when disabled.
  std::uint32_t open(const char* name, std::uint64_t id);
  void close(std::uint32_t index);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Total duration of every span with this name, seconds.
  double total_s(std::string_view name) const;
  /// Number of spans with this name.
  std::size_t count(std::string_view name) const;
  /// Durations of every span with this name, microseconds.
  std::vector<double> durations_us(std::string_view name) const;

  /// One JSON object per span and line.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

}  // namespace perfbench
