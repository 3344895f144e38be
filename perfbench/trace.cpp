#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::open(const char* name, std::uint64_t id) {
  if (!enabled_) return kNoParent;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t index) {
  if (index == kNoParent) return;
  spans_[index].end_ns = now_ns();
  // Spans close innermost first (RAII), so the index is the stack top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::total_s(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Tracer::count(std::string_view name) const {
  std::size_t n = 0;
  for (const SpanRecord& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path.string());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"span\": " << i << ", \"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": ";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << "}\n";
  }
  if (!out) throw std::runtime_error("trace: write failed " + path.string());
}

}  // namespace perfbench
