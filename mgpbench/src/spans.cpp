#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mgpbench {

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

int SpanLog::begin(const char* name, int parent) {
  const std::uint64_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, start, -1, thread});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

double SpanLog::ms(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::vector<int> SpanLog::children_of(int id) const {
  std::vector<int> kids;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) kids.push_back(static_cast<int>(i));
  }
  return kids;
}

double SpanLog::self_ms(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (int k : children_of(id)) {
    const Span& c = spans_[static_cast<std::size_t>(k)];
    iv.emplace_back(std::max(c.start_ns, s.start_ns), std::min(c.end_ns, s.end_ns));
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = s.start_ns;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
}

double SpanLog::children_ms(int id, const char* name, int* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  int n = 0;
  for (int k : children_of(id)) {
    const Span& c = spans_[static_cast<std::size_t>(k)];
    if (std::strcmp(c.name, name) != 0) continue;
    total += static_cast<double>(c.end_ns - c.start_ns) / 1e6;
    ++n;
  }
  if (count) *count = n;
  return total;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard<std::mutex> lock(mu_);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":" << (s.thread % 100000) << ",\"ts\":" << s.start_ns / 1000
       << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000 << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace mgpbench
