#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::uint64_t wave,
                            std::uint32_t parent) {
  Span span;
  span.name = name;
  span.wave = wave;
  span.parent = parent;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) { spans_[id].end = Clock::now(); }

std::map<std::string, Tracer::NameTotals> Tracer::self_times(
    const std::set<std::uint64_t>& waves) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) child_s[span.parent] += span.seconds();
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!waves.contains(spans_[i].wave)) continue;
    NameTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].seconds();
    t.self_s += std::max(0.0, spans_[i].seconds() - child_s[i]);
  }
  return totals;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"wave\":" << s.wave << ",\"parent\":";
    if (s.parent == kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
