#include "tracer.h"

#include <cstdio>

namespace atlas::bench {

int Tracer::Add(std::string_view name, Clock::time_point start,
                Clock::time_point end, int parent) {
  spans_.push_back({std::string(name), start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int id, Clock::time_point end, std::string_view name) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end = end;
  if (!name.empty()) span.name = name;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(Seconds(s.start, s.end));
  }
  return out;
}

double Tracer::Total(std::string_view name) const {
  double sum = 0.0;
  for (const double d : Durations(name)) sum += d;
  return sum;
}

double Tracer::TopLevelTotal() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += Seconds(s.start, s.end);
  }
  return sum;
}

void Tracer::WriteChromeEvents(std::ostream& out, Clock::time_point origin,
                               int tid, const std::string& lane,
                               bool& first) const {
  out << (first ? "" : ",\n")
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
      << ",\"args\":{\"name\":\"" << lane << "\"}}";
  first = false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  Seconds(origin, s.start) * 1e6,
                  Seconds(s.start, s.end) * 1e6);
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << layer
        << "\",\"ph\":\"X\"," << times << ",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
}

}  // namespace atlas::bench
