#include "spans.hpp"

#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

void escapeJson(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c; break;
    }
  }
}

double microsSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

} // namespace

std::string chromeTraceJson(const std::vector<SpanEvent>& events,
                            std::uint32_t threads, Clock::time_point epoch,
                            const std::string& processName) {
  std::ostringstream os;
  os << std::setprecision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << "\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"";
  escapeJson(os, processName);
  os << "\"}}";
  for (std::uint32_t t = 0; t < threads; ++t) {
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << t
       << ",\"args\":{\"name\":\"client-" << t << "\"}}";
  }
  for (const SpanEvent& e : events) {
    os << ",\n{\"ph\":\"X\",\"name\":\"";
    escapeJson(os, e.name);
    os << "\",\"cat\":\"" << e.category << "\",\"pid\":0,\"tid\":" << e.tid
       << ",\"ts\":" << microsSince(epoch, e.start)
       << ",\"dur\":" << microsSince(e.start, e.end) << ",\"args\":{\"design\":\"";
    escapeJson(os, e.design);
    os << "\"}}";
  }
  os << "\n]}\n";
  return os.str();
}

} // namespace perfbench
