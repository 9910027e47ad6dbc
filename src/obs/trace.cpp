#include "obs/trace.h"

#include <cstdio>
#include <ostream>

namespace bpp::obs {

namespace {

const std::string kUnknown = "?";

/// JSON string escaping for kernel names (quotes, backslashes, control
/// characters; everything else passes through).
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Chrome's `ts`/`dur` are microseconds.
[[nodiscard]] double us(double seconds) { return seconds * 1e6; }

}  // namespace

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kFiring: return "firing";
    case EventKind::kWrite: return "write";
    case EventKind::kPark: return "park";
    case EventKind::kSourceRelease: return "release";
    case EventKind::kChannelPush: return "push";
    case EventKind::kChannelPop: return "pop";
    case EventKind::kFrameStart: return "frame_start";
    case EventKind::kFrameEnd: return "frame_end";
    case EventKind::kFaultInject: return "fault";
    case EventKind::kFrameShed: return "shed";
    case EventKind::kShedRecover: return "recover";
  }
  return "?";
}

const std::string& Trace::kernel_name(std::int32_t k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= kernel_names.size())
    return kUnknown;
  return kernel_names[static_cast<std::size_t>(k)];
}

std::vector<TraceEvent> first_firings(const Trace& t, std::size_t n) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : t.events) {
    if (out.size() >= n) break;
    if (e.kind == EventKind::kFiring) out.push_back(e);
  }
  return out;
}

void write_chrome_trace(const Trace& t, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\""
     << (t.clock == TraceClock::kModeled ? "modeled" : "wall")
     << "\",\"dropped_events\":" << t.dropped_events
     << ",\"duration_seconds\":" << t.duration_seconds
     << "},\"traceEvents\":[\n";

  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Track names: one per core, plus a "sources" track for events emitted
  // off-core (simulator input releases have core -1).
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"bpp\"}}";
  first = false;
  for (int c = 0; c < t.cores; ++c) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << c
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"core " << c
       << "\"}}";
  }
  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << t.cores
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\"sources\"}}";

  for (const TraceEvent& e : t.events) {
    const int tid = e.core >= 0 ? e.core : t.cores;
    sep();
    switch (e.kind) {
      case EventKind::kFiring:
      case EventKind::kWrite: {
        os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << us(e.t0) << ",\"dur\":" << us(e.t1 - e.t0) << ",\"cat\":\""
           << event_kind_name(e.kind) << "\",\"name\":";
        std::string name = t.kernel_name(e.kernel);
        if (e.kind == EventKind::kWrite) name += " (write)";
        write_escaped(os, name);
        os << ",\"args\":{\"kernel\":" << e.kernel << ",\"method\":"
           << e.method << ",\"run\":" << e.aux0 << ",\"read\":" << e.aux1
           << ",\"write\":" << e.aux2 << "}}";
        break;
      }
      case EventKind::kPark:
        os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << us(e.t0) << ",\"dur\":" << us(e.t1 - e.t0)
           << ",\"cat\":\"park\",\"name\":\"park\",\"args\":{}}";
        break;
      case EventKind::kSourceRelease:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
           << ",\"ts\":" << us(e.t0) << ",\"cat\":\"release\",\"name\":";
        write_escaped(os, "release " + t.kernel_name(e.kernel));
        os << ",\"args\":{\"lag_seconds\":" << e.aux0
           << ",\"delayed\":" << (e.aux1 > 0.0f ? 1 : 0) << "}}";
        break;
      case EventKind::kChannelPush:
      case EventKind::kChannelPop:
        os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << us(e.t0) << ",\"name\":\"chan " << e.channel
           << "\",\"args\":{\"occupancy\":" << e.aux0 << "}}";
        break;
      case EventKind::kFrameStart:
      case EventKind::kFrameEnd:
        os << "{\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":" << tid
           << ",\"ts\":" << us(e.t0) << ",\"cat\":\""
           << event_kind_name(e.kind) << "\",\"name\":";
        write_escaped(os, std::string(event_kind_name(e.kind)) + " " +
                              std::to_string(e.method));
        os << ",\"args\":{\"frame\":" << e.method
           << ",\"kernel\":" << e.kernel << "}}";
        break;
      case EventKind::kFaultInject:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
           << ",\"ts\":" << us(e.t0) << ",\"cat\":\"fault\",\"name\":";
        write_escaped(os, "fault " + t.kernel_name(e.kernel));
        os << ",\"args\":{\"kernel\":" << e.kernel
           << ",\"time_scale\":" << e.aux0
           << ",\"stall_seconds\":" << e.aux1
           << ",\"delivery_delay_seconds\":" << e.aux2 << "}}";
        break;
      case EventKind::kFrameShed:
      case EventKind::kShedRecover:
        os << "{\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":" << tid
           << ",\"ts\":" << us(e.t0) << ",\"cat\":\""
           << event_kind_name(e.kind) << "\",\"name\":";
        write_escaped(os, std::string(event_kind_name(e.kind)) + " frame " +
                              std::to_string(e.method));
        os << ",\"args\":{\"frame\":" << e.method
           << ",\"kernel\":" << e.kernel << "}}";
        break;
    }
  }
  os << "\n]}\n";
}

}  // namespace bpp::obs
