#include "syneval/telemetry/perfetto.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "syneval/telemetry/flight_recorder.h"
#include "syneval/telemetry/metrics.h"
#include "syneval/telemetry/postmortem.h"

namespace syneval {

namespace {

// One flattened trace_event record, pre-sort.
struct JsonEvent {
  double ts_us = 0;      // Chrome trace timestamps are microseconds.
  double dur_us = 0;     // ph "X" only.
  char ph = 'i';         // X, i, s, f.
  std::uint32_t tid = 0;
  std::uint64_t id = 0;  // Flow id (s/f only).
  std::string name;
  std::string category;
  std::string args;      // Pre-rendered JSON object body, may be empty.
};

double TimestampMicros(const Event& event) {
  // Wall-clock stamp if the recorder had a clock; otherwise one microsecond per
  // logical step so deterministic traces lay out readably.
  const std::uint64_t ns = event.wall_ns != 0 ? event.wall_ns : event.seq * 1000;
  return static_cast<double>(ns) / 1000.0;
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

void AppendEvent(std::string& out, const JsonEvent& event, int pid, bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  out += "  {\"name\":\"" + JsonEscape(event.name) + "\",\"cat\":\"" +
         JsonEscape(event.category.empty() ? "op" : event.category) +
         "\",\"ph\":\"" + event.ph + "\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(event.tid) + ",\"ts\":" + Number(event.ts_us);
  if (event.ph == 'X') {
    out += ",\"dur\":" + Number(event.dur_us);
  }
  if (event.ph == 's' || event.ph == 'f') {
    out += ",\"id\":" + std::to_string(event.id);
    if (event.ph == 'f') {
      out += ",\"bp\":\"e\"";
    }
  }
  if (!event.args.empty()) {
    out += ",\"args\":{" + event.args + "}";
  } else if (event.ph == 'i') {
    out += ",\"s\":\"t\"";
  }
  out += "}";
}

}  // namespace

std::string ExportChromeTrace(const std::vector<Event>& events,
                              const FlightRecorder* flight, const Postmortem* postmortem,
                              const ChromeTraceOptions& options) {
  std::vector<JsonEvent> out_events;
  std::set<std::uint32_t> threads;

  // Pair request/enter/exit phases per op_instance into wait and op spans.
  struct OpenOp {
    const Event* request = nullptr;
    const Event* enter = nullptr;
  };
  std::map<std::uint64_t, OpenOp> open;
  for (const Event& event : events) {
    threads.insert(event.thread);
    switch (event.kind) {
      case EventKind::kRequest:
        open[event.op_instance].request = &event;
        break;
      case EventKind::kEnter: {
        OpenOp& op = open[event.op_instance];
        op.enter = &event;
        if (op.request != nullptr) {
          JsonEvent wait;
          wait.ph = 'X';
          wait.tid = event.thread;
          wait.name = "wait:" + event.op;
          wait.category = "wait";
          wait.ts_us = TimestampMicros(*op.request);
          wait.dur_us = std::max(0.0, TimestampMicros(event) - wait.ts_us);
          wait.args = "\"op_instance\":" + std::to_string(event.op_instance) +
                      ",\"request_seq\":" + std::to_string(op.request->seq);
          out_events.push_back(std::move(wait));
        }
        break;
      }
      case EventKind::kExit: {
        const auto it = open.find(event.op_instance);
        if (it != open.end() && it->second.enter != nullptr) {
          const Event& enter = *it->second.enter;
          JsonEvent span;
          span.ph = 'X';
          span.tid = enter.thread;
          span.name = enter.op;
          span.category = "op";
          span.ts_us = TimestampMicros(enter);
          span.dur_us = std::max(0.0, TimestampMicros(event) - span.ts_us);
          span.args = "\"op_instance\":" + std::to_string(event.op_instance) +
                      ",\"enter_seq\":" + std::to_string(enter.seq) +
                      ",\"exit_seq\":" + std::to_string(event.seq) +
                      ",\"param\":" + std::to_string(enter.param) +
                      ",\"value\":" + std::to_string(event.value);
          out_events.push_back(std::move(span));
          open.erase(it);
        }
        break;
      }
      case EventKind::kMark: {
        JsonEvent mark;
        mark.ph = 'i';
        mark.tid = event.thread;
        mark.name = event.op;
        mark.category = "mark";
        mark.ts_us = TimestampMicros(event);
        out_events.push_back(std::move(mark));
        break;
      }
    }
  }

  // Signal→wakeup flows and fired faults, replayed from the flight rings in seq order.
  if (flight != nullptr) {
    std::map<const void*, std::uint64_t> open_flow;  // resource → its latest flow id.
    std::uint64_t next_flow_id = 1;
    for (const FlightEvent& record : flight->Snapshot()) {
      JsonEvent event;
      event.tid = record.thread;
      event.category = "sync";
      event.ts_us = static_cast<double>(record.time_nanos) / 1000.0;
      switch (record.type) {
        case FlightEventType::kSignal:
        case FlightEventType::kBroadcast:
          event.ph = 's';
          event.name = record.type == FlightEventType::kSignal ? "signal" : "broadcast";
          event.id = next_flow_id++;
          open_flow[record.resource] = event.id;
          break;
        case FlightEventType::kWake: {
          // Only a notified wake (arg 1) closes a flow: deadline and mutex wakes
          // (arg 0) were caused by no signal.
          const auto it = open_flow.find(record.resource);
          if (record.arg != 1 || it == open_flow.end()) {
            continue;
          }
          event.ph = 'f';
          event.name = "wakeup";
          event.id = it->second;
          break;
        }
        case FlightEventType::kFaultFired:
          event.ph = 'i';
          event.name = flight->NameOf(record.resource);
          event.category = "fault";
          break;
        default:
          continue;
      }
      threads.insert(record.thread);
      out_events.push_back(std::move(event));
    }
  }

  // The postmortem overlay: one span covering the window plus an instant per event.
  if (postmortem != nullptr && !postmortem->window.empty()) {
    const std::uint64_t start = postmortem->window.front().time_nanos;
    const std::uint64_t back = postmortem->window.back().time_nanos;
    const std::uint64_t end = back > start ? back : start + 1;
    JsonEvent span;
    span.ph = 'X';
    span.tid = 0;
    span.name = "postmortem: " + postmortem->cause;
    span.category = "postmortem";
    span.ts_us = static_cast<double>(start) / 1000.0;
    span.dur_us = static_cast<double>(end - start) / 1000.0;
    threads.insert(0);
    out_events.push_back(std::move(span));
    for (const PostmortemEvent& record : postmortem->window) {
      JsonEvent instant;
      instant.ph = 'i';
      instant.tid = record.thread;
      instant.name = record.type + " " + record.resource;
      instant.category = "postmortem";
      instant.ts_us = static_cast<double>(record.time_nanos) / 1000.0;
      threads.insert(record.thread);
      out_events.push_back(std::move(instant));
    }
  }

  std::stable_sort(out_events.begin(), out_events.end(),
                   [](const JsonEvent& a, const JsonEvent& b) { return a.ts_us < b.ts_us; });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"generator\":\"syneval\"},"
                    "\"traceEvents\":[\n";
  bool first = true;
  // Process/thread metadata first: names the tracks in the Perfetto UI.
  {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(options.pid) + ",\"args\":{\"name\":\"" +
           JsonEscape(options.process_name) + "\"}}";
  }
  for (const std::uint32_t tid : threads) {
    out += ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(options.pid) + ",\"tid\":" + std::to_string(tid) +
           ",\"args\":{\"name\":\"" + (tid == 0 ? "main" : "t" + std::to_string(tid)) +
           "\"}}";
  }
  for (const JsonEvent& event : out_events) {
    AppendEvent(out, event, options.pid, first);
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Event>& events,
                      const FlightRecorder* flight, const Postmortem* postmortem,
                      const ChromeTraceOptions& options) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << ExportChromeTrace(events, flight, postmortem, options);
  return static_cast<bool>(file);
}

}  // namespace syneval
