// Chrome trace_event / Perfetto JSON export.
//
// Merges the logical TraceRecorder event stream (request/enter/exit triples with
// optional wall-clock stamps), a FlightRecorder's sync events (signal→wakeup flows and
// fired faults) and a Postmortem overlay into one JSON document loadable by
// ui.perfetto.dev or chrome://tracing:
//
//   * each operation instance becomes two complete ("ph":"X") duration events on its
//     thread's track — "wait:<op>" from request to admission and "<op>" from admission
//     to exit — so convoys and starvation are visible as stacked wait spans;
//   * each flight kSignal/kBroadcast becomes a flow start ("ph":"s") and opens its
//     resource's flow; each later notified kWake (arg 1) on that resource becomes a
//     flow finish ("ph":"f") with the same id, drawing the arrow that makes a lost
//     wakeup (an "s" with no "f") or a stolen wakeup visually traceable. Flow ids run
//     1, 2, ... in flight seq order; deadline and mutex wakes (arg 0) draw nothing;
//   * each flight kFaultFired becomes a "fault" instant named after its site label
//     ("fault.spurious-wakeup");
//   * kMark events become instants ("ph":"i");
//   * a non-empty postmortem adds one "postmortem: <cause>" span on thread 0 covering
//     its window, plus one "postmortem" instant per window event.
//
// Timestamps: events carrying wall_ns use it; events without (pure logical traces) fall
// back to seq * 1000, which renders a deterministic-runtime trace at one microsecond
// per scheduling step. "displayTimeUnit":"ns" keeps sub-microsecond spans readable.

#ifndef SYNEVAL_TELEMETRY_PERFETTO_H_
#define SYNEVAL_TELEMETRY_PERFETTO_H_

#include <string>
#include <vector>

#include "syneval/trace/event.h"

namespace syneval {

class FlightRecorder;
struct Postmortem;

struct ChromeTraceOptions {
  int pid = 1;
  std::string process_name = "syneval";
};

// Renders the merged trace as a Chrome trace_event JSON object. `flight` and
// `postmortem` may be null.
std::string ExportChromeTrace(const std::vector<Event>& events,
                              const FlightRecorder* flight, const Postmortem* postmortem,
                              const ChromeTraceOptions& options = {});

// Writes ExportChromeTrace output to `path`. Returns false (and writes nothing further)
// on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<Event>& events,
                      const FlightRecorder* flight, const Postmortem* postmortem,
                      const ChromeTraceOptions& options = {});

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_PERFETTO_H_
