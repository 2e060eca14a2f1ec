// Event model for synchronization traces.
//
// Every access to a shared resource in this library is modelled as three phases, matching
// the request/admission/completion structure Bloom's taxonomy reasons about:
//
//   kRequest : the process has asked to execute an operation (it may be blocked);
//   kEnter   : the process has been admitted and is executing the operation body;
//   kExit    : the operation body has completed.
//
// Problems attach the information categories of Section 3 of the paper to events:
// the operation name is the *request type*, the sequence number is the *request time*,
// `param` carries *request parameters*, and oracles derive *synchronization state*,
// *local state*, and *history* information from the event stream itself.

#ifndef SYNEVAL_TRACE_EVENT_H_
#define SYNEVAL_TRACE_EVENT_H_

#include <cstdint>
#include <string>

namespace syneval {

// Phase of an operation instance. kMark is a free-form annotation event used by tests
// and workloads (e.g. virtual-clock ticks).
enum class EventKind : std::uint8_t {
  kRequest = 0,
  kEnter = 1,
  kExit = 2,
  kMark = 3,
};

// Returns a short human-readable name ("request", "enter", "exit", "mark").
const char* EventKindName(EventKind kind);

// One record in a trace. Events are totally ordered by `seq`, a global logical timestamp
// assigned at record time. `op_instance` ties together the kRequest/kEnter/kExit events of
// a single operation execution.
struct Event {
  std::uint64_t seq = 0;          // Global logical time; unique and totally ordered.
  std::uint64_t op_instance = 0;  // Identifier shared by the phases of one execution.
  std::uint32_t thread = 0;       // Logical id of the acting thread.
  EventKind kind = EventKind::kMark;
  std::string op;                 // Operation (request type), e.g. "read", "deposit".
  std::int64_t param = 0;         // Request parameter (track number, wake time, ...).
  std::int64_t value = 0;         // Payload observed (buffer item, ticket, ...).
  std::uint64_t wall_ns = 0;      // Wall-clock stamp, 0 unless the caller that built
                                  // the Event set it. Oracles ignore it; the Perfetto
                                  // exporter and FlightRecorder::OnTraceEvent use it.

  // Renders "seq=12 t3 enter read(param=7)" style text for diagnostics.
  std::string ToString() const;
};

}  // namespace syneval

#endif  // SYNEVAL_TRACE_EVENT_H_
