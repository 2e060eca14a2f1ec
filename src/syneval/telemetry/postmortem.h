// Postmortem: turn a flight-recorder window + detector state into a causal story.
//
// The anomaly detector names *what* went wrong (a wait-for cycle, a lost wakeup, a
// starved request); the flight recorder retains *how* the run got there (the last few
// hundred block/wake/acquire/signal/fault events, always on, even during measurement).
// BuildPostmortem joins the two: it snapshots the rings, resolves raw resource pointers
// back to the names the anomaly text uses (preferring the detector's semantic names —
// "CriticalRegion.when" — over the recorder's), infers the most likely root cause, and
// reconstructs a narrative:
//
//   * deadlock     — the detector's named wait-for cycle, cross-referenced with each
//                    edge's acquisition event (who acquired the held resource, when)
//                    and each member's still-open block event;
//   * lost wakeup  — the signal that fell on an empty queue (or the injected
//                    drop-signal that swallowed it) versus the waiter that blocked
//                    after it and never woke;
//   * starvation   — the admissions that overtook the pending request, and CCR guard
//                    re-tests that kept failing for the same waiter;
//   * injected fault — when a FaultInjector fired in the window, the fault family is
//                    the root cause by ground truth and the story starts there.
//
// The result renders three ways: ToText (diagnostics, test failure dumps, the
// syneval_postmortem CLI), ToJson (the additive `postmortem` key of bench schema v3),
// and the Perfetto exporter's overlay (perfetto.h: a slice + instants laid over the
// run's timeline).

#ifndef SYNEVAL_TELEMETRY_POSTMORTEM_H_
#define SYNEVAL_TELEMETRY_POSTMORTEM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "syneval/telemetry/flight_recorder.h"

namespace syneval {

class AnomalyDetector;

// One decoded, name-resolved event of the postmortem window.
struct PostmortemEvent {
  std::uint64_t seq = 0;
  std::uint64_t time_nanos = 0;
  std::uint32_t thread = 0;
  std::string type;      // FlightEventTypeName at snapshot time.
  std::string resource;  // Resolved display name.
  std::uint64_t arg = 0;

  std::string ToString() const;
};

struct Postmortem {
  // Root cause: an injected fault family ("lost-signal", "stall", "kill-thread",
  // "spurious-wakeup") when a fault fired in the window; otherwise the dominant
  // anomaly kind ("deadlock", "lost-wakeup", "starvation", "stuck-waiter");
  // "unexplained" when the run misbehaved with neither; "" when there is nothing to
  // explain (empty() is true).
  std::string cause;
  std::string summary;                  // One-line headline.
  std::vector<std::string> anomalies;   // Detector findings, rendered.
  std::vector<std::string> narrative;   // Causal story, one step per line.
  std::vector<PostmortemEvent> window;  // Tail of the merged rings, seq order.
  std::uint64_t events_recorded = 0;    // Recorder totals at snapshot time.
  std::uint64_t events_evicted = 0;

  bool empty() const { return cause.empty(); }

  std::string ToText() const;

  // One JSON object: {"cause":...,"summary":...,"anomalies":[...],"narrative":[...],
  // "events":[{"seq":..,"time_ns":..,"thread":..,"type":..,"resource":..,"arg":..}],
  // "events_recorded":N,"events_evicted":M}. Embedded verbatim by the bench reporter
  // under the schema-v3 `postmortem` key.
  std::string ToJson() const;
};

struct PostmortemOptions {
  int max_window_events = 48;  // Tail of the merged rings kept in `window`.
  int max_anomalies = 8;       // Detector findings kept (they can be verbose).
};

// Snapshots `recorder`, joins it with `detector` (nullable: pointer-name resolution
// and anomaly classification are skipped without one), infers the cause, and builds
// the narrative. Safe to call while other threads are still recording (the snapshot
// is weakly consistent; see FlightRecorder::Snapshot).
Postmortem BuildPostmortem(const FlightRecorder& recorder, const AnomalyDetector* detector,
                           const PostmortemOptions& options = {});

// Maps a fault label to its calibration family: "drop-signal" / "drop-notify" /
// "drop-broadcast" → "lost-signal"; "stall" / "delay-lock" → "stall"; others map to
// themselves. Accepts the injector's mirror labels ("fault.drop-signal") too.
std::string FaultCauseFamily(std::string_view fault_name);

}  // namespace syneval

#endif  // SYNEVAL_TELEMETRY_POSTMORTEM_H_
