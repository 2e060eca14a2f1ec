// TraceRecorder: a thread-safe, append-only event log with global logical timestamps.
//
// The recorder is the measurement substrate for every experiment in this repository:
// workloads record request/enter/exit events around mechanism calls, and the oracles in
// syneval/problems check constraint conformance over the resulting totally ordered trace.

#ifndef SYNEVAL_TRACE_RECORDER_H_
#define SYNEVAL_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "syneval/trace/event.h"

namespace syneval {

// Callback interface for observing events as they are recorded. The observer is invoked
// *after* the recorder's internal lock is released, so implementations may take their own
// locks (and even record further events) without deadlocking against the recorder.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void OnTraceEvent(const Event& event) = 0;
};

// Thread-safe append-only trace. Appends are serialized by an internal mutex so that the
// assigned sequence numbers agree with the order events entered the log; this gives a
// single total order that oracles can treat as "the observed history".
//
// Snapshot() may be called concurrently with appends; it returns a copy of the stable
// prefix. Events() requires that all writers have finished.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Appends an event, assigning the next global sequence number. Returns the
  // sequence number assigned.
  std::uint64_t Record(Event event);

  // Convenience: appends a (kind, op) event for `thread`, returning its seq.
  std::uint64_t Record(std::uint32_t thread, EventKind kind, std::string_view op,
                       std::uint64_t op_instance = 0, std::int64_t param = 0,
                       std::int64_t value = 0);

  // Allocates a fresh operation-instance id (used to tie request/enter/exit together).
  std::uint64_t NewOpInstance();

  // Sets (or clears, with nullptr) the observer notified after each append. The caller
  // must ensure the observer outlives all recording and is set before writers start.
  void SetObserver(TraceObserver* observer) { observer_ = observer; }

  // A second, independent observer slot, notified after the primary. The anomaly
  // detector conventionally holds the primary slot; this one lets the flight recorder
  // (or any other sink) listen to op events without displacing it. Same lifetime and
  // set-before-writers rules as SetObserver.
  void SetSecondaryObserver(TraceObserver* observer) { secondary_observer_ = observer; }

  // Returns a copy of all events recorded so far.
  std::vector<Event> Snapshot() const;

  // Returns a reference to the event vector. Only valid once all writers have stopped.
  const std::vector<Event>& Events() const { return events_; }

  std::size_t size() const;
  void Clear();

  // Renders the whole trace, one event per line (diagnostics for failing oracles).
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 1;
  std::atomic<std::uint64_t> next_instance_{1};
  TraceObserver* observer_ = nullptr;
  TraceObserver* secondary_observer_ = nullptr;
};

// Records the phases of one operation execution.
//
// Instrumentation contract (see problems/README in DESIGN.md): the phase records are
// only meaningful if they are ordered by happens-before with the admission decisions
// they describe, so solutions call them at precise points:
//
//   Arrived() — when the request becomes visible to the mechanism (first statement
//               under the mechanism's internal exclusion, e.g. on entering the monitor);
//   Entered() — at the admission decision, still under the same exclusion;
//   Exited()  — at the release point, before the mechanism wakes competitors.
//
// A solution given a null OpScope* simply skips instrumentation. If Entered() is called
// without a prior Arrived(), an arrival is recorded implicitly (arrival == admission).
// The destructor records kExit for an entered-but-not-exited scope; a scope that never
// entered records nothing further (the execution was abandoned, e.g. during
// deterministic-runtime teardown).
class OpScope {
 public:
  OpScope(TraceRecorder& recorder, std::uint32_t thread, std::string op, std::int64_t param = 0);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  // Records the kRequest event (request visible to the mechanism). Idempotent.
  void Arrived();

  // Records the kEnter event (the operation has been admitted). Idempotent.
  void Entered(std::int64_t value = 0);

  // Records the kExit event (the operation released the resource). Idempotent.
  void Exited(std::int64_t value = 0);

  std::uint64_t instance() const { return instance_; }

 private:
  TraceRecorder& recorder_;
  std::uint32_t thread_;
  std::string op_;
  std::int64_t param_;
  std::uint64_t instance_;
  bool arrived_ = false;
  bool entered_ = false;
  bool exited_ = false;
};

}  // namespace syneval

#endif  // SYNEVAL_TRACE_RECORDER_H_
