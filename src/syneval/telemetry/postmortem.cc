#include "syneval/telemetry/postmortem.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/telemetry/metrics.h"

namespace syneval {

namespace {

// Resolution order for the dominant anomaly: a deadlock subsumes the stuck waiters it
// strands; a lost wakeup explains its stuck waiter; starvation outranks the generic
// stuck-waiter catch-all.
constexpr AnomalyKind kKindPriority[] = {
    AnomalyKind::kDeadlock,
    AnomalyKind::kLostWakeup,
    AnomalyKind::kStarvation,
    AnomalyKind::kStuckWaiter,
};

const Anomaly* DominantAnomaly(const std::vector<Anomaly>& anomalies) {
  for (AnomalyKind kind : kKindPriority) {
    for (const Anomaly& anomaly : anomalies) {
      if (anomaly.kind == kind) {
        return &anomaly;
      }
    }
  }
  return nullptr;
}

}  // namespace

std::string FaultCauseFamily(std::string_view fault_name) {
  constexpr std::string_view kPrefix = "fault.";
  if (fault_name.substr(0, kPrefix.size()) == kPrefix) {
    fault_name.remove_prefix(kPrefix.size());
  }
  if (fault_name == "drop-signal" || fault_name == "drop-notify" ||
      fault_name == "drop-broadcast") {
    return "lost-signal";
  }
  if (fault_name == "stall" || fault_name == "delay-lock") {
    return "stall";
  }
  return std::string(fault_name);
}

std::string PostmortemEvent::ToString() const {
  std::ostringstream os;
  os << "seq=" << seq << " t" << thread << " " << type << " " << resource;
  if (arg != 0) {
    os << " arg=" << arg;
  }
  os << " @" << time_nanos << "ns";
  return os.str();
}

Postmortem BuildPostmortem(const FlightRecorder& recorder, const AnomalyDetector* detector,
                           const PostmortemOptions& options) {
  Postmortem pm;
  const std::vector<FlightEvent> events = recorder.Snapshot();
  pm.events_recorded = recorder.recorded();
  pm.events_evicted = recorder.evicted();

  std::map<const void*, std::string> det_names;
  std::map<const void*, std::vector<std::uint32_t>> holders;
  std::vector<Anomaly> anomalies;
  if (detector != nullptr) {
    for (const AnomalyDetector::ResourceSnapshot& snap : detector->SnapshotResources()) {
      det_names[snap.resource] = snap.name;
      if (!snap.holders.empty()) {
        holders[snap.resource] = snap.holders;
      }
    }
    anomalies = detector->anomalies();
  }
  // Detector names win: they are the ones the anomaly descriptions use, and they cover
  // mechanism-level resources the recorder only knows as raw pointers.
  const auto resolve = [&](const void* resource) {
    auto it = det_names.find(resource);
    return it != det_names.end() ? it->second : recorder.NameOf(resource);
  };

  // Evidence scan over the full snapshot (the stored window may be a shorter tail).
  std::map<std::uint32_t, const FlightEvent*> open_blocks;  // Blocked, never woke.
  std::map<std::pair<std::uint32_t, const void*>, const FlightEvent*> last_acquire;
  std::vector<const FlightEvent*> faults;
  const FlightEvent* last_empty_signal = nullptr;
  std::map<std::uint32_t, int> failed_retests;
  for (const FlightEvent& event : events) {
    switch (event.type) {
      case FlightEventType::kBlock:
        open_blocks[event.thread] = &event;
        break;
      case FlightEventType::kWake:
        open_blocks.erase(event.thread);
        break;
      case FlightEventType::kAcquire:
        last_acquire[{event.thread, event.resource}] = &event;
        break;
      case FlightEventType::kSignal:
      case FlightEventType::kBroadcast:
        if (event.arg == 0) {
          last_empty_signal = &event;
        }
        break;
      case FlightEventType::kFaultFired:
        faults.push_back(&event);
        break;
      case FlightEventType::kGuardRetest:
        if (event.arg == 0) {
          ++failed_retests[event.thread];
        }
        break;
      default:
        break;
    }
  }

  const Anomaly* dominant = DominantAnomaly(anomalies);
  if (!faults.empty()) {
    // Ground truth beats inference: when an injected fault fired, its family is the
    // root cause whatever the detector classified the wreckage as.
    pm.cause = FaultCauseFamily(resolve(faults.back()->resource));
  } else if (dominant != nullptr) {
    pm.cause = AnomalyKindName(dominant->kind);
  } else if (!events.empty()) {
    pm.cause = "unexplained";
  } else {
    return pm;  // Nothing recorded, nothing detected: nothing to explain.
  }

  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    if (static_cast<int>(i) >= options.max_anomalies) {
      pm.anomalies.push_back("... and " + std::to_string(anomalies.size() - i) + " more");
      break;
    }
    pm.anomalies.push_back(anomalies[i].ToString());
  }

  const auto add = [&](std::string line) { pm.narrative.push_back(std::move(line)); };

  // 1. Injected faults, in firing order — the story starts at the ground truth.
  for (const FlightEvent* fault : faults) {
    std::ostringstream os;
    os << "injected " << resolve(fault->resource) << " fired on t" << fault->thread
       << " at seq " << fault->seq << " (@" << fault->time_nanos << "ns)";
    add(os.str());
  }

  // 2. Lost-signal story: the delivery that found nobody (or was swallowed) versus the
  // waiter that parked after it and never woke.
  if (last_empty_signal != nullptr) {
    std::ostringstream os;
    os << "t" << last_empty_signal->thread << " signalled "
       << resolve(last_empty_signal->resource) << " at seq " << last_empty_signal->seq
       << " while no thread was waiting — the signal fell on the floor";
    add(os.str());
    for (const auto& [thread, block] : open_blocks) {
      if (block->resource == last_empty_signal->resource &&
          block->seq > last_empty_signal->seq) {
        std::ostringstream vs;
        vs << "t" << thread << " blocked on " << resolve(block->resource) << " at seq "
           << block->seq << " — after that signal was already gone — and never woke";
        add(vs.str());
      }
    }
  }

  // 3. Hold/wait edges: who holds what (with the acquisition event) while blocked on
  // what — the per-edge evidence for a wait-for cycle. `holders` is keyed by resource
  // *address*, so the edges are ordered by (thread, resource name) before emission:
  // heap layout must never leak into a narrative that is diffed across runs.
  std::vector<std::pair<std::uint32_t, const void*>> hold_edges;
  for (const auto& [resource, holder_list] : holders) {
    for (std::uint32_t holder : holder_list) {
      hold_edges.emplace_back(holder, resource);
    }
  }
  std::sort(hold_edges.begin(), hold_edges.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return resolve(a.second) < resolve(b.second);
            });
  for (const auto& [holder, resource] : hold_edges) {
    std::ostringstream os;
    os << "t" << holder << " holds " << resolve(resource);
    auto acq = last_acquire.find({holder, resource});
    if (acq != last_acquire.end()) {
      os << " (acquired at seq " << acq->second->seq << ", @" << acq->second->time_nanos
         << "ns)";
    }
    auto block = open_blocks.find(holder);
    if (block != open_blocks.end()) {
      os << " while blocked on " << resolve(block->second->resource) << " since seq "
         << block->second->seq;
    }
    add(os.str());
  }

  // 4. Remaining open waits (threads that hold nothing but are stuck anyway).
  for (const auto& [thread, block] : open_blocks) {
    bool is_holder = false;
    for (const auto& [resource, holder_list] : holders) {
      for (std::uint32_t holder : holder_list) {
        is_holder |= holder == thread;
      }
    }
    if (is_holder) {
      continue;
    }
    if (last_empty_signal != nullptr && block->resource == last_empty_signal->resource &&
        block->seq > last_empty_signal->seq) {
      continue;  // Already told as the lost-signal victim.
    }
    std::ostringstream os;
    os << "t" << thread << " blocked on " << resolve(block->resource) << " at seq "
       << block->seq << " and never woke";
    add(os.str());
  }

  // 5. Guard re-test pressure: the CCR starvation signature.
  for (const auto& [thread, count] : failed_retests) {
    if (count < 3) {
      continue;
    }
    std::ostringstream os;
    os << "t" << thread << "'s guard was re-tested " << count
       << " times without ever admitting it";
    add(os.str());
  }

  // Window: tail of the merged rings, names resolved now (the recorder may not
  // outlive the postmortem).
  const std::size_t keep = options.max_window_events <= 0
                               ? events.size()
                               : std::min<std::size_t>(events.size(),
                                                       static_cast<std::size_t>(
                                                           options.max_window_events));
  pm.window.reserve(keep);
  for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
    PostmortemEvent out;
    out.seq = events[i].seq;
    out.time_nanos = events[i].time_nanos;
    out.thread = events[i].thread;
    out.type = FlightEventTypeName(events[i].type);
    out.resource = resolve(events[i].resource);
    out.arg = events[i].arg;
    pm.window.push_back(std::move(out));
  }

  std::ostringstream os;
  os << pm.cause << " — " << anomalies.size() << " detector finding"
     << (anomalies.size() == 1 ? "" : "s") << ", " << pm.window.size()
     << "-event window (" << pm.events_recorded << " recorded, " << pm.events_evicted
     << " evicted)";
  pm.summary = os.str();
  return pm;
}

std::string Postmortem::ToText() const {
  std::ostringstream os;
  os << "postmortem: " << summary << "\n";
  if (!anomalies.empty()) {
    os << "detector findings:\n";
    for (const std::string& anomaly : anomalies) {
      os << "  - " << anomaly << "\n";
    }
  }
  if (!narrative.empty()) {
    os << "narrative:\n";
    for (const std::string& line : narrative) {
      os << "  - " << line << "\n";
    }
  }
  if (!window.empty()) {
    os << "event window (" << window.size() << " events):\n";
    for (const PostmortemEvent& event : window) {
      os << "  " << event.ToString() << "\n";
    }
  }
  return os.str();
}

std::string Postmortem::ToJson() const {
  std::string out = "{\"cause\":\"" + JsonEscape(cause) + "\",\"summary\":\"" +
                    JsonEscape(summary) + "\",\"anomalies\":[";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(anomalies[i]) + "\"";
  }
  out += "],\"narrative\":[";
  for (std::size_t i = 0; i < narrative.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(narrative[i]) + "\"";
  }
  out += "],\"events\":[";
  for (std::size_t i = 0; i < window.size(); ++i) {
    const PostmortemEvent& event = window[i];
    out += i == 0 ? "" : ",";
    out += "{\"seq\":" + std::to_string(event.seq) +
           ",\"time_ns\":" + std::to_string(event.time_nanos) +
           ",\"thread\":" + std::to_string(event.thread) + ",\"type\":\"" +
           JsonEscape(event.type) + "\",\"resource\":\"" + JsonEscape(event.resource) +
           "\",\"arg\":" + std::to_string(event.arg) + "}";
  }
  out += "],\"events_recorded\":" + std::to_string(events_recorded) +
         ",\"events_evicted\":" + std::to_string(events_evicted) + "}";
  return out;
}

}  // namespace syneval
