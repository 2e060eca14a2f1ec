#include "syneval/trace/recorder.h"

#include <sstream>
#include <utility>

namespace syneval {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRequest:
      return "request";
    case EventKind::kEnter:
      return "enter";
    case EventKind::kExit:
      return "exit";
    case EventKind::kMark:
      return "mark";
  }
  return "?";
}

std::string Event::ToString() const {
  std::ostringstream os;
  os << "seq=" << seq << " t" << thread << " " << EventKindName(kind) << " " << op;
  os << "(inst=" << op_instance;
  if (param != 0) {
    os << ", param=" << param;
  }
  if (value != 0) {
    os << ", value=" << value;
  }
  os << ")";
  return os.str();
}

std::uint64_t TraceRecorder::Record(Event event) {
  TraceObserver* observer = nullptr;
  TraceObserver* secondary = nullptr;
  Event observed;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    seq = event.seq;
    if (observer_ != nullptr || secondary_observer_ != nullptr) {
      observer = observer_;
      secondary = secondary_observer_;
      observed = event;
    }
    events_.push_back(std::move(event));
  }
  // Outside the lock: observers may take their own locks or record further events.
  if (observer != nullptr) {
    observer->OnTraceEvent(observed);
  }
  if (secondary != nullptr) {
    secondary->OnTraceEvent(observed);
  }
  return seq;
}

std::uint64_t TraceRecorder::Record(std::uint32_t thread, EventKind kind, std::string_view op,
                                    std::uint64_t op_instance, std::int64_t param,
                                    std::int64_t value) {
  Event event;
  event.thread = thread;
  event.kind = kind;
  event.op = std::string(op);
  event.op_instance = op_instance;
  event.param = param;
  event.value = value;
  return Record(std::move(event));
}

std::uint64_t TraceRecorder::NewOpInstance() {
  return next_instance_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Event> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_seq_ = 1;
}

std::string TraceRecorder::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const Event& event : events_) {
    os << event.ToString() << "\n";
  }
  return os.str();
}

OpScope::OpScope(TraceRecorder& recorder, std::uint32_t thread, std::string op,
                 std::int64_t param)
    : recorder_(recorder),
      thread_(thread),
      op_(std::move(op)),
      param_(param),
      instance_(recorder.NewOpInstance()) {}

OpScope::~OpScope() {
  if (entered_ && !exited_) {
    Exited();
  }
}

void OpScope::Arrived() {
  if (!arrived_) {
    arrived_ = true;
    recorder_.Record(thread_, EventKind::kRequest, op_, instance_, param_);
  }
}

void OpScope::Entered(std::int64_t value) {
  if (!entered_) {
    Arrived();
    entered_ = true;
    recorder_.Record(thread_, EventKind::kEnter, op_, instance_, param_, value);
  }
}

void OpScope::Exited(std::int64_t value) {
  if (!exited_) {
    if (!entered_) {
      Entered(value);
    }
    exited_ = true;
    recorder_.Record(thread_, EventKind::kExit, op_, instance_, param_, value);
  }
}

}  // namespace syneval
