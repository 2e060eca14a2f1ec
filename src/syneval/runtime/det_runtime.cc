#include "syneval/runtime/det_runtime.h"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <sstream>
#include <string_view>
#include <utility>

#include "syneval/anomaly/detector.h"
#include "syneval/fault/fault.h"
#include "syneval/telemetry/flight_recorder.h"

#if defined(__SANITIZE_ADDRESS__)
#define SYNEVAL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYNEVAL_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SYNEVAL_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SYNEVAL_TSAN_FIBERS 1
#endif
#endif
#if defined(SYNEVAL_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(SYNEVAL_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace syneval {

namespace {

// Logical thread states. Kept as plain ints in the header to keep Tcb opaque.
enum TcbState : int {
  kReady = 0,
  kRunning = 1,
  kBlockedMutex = 2,
  kBlockedCond = 3,
  kBlockedJoin = 4,
  kFinished = 5,
};

const char* StateName(int state) {
  switch (state) {
    case kReady:
      return "ready";
    case kRunning:
      return "running";
    case kBlockedMutex:
      return "blocked-on-mutex";
    case kBlockedCond:
      return "blocked-on-condvar";
    case kBlockedJoin:
      return "blocked-on-join";
    case kFinished:
      return "finished";
  }
  return "?";
}

// Identity of the managed thread currently executing on this OS thread (type-erased; the
// Tcb type is private to DetRuntime). The driver sets it around each switch.
thread_local void* g_current_det_tcb = nullptr;

// Fiber stacks: one mapping each, guard page included. MAP_NORESERVE because a trial
// touches only the top few pages of a stack.
constexpr std::size_t kFiberStackBytes = 256 * 1024;
constexpr std::size_t kStackCacheCapacity = 16;

std::size_t PageBytes() {
  static const std::size_t bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// Freed stacks kept for the next trial on this OS thread; beyond the capacity they are
// unmapped.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (std::size_t i = 0; i < count_; ++i) {
      munmap(stacks_[i], kFiberStackBytes);
    }
  }

  void* Acquire() {
    if (count_ > 0) {
      return stacks_[--count_];
    }
    void* base = mmap(nullptr, kFiberStackBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) {
      throw std::bad_alloc();
    }
    // The guard sits at the low end, where a stack growing down runs off.
    if (mprotect(base, PageBytes(), PROT_NONE) != 0) {
      munmap(base, kFiberStackBytes);
      throw std::bad_alloc();
    }
    return base;
  }

  void Release(void* base) {
    if (count_ < kStackCacheCapacity) {
      stacks_[count_++] = base;
    } else {
      munmap(base, kFiberStackBytes);
    }
  }

 private:
  void* stacks_[kStackCacheCapacity] = {};
  std::size_t count_ = 0;
};

thread_local StackCache g_stack_cache;

// Owns one fiber stack; empty until the fiber's first step and again once it finished.
class FiberStack {
 public:
  FiberStack() = default;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  ~FiberStack() { Release(); }

  void Acquire() { base_ = g_stack_cache.Acquire(); }
  void Release() {
    if (base_ != nullptr) {
      g_stack_cache.Release(std::exchange(base_, nullptr));
    }
  }
  bool empty() const { return base_ == nullptr; }
  // The usable range, above the guard page.
  void* bottom() const { return static_cast<char*>(base_) + PageBytes(); }
  std::size_t size() const { return kFiberStackBytes - PageBytes(); }

 private:
  void* base_ = nullptr;
};

// The context switch. A FiberContext is what a suspended context resumes from, and
// SwitchFiber(from, to) suspends the caller into `from` and resumes `to`. On x86-64 a
// context is one saved stack pointer: the switch pushes rbp, rbx and r12-r15 and the
// MXCSR and x87 control words onto the departing stack, stores its stack pointer, loads
// the other one and pops the same frame from it. That is everything the System V ABI
// has a call preserve, so a switch makes no syscall; swapcontext also saves and
// restores the signal mask, with an rt_sigprocmask call each way. Elsewhere a context
// is a ucontext_t.
#if defined(__x86_64__)

}  // namespace

extern "C" void syneval_det_switch(void** save_sp, void* load_sp);

asm(R"(
  .pushsection .text
  .p2align 4
  .globl syneval_det_switch
  .hidden syneval_det_switch
  .type syneval_det_switch, @function
syneval_det_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size syneval_det_switch, .-syneval_det_switch
  .popsection
)");

namespace {

struct FiberContext {
  void* sp = nullptr;
};

// Prepares `ctx` so that the first switch to it enters `entry`, which must never
// return, on the stack [bottom, bottom + size). The frame mirrors what the switch
// pops: the current FP control words, six zeroed registers (rbp = 0 ends frame-pointer
// walks), `entry` as the return address, and above it a null return address for
// `entry` itself, where unwinding stops. `entry` starts with the stack aligned as a
// call leaves it.
void MakeFiberContext(FiberContext* ctx, void* bottom, std::size_t size, void (*entry)()) {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_control));
  auto* top = reinterpret_cast<std::uint64_t*>(
      (reinterpret_cast<std::uintptr_t>(bottom) + size) & ~std::uintptr_t{15});
  std::uint64_t* frame = top - 9;
  frame[0] = mxcsr | (std::uint64_t{x87_control} << 32);
  for (int i = 1; i <= 6; ++i) {
    frame[i] = 0;  // r15, r14, r13, r12, rbx, rbp.
  }
  frame[7] = reinterpret_cast<std::uint64_t>(entry);
  frame[8] = 0;
  ctx->sp = frame;
}

void SwitchFiber(FiberContext* from, FiberContext* to) { syneval_det_switch(&from->sp, to->sp); }

#else

struct FiberContext {
  ucontext_t uc{};
};

void MakeFiberContext(FiberContext* ctx, void* bottom, std::size_t size, void (*entry)()) {
  getcontext(&ctx->uc);
  ctx->uc.uc_stack.ss_sp = bottom;
  ctx->uc.uc_stack.ss_size = size;
  ctx->uc.uc_link = nullptr;
  makecontext(&ctx->uc, entry, 0);
}

void SwitchFiber(FiberContext* from, FiberContext* to) { swapcontext(&from->uc, &to->uc); }

#endif

// Sanitizer hooks bracketing every switch; no-ops in plain builds. ASan must learn the
// stack being entered, or an exception thrown on a fiber unpoisons the wrong range; a
// null `fake_stack_save` tells it the departing fiber is gone for good, so it frees
// that fiber's fake stack. TSan keeps one shadow stack per fiber.
void BeginSwitch([[maybe_unused]] void** fake_stack_save, [[maybe_unused]] const void* bottom,
                 [[maybe_unused]] std::size_t size, [[maybe_unused]] void* tsan_target) {
#if defined(SYNEVAL_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
#if defined(SYNEVAL_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_target, 0);
#endif
}

void EndSwitch([[maybe_unused]] void* fake_stack_save,
               [[maybe_unused]] const void** bottom_old,
               [[maybe_unused]] std::size_t* size_old) {
#if defined(SYNEVAL_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

}  // namespace

struct DetRuntime::Tcb {
  DetRuntime* rt = nullptr;
  std::uint32_t id = 0;
  std::string name;
  int state = kReady;
  std::uint64_t ready_since = 0;
  // Timed condition waits (WaitFor): absolute step at which the driver force-wakes the
  // thread (0 = untimed), and whether the last wake was that deadline rather than a
  // notification. Owned by the waiting thread; the driver only reads wake_deadline and
  // sets timed_out while the thread is parked in kBlockedCond.
  std::uint64_t wake_deadline = 0;
  bool timed_out = false;
  const void* wait_object = nullptr;
  std::string wait_desc;
  std::vector<Tcb*> joiners;
  std::function<void()> body;

  // The fiber, and the driver context it switches back to.
  FiberStack stack;
  FiberContext fiber;
  FiberContext driver;
  // Sanitizer switch state (see BeginSwitch).
  void* asan_fake_stack = nullptr;
  const void* driver_stack_bottom = nullptr;
  std::size_t driver_stack_size = 0;
  void* tsan_fiber = nullptr;
  void* tsan_driver = nullptr;
};

// ---------------------------------------------------------------------------------------
// Primitives. Only one managed thread runs at a time, all on the driver's OS thread, so
// their fields need no lock.

class DetRuntime::DetMutex : public RtMutex {
 public:
  explicit DetMutex(DetRuntime* rt) : rt_(rt) {}

  // Sentinel owner for acquisitions from the unmanaged driver thread while the
  // scheduler is idle (introspection before/after Run()): there is no concurrency
  // then, so acquisition is immediate.
  static Tcb* ExternalOwner() { return reinterpret_cast<Tcb*>(-1); }

  void Lock() override {
    if (g_current_det_tcb == nullptr) {
      // Unmanaged caller (e.g. a test inspecting state after Run()): legal only while
      // the scheduler is idle, where the lock is guaranteed free.
      assert(!rt_->running_ && "DetMutex::Lock from an unmanaged thread during Run()");
      assert(holder_ == nullptr && "DetMutex::Lock: lock leaked by a managed thread");
      holder_ = ExternalOwner();
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    if (rt_->abort_) {
      return;  // Teardown mode: never block, never mutate logical state.
    }
    if (rt_->options_.preempt_before_lock) {
      rt_->SwitchOut(self, kReady, nullptr, "preempt before lock");
    }
    if (FaultDecision fault = rt_->Decide(self, FaultSite::kLockPre)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Before contending: the thread dies holding nothing extra.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kDelayLock) {
        for (std::uint64_t i = 0; i < fault.steps && !rt_->abort_; ++i) {
          rt_->SwitchOut(self, kReady, nullptr, "fault: delay-lock");
        }
      }
    }
    AnomalyDetector* det = rt_->anomaly_detector();
    FlightRecorder* flight = rt_->flight_recorder();
    while (holder_ != nullptr) {
      waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, this);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kBlock, this, rt_->NowNanos());
      }
      rt_->SwitchOut(self, kBlockedMutex, this, "mutex (held by " + holder_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, this);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kWake, this, rt_->NowNanos());
      }
    }
    holder_ = self;
    if (det != nullptr) {
      det->OnAcquire(self->id, this);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kAcquire, this, rt_->NowNanos());
    }
    if (FaultDecision fault = rt_->Decide(self, FaultSite::kLockPost)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Mid-protocol death: the thread dies owning this mutex. Lock() throws before
        // any RAII holder is constructed, so nothing ever unlocks it — peers block on
        // a lock whose owner is finished, which is exactly the damage being modelled.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kStall) {
        // Hold the lock for `steps` scheduler steps doing nothing. The staller stays
        // runnable (no deadlock), but every peer needing this lock starves meanwhile.
        for (std::uint64_t i = 0; i < fault.steps && !rt_->abort_; ++i) {
          rt_->SwitchOut(self, kReady, nullptr, "fault: stall in critical section");
        }
      }
    }
  }

  void Unlock() override {
    if (g_current_det_tcb == nullptr) {
      assert(holder_ == ExternalOwner() && "DetMutex::Unlock from an unexpected thread");
      holder_ = nullptr;
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    if (rt_->abort_) {
      return;
    }
    assert(holder_ == self && "DetMutex::Unlock by non-owner");
    holder_ = nullptr;
    if (AnomalyDetector* det = rt_->anomaly_detector()) {
      det->OnRelease(self->id, this);
    }
    if (FlightRecorder* flight = rt_->flight_recorder()) {
      flight->Record(self->id, FlightEventType::kRelease, this, rt_->NowNanos());
    }
    for (Tcb* waiter : waiters_) {
      rt_->MakeReady(waiter);
    }
    waiters_.clear();
  }

  DetRuntime* rt_;
  Tcb* holder_ = nullptr;
  std::vector<Tcb*> waiters_;
};

class DetRuntime::DetCondVar : public RtCondVar {
 public:
  explicit DetCondVar(DetRuntime* rt) : rt_(rt) {}

  void Wait(RtMutex& mutex) override { WaitCommon(mutex, /*timeout_nanos=*/0); }

  bool WaitFor(RtMutex& mutex, std::uint64_t timeout_nanos) override {
    return WaitCommon(mutex, timeout_nanos == 0 ? 1 : timeout_nanos);
  }

  void NotifyOne() override { Notify(/*all=*/false); }
  void NotifyAll() override { Notify(/*all=*/true); }

 private:
  // Shared Wait/WaitFor body. timeout_nanos == 0 means untimed; otherwise the wait is
  // bounded by a virtual-step budget of ceil(timeout_nanos / 1000) scheduler steps
  // (DetRuntime's NowNanos is step_ * 1000). Returns false iff the deadline fired.
  bool WaitCommon(RtMutex& mutex, std::uint64_t timeout_nanos) {
    Tcb* self = rt_->CurrentTcbChecked();
    auto* m = static_cast<DetMutex*>(&mutex);
    if (rt_->abort_) {
      return true;
    }
    assert(m->holder_ == self && "RtCondVar::Wait without holding the mutex");
    AnomalyDetector* det = rt_->anomaly_detector();
    FlightRecorder* flight = rt_->flight_recorder();
    bool spurious = false;
    if (FaultDecision fault = rt_->Decide(self, FaultSite::kWait)) {
      if (fault.kind == FaultKind::kKillThread) {
        // Thrown before the mutex is surrendered: the thread dies owning it.
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kSpuriousWakeup) {
        spurious = true;
      }
    }
    // Atomically release the mutex and join the wait set.
    m->holder_ = nullptr;
    if (det != nullptr) {
      det->OnRelease(self->id, m);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kRelease, m, rt_->NowNanos());
    }
    for (Tcb* waiter : m->waiters_) {
      rt_->MakeReady(waiter);
    }
    m->waiters_.clear();
    bool notified = true;
    if (spurious) {
      // Spurious-wakeup fault: park for one scheduling step and resume without ever
      // joining the wait set — no signal exists and none is consumed, which is what
      // makes the wakeup spurious to detector and telemetry alike.
      rt_->SwitchOut(self, kReady, nullptr, "fault: spurious wakeup");
    } else {
      waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, this);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kBlock, this, rt_->NowNanos());
      }
      if (timeout_nanos > 0) {
        const std::uint64_t budget = (timeout_nanos + 999) / 1000;
        self->wake_deadline = rt_->step_ + (budget == 0 ? 1 : budget);
        self->timed_out = false;
      }
      rt_->SwitchOut(self, kBlockedCond, this,
                     timeout_nanos > 0 ? "condvar (timed)" : "condvar");
      if (timeout_nanos > 0) {
        notified = !self->timed_out;
        self->wake_deadline = 0;
        self->timed_out = false;
        if (!notified) {
          // Deadline wake: leave the wait set ourselves (a notification that raced in
          // between the deadline and this cleanup may already have removed us).
          auto it = std::find(waiters_.begin(), waiters_.end(), self);
          if (it != waiters_.end()) {
            waiters_.erase(it);
          }
        }
      }
      if (det != nullptr) {
        det->OnWake(self->id, this);
      }
      if (flight != nullptr) {
        // arg = 1 when the wake was a notification, 0 when the deadline fired.
        flight->Record(self->id, FlightEventType::kWake, this, rt_->NowNanos(),
                       notified ? 1 : 0);
      }
    }
    // Re-acquire the mutex before returning (possibly blocking again).
    while (m->holder_ != nullptr) {
      m->waiters_.push_back(self);
      if (det != nullptr) {
        det->OnBlock(self->id, m);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kBlock, m, rt_->NowNanos());
      }
      rt_->SwitchOut(self, kBlockedMutex, m,
                     "mutex reacquire (held by " + m->holder_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, m);
      }
      if (flight != nullptr) {
        flight->Record(self->id, FlightEventType::kWake, m, rt_->NowNanos());
      }
    }
    m->holder_ = self;
    if (det != nullptr) {
      det->OnAcquire(self->id, m);
    }
    if (flight != nullptr) {
      flight->Record(self->id, FlightEventType::kAcquire, m, rt_->NowNanos());
    }
    return notified;
  }

  void Notify(bool all) {
    if (g_current_det_tcb == nullptr) {
      // Unmanaged caller while the scheduler is idle: just mark waiters runnable.
      assert(!rt_->running_ && "RtCondVar notify from an unmanaged thread during Run()");
      for (Tcb* waiter : waiters_) {
        rt_->MakeReady(waiter);
      }
      waiters_.clear();
      return;
    }
    Tcb* self = rt_->CurrentTcbChecked();
    if (rt_->abort_) {
      return;
    }
    if (FaultDecision fault =
            rt_->Decide(self, all ? FaultSite::kNotifyAll : FaultSite::kNotifyOne)) {
      if (fault.kind == FaultKind::kKillThread) {
        throw ThreadKilledFault{};
      }
      if (fault.kind == FaultKind::kDropSignal) {
        // The notify vanishes below the mechanism: no waiter wakes and neither the
        // detector's signal accounting nor the flight recorder (whose kSignal draws
        // the trace's flow edge) ever sees it — a ground-truth lost signal the
        // detector must infer from its consequences.
        return;
      }
    }
    if (AnomalyDetector* det = rt_->anomaly_detector()) {
      det->OnSignal(self->id, this, static_cast<int>(waiters_.size()), all);
    }
    if (FlightRecorder* flight = rt_->flight_recorder()) {
      // arg = waiters before delivery: a signal with arg 0 fell on an empty queue —
      // the seed of every lost wakeup the postmortem explains.
      flight->Record(self->id,
                     all ? FlightEventType::kBroadcast : FlightEventType::kSignal, this,
                     rt_->NowNanos(), waiters_.size());
    }
    if (all) {
      for (Tcb* waiter : waiters_) {
        rt_->MakeReady(waiter);
      }
      waiters_.clear();
    } else {
      // Deliver to the first waiter still blocked. Entries that already timed out (the
      // driver made them ready but they have not yet run and removed themselves) no
      // longer count as waiters; dropping them here mirrors their own cleanup.
      while (!waiters_.empty()) {
        Tcb* waiter = waiters_.front();
        waiters_.pop_front();
        if (waiter->state == kBlockedCond) {
          rt_->MakeReady(waiter);
          break;
        }
      }
    }
    if (rt_->options_.preempt_after_notify) {
      rt_->SwitchOut(self, kReady, nullptr, "preempt after notify");
    }
  }

  DetRuntime* rt_;
  std::deque<Tcb*> waiters_;
};

class DetRuntime::DetThread : public RtThread {
 public:
  DetThread(DetRuntime* rt, Tcb* tcb) : rt_(rt), tcb_(tcb) {}

  void Join() override {
    void* raw = g_current_det_tcb;
    if (raw != nullptr) {
      // Join from a managed thread: block until the target finishes.
      Tcb* self = static_cast<Tcb*>(raw);
      if (rt_->abort_ || tcb_->state == kFinished) {
        return;
      }
      tcb_->joiners.push_back(self);
      AnomalyDetector* det = rt_->anomaly_detector();
      if (det != nullptr) {
        det->OnBlock(self->id, tcb_);
      }
      rt_->SwitchOut(self, kBlockedJoin, tcb_, "join(" + tcb_->name + ")");
      if (det != nullptr) {
        det->OnWake(self->id, tcb_);
      }
    } else {
      // Join from the unmanaged driver thread: only meaningful after Run() returned, at
      // which point every managed thread has finished.
      assert(!rt_->running_ && "DetThread::Join from the driver while Run() is active");
      assert((tcb_->state == kFinished || !rt_->ran_) &&
             "DetThread::Join from the driver before Run()");
    }
  }

  std::uint32_t id() const override { return tcb_->id; }

 private:
  DetRuntime* rt_;
  Tcb* tcb_;
};

// ---------------------------------------------------------------------------------------

DetRuntime::DetRuntime(std::unique_ptr<Schedule> schedule)
    : DetRuntime(std::move(schedule), Options()) {}

DetRuntime::DetRuntime(std::unique_ptr<Schedule> schedule, Options options)
    : schedule_(std::move(schedule)), options_(options) {}

DetRuntime::~DetRuntime() {
  // If Run() was never called (or an exception escaped it), unwind any parked threads.
  const bool all_finished = std::all_of(threads_.begin(), threads_.end(),
                                        [](const auto& tcb) { return tcb->state == kFinished; });
  if (all_finished) {
    // Nothing to silence. After a finished Run() the detector is left alone: trials
    // usually declare it after the runtime, so it is gone by now.
    return;
  }
  if (AnomalyDetector* det = anomaly_detector()) {
    det->SetAborting(true);
  }
  UnwindThreads();
}

std::unique_ptr<RtMutex> DetRuntime::CreateMutex() {
  auto mutex = std::make_unique<DetMutex>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(mutex.get(), ResourceKind::kLock, "mutex");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(mutex.get(), "mutex");
  }
  return mutex;
}

std::unique_ptr<RtCondVar> DetRuntime::CreateCondVar() {
  auto cv = std::make_unique<DetCondVar>(this);
  if (AnomalyDetector* det = anomaly_detector()) {
    det->RegisterResource(cv.get(), ResourceKind::kCondition, "condvar");
  }
  if (FlightRecorder* flight = flight_recorder()) {
    flight->RegisterName(cv.get(), "condvar");
  }
  return cv;
}

std::unique_ptr<RtThread> DetRuntime::StartThread(std::string name,
                                                  std::function<void()> body) {
  auto tcb = std::make_unique<Tcb>();
  Tcb* raw = tcb.get();
  raw->rt = this;
  raw->id = static_cast<std::uint32_t>(threads_.size()) + 1;
  raw->name = std::move(name);
  raw->body = std::move(body);
  raw->ready_since = step_;
  if (abort_) {
    raw->state = kFinished;  // Too late to run anything.
  } else {
    raw->state = kReady;
    if (AnomalyDetector* det = anomaly_detector()) {
      // A thread is modelled as a lock held by itself for its lifetime, so Join()
      // participates in the wait-for graph like any other acquisition.
      det->RegisterThread(raw->id, raw->name);
      det->RegisterResource(raw, ResourceKind::kLock, "thread:" + raw->name);
      det->OnAcquire(raw->id, raw);
    }
  }
  threads_.push_back(std::move(tcb));
  return std::make_unique<DetThread>(this, raw);
}

void DetRuntime::Yield() {
  Tcb* self = CurrentTcbChecked();
  if (abort_) {
    return;
  }
  SwitchOut(self, kReady, nullptr, "yield");
}

std::uint32_t DetRuntime::CurrentThreadId() {
  void* raw = g_current_det_tcb;
  return raw == nullptr ? 0 : static_cast<Tcb*>(raw)->id;
}

std::uint64_t DetRuntime::NowNanos() { return step_ * 1000; }

DetRuntime::RunResult DetRuntime::Run() {
  RunResult result;
  assert(!ran_ && "DetRuntime::Run() may be called at most once");
  ran_ = true;
  running_ = true;

  std::vector<Tcb*> ready;
  std::vector<SchedCandidate> candidates;
  while (true) {
    if (abort_requested_.load()) {
      // Supervisor-requested end-of-run. The driver holds control, so every
      // non-finished thread is parked at a scheduling point and the wait-for state is
      // diagnosable, exactly as on the deadlock path.
      result.aborted = true;
      result.report = BuildStuckReport("aborted by supervisor");
      if (AnomalyDetector* det = anomaly_detector()) {
        det->DiagnoseStuck();
        for (const Anomaly& anomaly : det->anomalies()) {
          result.report += "  " + anomaly.ToString() + "\n";
        }
      }
      break;
    }
    WakeExpiredTimedWaiters();
    ready.clear();
    candidates.clear();
    bool all_finished = true;
    for (auto& tcb : threads_) {
      if (tcb->state == kReady) {
        ready.push_back(tcb.get());
        candidates.push_back(SchedCandidate{tcb->id, tcb->ready_since});
      }
      if (tcb->state != kFinished) {
        all_finished = false;
      }
    }
    if (ready.empty()) {
      if (all_finished) {
        result.completed = true;
        break;
      }
      // Timed waiters are not deadlocked — their deadlines will fire. With nothing
      // else runnable, jump the virtual clock to the earliest deadline (the analogue
      // of an OS sleeping until the next timer) and re-evaluate. If that deadline
      // lies beyond max_steps, the jump lands there and the step-limit check below
      // ends the run on the next iteration.
      std::uint64_t next_deadline = 0;
      for (auto& tcb : threads_) {
        if (tcb->state == kBlockedCond && tcb->wake_deadline != 0 &&
            (next_deadline == 0 || tcb->wake_deadline < next_deadline)) {
          next_deadline = tcb->wake_deadline;
        }
      }
      if (next_deadline > step_) {
        step_ = next_deadline;
        continue;
      }
      result.deadlocked = true;
      result.report = BuildStuckReport("deadlock: no runnable threads");
      if (AnomalyDetector* det = anomaly_detector()) {
        // Exact diagnosis: every thread is parked at a scheduling point, so the
        // wait-for graph is complete and the classification has no false positives.
        det->DiagnoseStuck();
        for (const Anomaly& anomaly : det->anomalies()) {
          result.report += "  " + anomaly.ToString() + "\n";
        }
      }
      break;
    }
    if (step_ >= options_.max_steps) {
      result.step_limit = true;
      result.report = BuildStuckReport("step limit exceeded (possible livelock)");
      if (options_.diagnose_on_step_limit) {
        if (AnomalyDetector* det = anomaly_detector()) {
          // Every *blocked* thread is parked at a scheduling point, so classifying
          // those remains sound; the runnable threads that kept the clock advancing
          // are simply not classified (see Options::diagnose_on_step_limit).
          det->DiagnoseStuck();
          for (const Anomaly& anomaly : det->anomalies()) {
            result.report += "  " + anomaly.ToString() + "\n";
          }
        }
      }
      break;
    }
    ++step_;
    const std::size_t index = schedule_->Pick(candidates, step_);
    Tcb* chosen = ready[index < ready.size() ? index : 0];
    chosen->state = kRunning;
    Resume(chosen);
  }

  if (!result.completed) {
    // Teardown: unwind every stuck thread. Push the aborting state to the detector
    // first — teardown unwinding (and any faults still firing during it) must not be
    // observed, or kill-during-teardown plans would be double-counted as lost wakeups
    // on top of the diagnosis above. The flight recorder is frozen for the same
    // reason: the postmortem's event window ends at the diagnosis.
    if (AnomalyDetector* det = anomaly_detector()) {
      det->SetAborting(true);
    }
    if (FlightRecorder* flight = flight_recorder()) {
      flight->Freeze();
    }
    UnwindThreads();
  }
  running_ = false;
  result.steps = step_;
  return result;
}

bool DetRuntime::Aborting() const { return abort_; }

void DetRuntime::RequestAbort() {
  // The driver acts on the flag at its next scheduling decision — i.e. as soon as the
  // currently running managed thread (if any) reaches a scheduling point.
  abort_requested_.store(true);
}

void DetRuntime::FiberMain() noexcept {
  Tcb* tcb = static_cast<Tcb*>(g_current_det_tcb);
  EndSwitch(nullptr, &tcb->driver_stack_bottom, &tcb->driver_stack_size);
  try {
    tcb->body();
  } catch (const AbortException&) {
    // Unwound during teardown; fall through to the finished transition.
  } catch (const ThreadKilledFault&) {
    // Killed by an injected kill-thread fault. RAII destructors between the injection
    // site and here have already run (releasing locks they guard); anything acquired
    // without a live guard — notably a DetMutex killed inside its own Lock() — stays
    // held forever, which is the modelled damage.
  }
  tcb->rt->FinishThread(tcb);
  // Final exit: a null fake-stack slot lets ASan free this fiber's fake stack. The
  // driver never resumes this context.
  BeginSwitch(nullptr, tcb->driver_stack_bottom, tcb->driver_stack_size, tcb->tsan_driver);
  SwitchFiber(&tcb->fiber, &tcb->driver);
  __builtin_unreachable();
}

void DetRuntime::Resume(Tcb* tcb) {
  if (tcb->stack.empty()) {
    tcb->stack.Acquire();
#if defined(SYNEVAL_ASAN_FIBERS)
    // A reused stack still carries the shadow of its last fiber's frames, which the
    // initial frame would trip over.
    __asan_unpoison_memory_region(tcb->stack.bottom(), tcb->stack.size());
#endif
    MakeFiberContext(&tcb->fiber, tcb->stack.bottom(), tcb->stack.size(),
                     &DetRuntime::FiberMain);
#if defined(SYNEVAL_TSAN_FIBERS)
    tcb->tsan_fiber = __tsan_create_fiber(0);
#endif
  }
#if defined(SYNEVAL_TSAN_FIBERS)
  tcb->tsan_driver = __tsan_get_current_fiber();
#endif
  void* const previous = std::exchange(g_current_det_tcb, tcb);
  void* driver_fake_stack = nullptr;
  BeginSwitch(&driver_fake_stack, tcb->stack.bottom(), tcb->stack.size(), tcb->tsan_fiber);
  SwitchFiber(&tcb->driver, &tcb->fiber);
  EndSwitch(driver_fake_stack, nullptr, nullptr);
  g_current_det_tcb = previous;
  if (tcb->state == kFinished) {
#if defined(SYNEVAL_TSAN_FIBERS)
    __tsan_destroy_fiber(tcb->tsan_fiber);
    tcb->tsan_fiber = nullptr;
#endif
    tcb->stack.Release();
  }
}

void DetRuntime::SwitchOut(Tcb* tcb, int state, const void* wait_object,
                           std::string_view wait_desc) {
  if (abort_) {
    throw AbortException{};
  }
  tcb->state = state;
  tcb->wait_object = wait_object;
  tcb->wait_desc.assign(wait_desc);  // Reuses the buffer: no allocation per step.
  if (state == kReady) {
    tcb->ready_since = step_;
  }
  BeginSwitch(&tcb->asan_fake_stack, tcb->driver_stack_bottom, tcb->driver_stack_size,
              tcb->tsan_driver);
  SwitchFiber(&tcb->fiber, &tcb->driver);
  EndSwitch(tcb->asan_fake_stack, &tcb->driver_stack_bottom, &tcb->driver_stack_size);
  if (abort_) {
    throw AbortException{};
  }
  // The driver set state to kRunning when it chose this thread.
  tcb->wait_object = nullptr;
  tcb->wait_desc.clear();
}

void DetRuntime::FinishThread(Tcb* tcb) {
  tcb->state = kFinished;
  if (AnomalyDetector* det = anomaly_detector()) {
    det->OnRelease(tcb->id, tcb);
    det->OnThreadFinish(tcb->id);
  }
  for (Tcb* joiner : tcb->joiners) {
    MakeReady(joiner);
  }
  tcb->joiners.clear();
}

void DetRuntime::UnwindThreads() {
  abort_ = true;
  // By index: an unwinding thread may still call StartThread, which appends a thread
  // born finished.
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    Tcb* tcb = threads_[i].get();
    if (tcb->state == kFinished) {
      continue;
    }
    if (tcb->stack.empty()) {
      FinishThread(tcb);  // Never ran: there is no stack to unwind.
    } else {
      Resume(tcb);  // Its SwitchOut throws AbortException on the fiber's own stack.
    }
    assert(tcb->state == kFinished && "a managed thread survived teardown");
  }
}

FaultDecision DetRuntime::Decide(Tcb* tcb, FaultSite site) {
  FaultInjector* injector = fault_injector();
  if (injector == nullptr || abort_) {
    return FaultDecision{};
  }
  return injector->Decide(site, tcb->id, NowNanos());
}

void DetRuntime::WakeExpiredTimedWaiters() {
  for (auto& tcb : threads_) {
    if (tcb->state == kBlockedCond && tcb->wake_deadline != 0 && step_ >= tcb->wake_deadline) {
      // The waiter resumes with timed_out set and removes itself from its condvar's
      // wait set (see DetCondVar::WaitCommon); the driver never touches that deque.
      tcb->timed_out = true;
      tcb->state = kReady;
      tcb->ready_since = step_;
    }
  }
}

void DetRuntime::MakeReady(Tcb* tcb) {
  if (tcb->state == kBlockedMutex || tcb->state == kBlockedCond || tcb->state == kBlockedJoin) {
    tcb->state = kReady;
    tcb->ready_since = step_;
  }
}

DetRuntime::Tcb* DetRuntime::CurrentTcbChecked() const {
  void* raw = g_current_det_tcb;
  assert(raw != nullptr && "blocking DetRuntime primitive used from an unmanaged thread");
  return static_cast<Tcb*>(raw);
}

std::string DetRuntime::BuildStuckReport(const char* reason) {
  std::ostringstream os;
  os << reason << " after " << step_ << " steps (schedule: " << schedule_->Describe() << ")\n";
  for (auto& tcb : threads_) {
    if (tcb->state == kFinished) {
      continue;
    }
    os << "  t" << tcb->id << " '" << tcb->name << "': " << StateName(tcb->state);
    if (!tcb->wait_desc.empty()) {
      os << " [" << tcb->wait_desc << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace syneval
