// Fault-path watchdog: turns a protocol deadlock into a debuggable failure.
//
// Every blocking entry point an application thread can wedge in — the
// SIGSEGV fault path and the sync operations (lock acquire, barrier) —
// brackets itself with a Guard. A background thread scans the guard table;
// any guard older than the configured bound means a protocol transaction
// lost its wakeup (a message permanently lost, a state-machine bug), so the
// watchdog prints a diagnostic dump (page-table state, mailbox backlogs,
// in-flight/parked messages — supplied by the runtime as a callback) and
// aborts the process instead of hanging forever. Real fault service is
// microseconds; the default bound is seconds — firing is always a bug or a
// chaos give-up, never a slow run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <thread>
#include <vector>

#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace dsm {

class Watchdog {
 public:
  /// Diagnostic dump callback, invoked (on the watchdog thread) right
  /// before abort. Receives the stream to write the report to.
  using DumpFn = std::function<void(std::ostream&)>;

  /// One watcher per System: one slot per (node, app thread) pair —
  /// `n_nodes * threads_per_node` slots, slot = node * threads_per_node +
  /// tid (see slot_of). `bound_ms == 0` disables the thread entirely.
  Watchdog(std::size_t n_nodes, std::size_t threads_per_node,
           std::uint32_t bound_ms, DumpFn dump);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool enabled() const { return bound_ms_ > 0; }

  /// RAII bracket around one blocking operation on `slot`'s app thread.
  /// Nests (a fault taken inside a release flush) and may close out of
  /// order; cheap: a few relaxed atomic operations each way.
  class Guard {
   public:
    Guard(Watchdog* wd, std::size_t slot, const char* what, std::uint64_t detail);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Watchdog* wd_;
    std::size_t slot_;
    int frame_ = 0;
  };

  /// Convenience factory (no-op guard when `wd` is null or disabled).
  static Guard guard(Watchdog* wd, std::size_t slot, const char* what,
                     std::uint64_t detail) {
    return Guard(wd != nullptr && wd->enabled() ? wd : nullptr, slot, what, detail);
  }

  /// Slot index of app thread `tid` on `node`.
  std::size_t slot_of(NodeId node, ThreadId tid) const {
    return static_cast<std::size_t>(node) * threads_per_node_ + tid;
  }

  /// Records which OS thread currently owns `slot` (0 = vacated), so the
  /// stuck-report and diagnostic dump can name the kernel thread id.
  void bind_thread(std::size_t slot, std::uint32_t ktid);

  /// Kernel tid bound to `slot`, or 0 if none (diagnostic dumps).
  std::uint32_t bound_thread(std::size_t slot) const;

 private:
  static constexpr int kMaxDepth = 4;

  /// One app thread's open blocking operations, one frame per guard; read
  /// by the watchdog thread. Mostly its own thread writes them, but a uffd
  /// executor re-servicing a fault whose thread another wake already
  /// resumed opens its handler's guard here while that thread is back in
  /// its own operation. So each guard claims a free frame (since_ns 0 →
  /// its start), guards close in any order, and the scanner reports the
  /// newest open frame.
  struct Slot {
    struct Frame {
      std::atomic<const char*> what{nullptr};
      std::atomic<std::uint64_t> detail{0};
      std::atomic<std::int64_t> since_ns{0};  // realclock epoch offset; 0 = free
    };
    Frame frames[kMaxDepth];
    std::atomic<std::uint32_t> ktid{0};  ///< OS thread bound to this slot
  };

  int push(std::size_t slot, const char* what, std::uint64_t detail);
  void pop(std::size_t slot, int frame);
  void scan_loop();

  std::uint32_t bound_ms_;
  DumpFn dump_;
  std::size_t threads_per_node_;
  std::vector<Slot> slots_;
  std::atomic<bool> stopping_{false};
  // Guards nothing (the slot table is all-atomic); the mutex exists only as
  // the scanner's interruptible-sleep anchor. It is held across dump_, which
  // reaches the checker and the network's try-lock dump sections, so it must
  // sit above the fabric in the lock order.
  Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar cv_;
  std::thread scanner_;
};

}  // namespace dsm
