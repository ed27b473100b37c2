// dsmcheck: in-fabric verification of the DSM's two correctness contracts.
//
//  1. The *program* contract — data-race freedom. A FastTrack-style detector
//     keyed by the faulting address builds per-word epochs from the sync
//     layer's release/acquire and barrier edges and reports any pair of
//     conflicting accesses not ordered by happens-before. It observes only
//     accesses that fault (a page already mapped with sufficient rights is
//     invisible), so it under-approximates: every report is a real race, but
//     silence is not a proof. See DESIGN.md "dsmcheck".
//
//  2. The *protocol* contract — coherence invariants. State-transition hooks
//     in src/proto mirror every page-state assignment so the checker can
//     assert SWMR (IVY family: never two writable copies), copyset soundness
//     (holders ⊆ manager/home copyset), version and vector-clock monotonicity
//     (ERC/EC/LRC/HLRC), lock-token uniqueness (sync layer), and strict
//     per-link delivery order (reliable transport).
//
// Gated by Config::check_level: kOff constructs no checker at all (the hook
// sites test a null pointer — zero overhead), kCount records violations in
// check.* counters and keeps running, kAssert prints a report plus the
// watchdog-style diagnostic dump and aborts on the first violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/check_level.hpp"
#include "common/bitset.hpp"
#include "common/lock_order.hpp"
#include "common/thread_annotations.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/vclock.hpp"
#include "mem/page_table.hpp"
#include "net/message.hpp"

namespace dsm {

class DsmChecker {
 public:
  /// Which flavour of critical section a lock hook reports. Write sections
  /// (a mutex's included) are exclusive; read sections may overlap each other.
  enum class LockMode : std::uint8_t { kRead, kWrite };

  /// Static wiring. The checker deliberately knows nothing about System or
  /// the protocol classes: the runtime distills what it needs into traits
  /// and callbacks, so src/check sits below src/proto, src/sync, src/core.
  struct Setup {
    std::size_t n_nodes = 0;
    std::size_t n_pages = 0;
    std::size_t page_size = 0;
    std::size_t n_locks = 0;
    std::size_t n_barriers = 0;
    CheckLevel level = CheckLevel::kCount;

    /// Protocol traits (see DESIGN.md "dsmcheck: invariant catalogue").
    bool swmr = false;          ///< IVY family: strict single-writer
    bool ivy_dynamic = false;   ///< owner found via is_owner, not a manager
    bool home_copyset = false;  ///< ERC: home tracks all non-home holders
    bool quorum = false;        ///< QRC: tagged quorum writes (acked-floor check)
    const char* protocol = "";

    /// Manager of a page (IVY central/fixed); unset for other protocols.
    std::function<NodeId(PageId)> manager_of;
    /// Static home of a page (ERC copyset checks).
    std::function<NodeId(PageId)> home_of;

    StatsRegistry* stats = nullptr;
    /// Full diagnostic dump (the watchdog path) emitted before an
    /// assert-mode abort. May be empty.
    std::function<void(std::ostream&)> dump;
  };

  explicit DsmChecker(Setup setup);

  // --- data-race detector (called from the fault path) -------------------
  /// One faulting access by app thread `tid` of `node` to `offset` within
  /// `page`. Granularity is the aligned 8-byte word, so false sharing within
  /// a word is the only source of over-reporting (and none of the repo's
  /// workloads pack unrelated data into one word). Epochs are kept per
  /// (node, thread) unit, so two app threads of one node race with each
  /// other exactly like two nodes do unless a lock or barrier orders them.
  void on_access(NodeId node, ThreadId tid, PageId page, std::size_t offset,
                 bool is_write);
  /// Single-thread convenience (tid 0) — the historical entry point.
  void on_access(NodeId node, PageId page, std::size_t offset, bool is_write) {
    on_access(node, 0, page, offset, is_write);
  }

  // --- happens-before edges (called from the sync agent) -----------------
  // Occupancy (token uniqueness, reader/writer exclusion) stays node-level —
  // the token lives per node and the sync agent serializes a node's app
  // threads through it — but the happens-before merge/tick applies to the
  // calling thread's (node, tid) unit, so lock chains order exactly the
  // threads that traversed them. The tid-less overloads are the historical
  // single-thread entry points (tid 0).
  void on_lock_acquired(NodeId node, ThreadId tid, LockId lock, LockMode mode);
  void on_lock_released(NodeId node, ThreadId tid, LockId lock, LockMode mode);
  void on_barrier_arrive(NodeId node, ThreadId tid, BarrierId barrier);
  void on_barrier_depart(NodeId node, ThreadId tid, BarrierId barrier);
  void on_lock_acquired(NodeId node, LockId lock, LockMode mode) {
    on_lock_acquired(node, 0, lock, mode);
  }
  void on_lock_released(NodeId node, LockId lock, LockMode mode) {
    on_lock_released(node, 0, lock, mode);
  }
  void on_barrier_arrive(NodeId node, BarrierId barrier) {
    on_barrier_arrive(node, 0, barrier);
  }
  void on_barrier_depart(NodeId node, BarrierId barrier) {
    on_barrier_depart(node, 0, barrier);
  }

  // --- protocol invariant hooks (called from src/proto) ------------------
  /// Mirror of every PageEntry::state assignment; checks SWMR for IVY.
  void on_page_state(NodeId node, PageId page, PageState state);
  /// ERC home version: must be strictly increasing per (node, page).
  void on_page_version(NodeId node, PageId page, std::uint32_t version);
  /// EC per-lock data version: must be non-decreasing per (node, lock).
  void on_lock_version(NodeId node, LockId lock, std::uint64_t version);
  /// LRC/HLRC node vector clock after a mutation: must dominate its
  /// previous value (intervals only ever advance).
  void on_vclock(NodeId node, const VectorClock& vc);

  // --- crash fault tolerance hooks (called from runtime/proto/sync) -------
  /// A quorum write on `page` was acknowledged to its writer at `tag`:
  /// raises the page's acked floor. Any later serve below the floor is an
  /// acknowledged write lost to a crash — the central FT invariant.
  void on_quorum_ack(PageId page, std::uint64_t tag);
  /// A (possibly failed-over) primary served `page` at `tag`.
  void on_quorum_serve(PageId page, std::uint64_t tag);
  /// The lock home regenerated `lock`'s token after holder `dead` crashed.
  /// Must happen at most once per (lock, dead node, incarnation): a second
  /// regeneration would mint two tokens.
  void on_token_regenerated(LockId lock, NodeId dead);
  /// `node` was killed: its occupancy/mirror state is frozen; structural
  /// end-of-run passes that assume a full fleet are relaxed. The death is a
  /// sync edge: every later barrier departure is ordered after the victim's
  /// last release (its released writes were acknowledged before it died),
  /// while its writes after that release stay unordered.
  void on_node_killed(NodeId node);
  /// `node` restarted with a wiped memory fabric: reset its state mirror to
  /// all-invalid and let every link touching it adopt the next seen seq.
  void on_node_restarted(NodeId node);

  // --- fabric hook (called from Network::deliver) ------------------------
  /// Strict per-(src,dst) sequence contiguity for reliable traffic; the
  /// reliable sublayer promises dedup + in-order reassembly, so any gap or
  /// repeat here is a transport bug. Messages with kNoSeq (loopback,
  /// control, reliability off) are ignored.
  void on_deliver(const Message& msg);
  /// Called once per accepted kBatch envelope (before its inner messages
  /// are delivered): the envelope must land exactly on the link's next
  /// expected seq and cover a contiguous inner range — the subsequent
  /// per-inner on_deliver calls then advance the link cursor one by one.
  void on_batch(const Message& envelope, std::uint32_t count);

  // --- end-of-run structural checks --------------------------------------
  /// Called by System::run after all service threads have joined. Compares
  /// the state mirror against each node's real page table (catches missed
  /// instrumentation) and walks copysets against actual holders.
  /// Analysis suppressed (false positive): the fleet is quiescent — every
  /// app/service/daemon thread has joined — so the lock-free reads of other
  /// nodes' PageEntry fields here cannot race with anything.
  void at_quiescence(const std::vector<const PageTable*>& tables)
      NO_THREAD_SAFETY_ANALYSIS;

  std::uint64_t violations() const;
  std::string last_violation() const;
  /// Appends the last violation (if any) to a diagnostic dump, so a
  /// watchdog abort shows the coherence state that caused it.
  void dump_last_violation(std::ostream& os) const;

 private:
  /// No (node, thread) unit — see unit_of.
  static constexpr std::size_t kNoUnit = ~std::size_t{0};

  /// FastTrack-style per-word epochs. `write_clock`/`write_unit` is the
  /// epoch of the last write; `read_clocks[u]` the clock of unit u's last
  /// read. A clock of 0 means "never" (unit clocks start at 1).
  struct WordState {
    std::size_t write_unit = kNoUnit;
    std::uint32_t write_clock = 0;
    std::vector<std::uint32_t> read_clocks;
  };

  /// Per-(barrier, generation) rendezvous. The barrier home releases only
  /// after all N arrivals, so by the time any depart hook runs the
  /// accumulator holds every participant's clock.
  struct Round {
    VectorClock acc;
    std::size_t arrivals = 0;
    std::size_t departures = 0;
  };

  /// Lock occupancy per lock: at most one exclusive holder; readers may
  /// share only with each other.
  struct LockOccupancy {
    NodeId exclusive = kNoNode;
    NodeSet readers;
  };

  void report(Counter& category, const std::string& text, bool dump_ok)
      REQUIRES(mutex_);

  /// Race-detector clock index of app thread `tid` on `node`. Units are
  /// dense — every node reserves kMaxAppThreads slots whether or not the run
  /// attaches extra threads — so single-thread runs simply never touch the
  /// tid > 0 slots and their reports stay byte-identical to the historical
  /// per-node detector.
  static std::size_t unit_of(NodeId node, ThreadId tid) {
    return static_cast<std::size_t>(node) * kMaxAppThreads + tid;
  }
  /// "node N" for a primary unit, "node N (thread T)" for a sibling.
  static std::string actor(std::size_t unit);
  /// "C@N" for a primary unit, "C@N.T" for a sibling.
  static std::string epoch(std::size_t unit, std::uint32_t clock);

  const std::size_t n_nodes_;
  const std::size_t n_units_;  ///< n_nodes_ * kMaxAppThreads
  const std::size_t n_pages_;
  const std::size_t page_size_;
  const CheckLevel level_;
  const bool swmr_;
  const bool ivy_dynamic_;
  const bool home_copyset_;
  const bool quorum_;
  const char* const protocol_;
  const std::function<NodeId(PageId)> manager_of_;
  const std::function<NodeId(PageId)> home_of_;
  const std::function<void(std::ostream&)> dump_;

  // Recursive: an assert-mode report invokes dump_, which (via
  // System::dump_diagnostics) calls back into dump_last_violation.
  // Lock order: hooks fire under sync/entry and fabric locks, and reports
  // look up stats counters — strictly between checker_gate and leaf_gate.
  mutable RecursiveMutex mutex_ ACQUIRED_AFTER(lock_order::checker_gate)
      ACQUIRED_BEFORE(lock_order::leaf_gate);

  // Race detector state. Clocks span units, not nodes: vector clocks have
  // n_units_ components and vc_ holds one per (node, app thread).
  std::vector<VectorClock> vc_ GUARDED_BY(mutex_);  // per unit
  std::unordered_map<std::uint64_t, WordState> words_
      GUARDED_BY(mutex_);                           // word key → epochs
  std::vector<VectorClock> lock_vc_ GUARDED_BY(mutex_);   // per lock
  std::vector<VectorClock> released_vc_ GUARDED_BY(mutex_);  // per unit, at its last release
  VectorClock deaths_vc_ GUARDED_BY(mutex_);  // killed units' last releases
  std::vector<LockOccupancy> occupancy_ GUARDED_BY(mutex_);  // per lock
  std::map<std::pair<BarrierId, std::uint64_t>, Round> rounds_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> arrive_gen_ GUARDED_BY(mutex_);  // per (barrier, node)
  std::vector<std::uint64_t> depart_gen_ GUARDED_BY(mutex_);  // per (barrier, node)

  // Protocol invariant state.
  std::vector<PageState> states_ GUARDED_BY(mutex_);  // mirror, node-major
  std::vector<std::uint32_t> page_version_ GUARDED_BY(mutex_);  // node-major
  std::map<std::pair<NodeId, LockId>, std::uint64_t> lock_version_
      GUARDED_BY(mutex_);
  std::vector<VectorClock> last_vc_ GUARDED_BY(mutex_);  // per node, LRC/HLRC
  std::vector<std::uint64_t> next_seq_ GUARDED_BY(mutex_);  // per (src, dst) link

  // Crash-fault-tolerance state. `kSeqAny` marks a link whose cursor was
  // reset by a restart: the next delivery is adopted unchecked (the sender
  // side may or may not have kept its counters across the restart).
  static constexpr std::uint64_t kSeqAny = ~std::uint64_t{0};
  std::vector<std::uint64_t> quorum_floor_ GUARDED_BY(mutex_);
  std::set<NodeId> dead_ GUARDED_BY(mutex_);         // killed, not restarted
  std::set<NodeId> worker_dead_ GUARDED_BY(mutex_);  // ever killed (monotone): a
                                             // restart revives the fabric only
  std::vector<std::uint64_t> incarnation_ GUARDED_BY(mutex_);  // bumped on restart
  std::set<std::tuple<LockId, NodeId, std::uint64_t>> regenerated_
      GUARDED_BY(mutex_);

  std::string last_violation_ GUARDED_BY(mutex_);

  // Cached counters (StatsRegistry lookup is a lock + map walk).
  Counter& accesses_;
  Counter& violations_;
  Counter& races_;
  Counter& swmr_violations_;
  Counter& copyset_violations_;
  Counter& version_violations_;
  Counter& vclock_violations_;
  Counter& token_violations_;
  Counter& order_violations_;
  Counter& mirror_violations_;
  Counter& quorum_violations_;
};

}  // namespace dsm
