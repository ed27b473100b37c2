#include "check/checker.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

namespace dsm {

const char* to_string(CheckLevel level) {
  switch (level) {
    case CheckLevel::kOff: return "off";
    case CheckLevel::kCount: return "count";
    case CheckLevel::kAssert: return "assert";
  }
  return "?";
}

DsmChecker::DsmChecker(Setup setup)
    : n_nodes_(setup.n_nodes),
      n_units_(setup.n_nodes * kMaxAppThreads),
      n_pages_(setup.n_pages),
      page_size_(setup.page_size),
      level_(setup.level),
      swmr_(setup.swmr),
      ivy_dynamic_(setup.ivy_dynamic),
      home_copyset_(setup.home_copyset),
      quorum_(setup.quorum),
      protocol_(setup.protocol),
      manager_of_(std::move(setup.manager_of)),
      home_of_(std::move(setup.home_of)),
      dump_(std::move(setup.dump)),
      accesses_(setup.stats->counter("check.accesses")),
      violations_(setup.stats->counter("check.violations")),
      races_(setup.stats->counter("check.races")),
      swmr_violations_(setup.stats->counter("check.swmr")),
      copyset_violations_(setup.stats->counter("check.copyset")),
      version_violations_(setup.stats->counter("check.version")),
      vclock_violations_(setup.stats->counter("check.vclock")),
      token_violations_(setup.stats->counter("check.token")),
      order_violations_(setup.stats->counter("check.order")),
      mirror_violations_(setup.stats->counter("check.mirror")),
      quorum_violations_(setup.stats->counter("check.quorum")) {
  vc_.reserve(n_units_);
  for (std::size_t u = 0; u < n_units_; ++u) {
    VectorClock vc(n_units_);
    // Start every unit in its own interval 1, so a clock entry of 0 in an
    // epoch means "never accessed" and first-segment accesses are not
    // spuriously covered by the all-zero initial clocks.
    vc.tick(static_cast<NodeId>(u));
    vc_.push_back(std::move(vc));
  }
  lock_vc_.assign(setup.n_locks, VectorClock(n_units_));
  released_vc_.assign(n_units_, VectorClock(n_units_));
  deaths_vc_ = VectorClock(n_units_);
  occupancy_.assign(setup.n_locks, LockOccupancy{kNoNode, NodeSet(n_nodes_)});
  arrive_gen_.assign(setup.n_barriers * n_nodes_, 0);
  depart_gen_.assign(setup.n_barriers * n_nodes_, 0);
  states_.assign(n_nodes_ * n_pages_, PageState::kInvalid);
  page_version_.assign(n_nodes_ * n_pages_, 0);
  last_vc_.assign(n_nodes_, VectorClock{});
  next_seq_.assign(n_nodes_ * n_nodes_, 0);
  quorum_floor_.assign(n_pages_, 0);
  incarnation_.assign(n_nodes_, 0);
}

std::string DsmChecker::actor(std::size_t unit) {
  const std::size_t node = unit / kMaxAppThreads;
  const std::size_t tid = unit % kMaxAppThreads;
  std::string s = "node " + std::to_string(node);
  if (tid != 0) s += " (thread " + std::to_string(tid) + ")";
  return s;
}

std::string DsmChecker::epoch(std::size_t unit, std::uint32_t clock) {
  const std::size_t node = unit / kMaxAppThreads;
  const std::size_t tid = unit % kMaxAppThreads;
  std::string s = std::to_string(clock) + "@" + std::to_string(node);
  if (tid != 0) s += "." + std::to_string(tid);
  return s;
}

void DsmChecker::report(Counter& category, const std::string& text, bool dump_ok) {
  // Caller holds mutex_ (recursive, so dump_ may call dump_last_violation).
  category.add();
  violations_.add();
  last_violation_ = text;
  if (level_ == CheckLevel::kAssert) {
    std::cerr << "[dsmcheck] VIOLATION (" << protocol_ << "): " << text << "\n";
    // dump_ok is false when the reporting hook runs under a Network lock
    // that the diagnostic dump would re-take (self-deadlock on the abort
    // path); the one-line report above still identifies the violation.
    if (dump_ok && dump_) dump_(std::cerr);
    std::cerr.flush();
    std::abort();
  }
}

void DsmChecker::on_access(NodeId node, ThreadId tid, PageId page,
                           std::size_t offset, bool is_write) {
  accesses_.add();
  const RecursiveMutexLock lk(mutex_);
  const std::uint64_t word = offset & ~std::uint64_t{7};
  const std::uint64_t key =
      static_cast<std::uint64_t>(page) * page_size_ + word;
  auto [it, fresh] = words_.try_emplace(key);
  WordState& ws = it->second;
  if (fresh) ws.read_clocks.assign(n_units_, 0);

  const std::size_t me = unit_of(node, tid);
  const NodeId mu = static_cast<NodeId>(me);
  const VectorClock& vc = vc_[me];
  const char* kind = is_write ? "write" : "read";

  // Conflict with the last write: racy unless this unit's clock has seen
  // the writer's interval (i.e. a release/acquire or barrier chain orders
  // the write before us). Two threads of one node are distinct units, so
  // intra-node conflicts are caught by the same rule.
  if (ws.write_unit != kNoUnit && ws.write_unit != me &&
      ws.write_clock > vc[static_cast<NodeId>(ws.write_unit)]) {
    std::ostringstream os;
    os << "data race on page " << page << " (word +" << word << "): " << kind
       << " by " << actor(me) << " at epoch " << epoch(me, vc[mu])
       << " conflicts with write at epoch "
       << epoch(ws.write_unit, ws.write_clock)
       << "; no happens-before edge (release/acquire or barrier) orders "
       << epoch(ws.write_unit, ws.write_clock) << " before this access"
       << " (" << actor(me) << " has seen only interval "
       << vc[static_cast<NodeId>(ws.write_unit)] << " of "
       << actor(ws.write_unit) << ")";
    report(races_, os.str(), true);
  }

  if (is_write) {
    // A write also conflicts with every unordered prior read.
    for (std::size_t m = 0; m < n_units_; ++m) {
      if (m == me) continue;
      const NodeId mn = static_cast<NodeId>(m);
      if (ws.read_clocks[m] > vc[mn]) {
        std::ostringstream os;
        os << "data race on page " << page << " (word +" << word
           << "): write by " << actor(me) << " at epoch "
           << epoch(me, vc[mu]) << " conflicts with read at epoch "
           << epoch(m, ws.read_clocks[m])
           << "; no happens-before edge (release/acquire or barrier) orders "
           << epoch(m, ws.read_clocks[m]) << " before this access"
           << " (" << actor(me) << " has seen only interval " << vc[mn]
           << " of " << actor(m) << ")";
        report(races_, os.str(), true);
      }
    }
    ws.write_unit = me;
    ws.write_clock = vc[mu];
  } else {
    ws.read_clocks[me] = vc[mu];
  }
}

void DsmChecker::on_lock_acquired(NodeId node, ThreadId tid, LockId lock,
                                  LockMode mode) {
  const RecursiveMutexLock lk(mutex_);
  LockOccupancy& occ = occupancy_[lock];
  if (mode == LockMode::kRead) {
    if (occ.exclusive != kNoNode) {
      std::ostringstream os;
      os << "lock token violation: read lock " << lock << " granted to node "
         << node << " while node " << occ.exclusive << " holds it exclusively";
      report(token_violations_, os.str(), true);
    }
    occ.readers.insert(node);
  } else {
    if (occ.exclusive != kNoNode) {
      std::ostringstream os;
      os << "lock token violation: lock " << lock
         << " granted exclusively to node " << node << " while node "
         << occ.exclusive << " still holds it";
      report(token_violations_, os.str(), true);
    }
    if (!occ.readers.empty()) {
      std::ostringstream os;
      os << "lock token violation: lock " << lock
         << " granted exclusively to node " << node << " while "
         << occ.readers.count() << " reader(s) hold it";
      report(token_violations_, os.str(), true);
    }
    occ.exclusive = node;
  }
  // The acquiring thread learns everything the last releaser knew.
  vc_[unit_of(node, tid)].merge(lock_vc_[lock]);
}

void DsmChecker::on_lock_released(NodeId node, ThreadId tid, LockId lock,
                                  LockMode mode) {
  const RecursiveMutexLock lk(mutex_);
  LockOccupancy& occ = occupancy_[lock];
  if (mode == LockMode::kRead) {
    if (!occ.readers.contains(node)) {
      std::ostringstream os;
      os << "lock token violation: node " << node << " released read lock "
         << lock << " it does not hold";
      report(token_violations_, os.str(), true);
    }
    occ.readers.erase(node);
  } else {
    if (occ.exclusive != node) {
      std::ostringstream os;
      os << "lock token violation: node " << node << " released lock " << lock
         << " held by "
         << (occ.exclusive == kNoNode ? std::string("nobody")
                                      : "node " + std::to_string(occ.exclusive));
      report(token_violations_, os.str(), true);
    }
    occ.exclusive = kNoNode;
  }
  // Publish this thread's knowledge to the next acquirer, then open a new
  // interval. (For read releases the merge is conservative: it can only
  // make later acquirers appear to know more, masking at worst — a sound
  // under-approximation, never a false positive.)
  const std::size_t me = unit_of(node, tid);
  lock_vc_[lock].merge(vc_[me]);
  released_vc_[me] = vc_[me];
  vc_[me].tick(static_cast<NodeId>(me));
}

void DsmChecker::on_barrier_arrive(NodeId node, ThreadId tid,
                                   BarrierId barrier) {
  const RecursiveMutexLock lk(mutex_);
  // Generations are counted per node, not per unit: the sync agent
  // serializes a node's app threads through the barrier, so each round gets
  // exactly one arrival per live node no matter which thread carried it.
  const std::uint64_t gen = arrive_gen_[barrier * n_nodes_ + node]++;
  Round& round = rounds_[{barrier, gen}];
  if (round.acc.size() == 0) round.acc = VectorClock(n_units_);
  round.acc.merge(vc_[unit_of(node, tid)]);
  ++round.arrivals;
}

void DsmChecker::on_barrier_depart(NodeId node, ThreadId tid,
                                   BarrierId barrier) {
  const RecursiveMutexLock lk(mutex_);
  const std::uint64_t gen = depart_gen_[barrier * n_nodes_ + node]++;
  auto it = rounds_.find({barrier, gen});
  // The home broadcasts the release only after every *live* worker arrived
  // (all N when nothing died), and every arrive hook runs before its node's
  // arrive message is sent — so a depart with fewer recorded arrivals means
  // a hook was missed or a round completed without the live stragglers.
  const std::size_t needed = n_nodes_ - worker_dead_.size();
  if (it == rounds_.end() || it->second.arrivals < needed) {
    std::ostringstream os;
    os << "barrier order violation: node " << node << " departed barrier "
       << barrier << " round " << gen << " with only "
       << (it == rounds_.end() ? std::size_t{0} : it->second.arrivals) << "/"
       << needed << " recorded arrivals";
    report(order_violations_, os.str(), true);
  }
  const std::size_t me = unit_of(node, tid);
  if (it != rounds_.end()) {
    vc_[me].merge(it->second.acc);
    if (++it->second.departures >= needed) rounds_.erase(it);
  }
  // A round that completes without a dead worker is ordered after its death.
  vc_[me].merge(deaths_vc_);
  vc_[me].tick(static_cast<NodeId>(me));
}

void DsmChecker::on_page_state(NodeId node, PageId page, PageState state) {
  const RecursiveMutexLock lk(mutex_);
  if (swmr_ && state != PageState::kInvalid) {
    for (std::size_t m = 0; m < n_nodes_; ++m) {
      if (m == node) continue;
      const PageState other = states_[m * n_pages_ + page];
      const bool two_writable =
          state == PageState::kReadWrite && other != PageState::kInvalid;
      const bool writer_with_reader =
          state == PageState::kReadOnly && other == PageState::kReadWrite;
      if (two_writable || writer_with_reader) {
        std::ostringstream os;
        os << "SWMR violation on page " << page << ": node " << node
           << " transitions to " << to_string(state) << " while node " << m
           << " holds " << to_string(other);
        report(swmr_violations_, os.str(), true);
      }
    }
  }
  states_[node * n_pages_ + page] = state;
}

void DsmChecker::on_page_version(NodeId node, PageId page,
                                 std::uint32_t version) {
  const RecursiveMutexLock lk(mutex_);
  std::uint32_t& stored = page_version_[node * n_pages_ + page];
  if (version <= stored) {
    std::ostringstream os;
    os << "version monotonicity violation: node " << node << " page " << page
       << " moved to version " << version << " after version " << stored;
    report(version_violations_, os.str(), true);
  }
  stored = version;
}

void DsmChecker::on_lock_version(NodeId node, LockId lock,
                                 std::uint64_t version) {
  const RecursiveMutexLock lk(mutex_);
  std::uint64_t& stored = lock_version_[{node, lock}];
  if (version < stored) {
    std::ostringstream os;
    os << "version monotonicity violation: node " << node << " lock " << lock
       << " regressed to data version " << version << " from " << stored;
    report(version_violations_, os.str(), true);
  }
  stored = version;
}

void DsmChecker::on_vclock(NodeId node, const VectorClock& vc) {
  const RecursiveMutexLock lk(mutex_);
  VectorClock& prev = last_vc_[node];
  if (prev.size() != 0 && !vc.dominates(prev)) {
    std::ostringstream os;
    os << "vector clock regression on node " << node << ": " << vc.to_string()
       << " does not dominate previous " << prev.to_string();
    report(vclock_violations_, os.str(), true);
  }
  prev = vc;
}

void DsmChecker::on_quorum_ack(PageId page, std::uint64_t tag) {
  if (!quorum_) return;
  const RecursiveMutexLock lk(mutex_);
  std::uint64_t& floor = quorum_floor_[page];
  if (tag > floor) floor = tag;
}

void DsmChecker::on_quorum_serve(PageId page, std::uint64_t tag) {
  if (!quorum_) return;
  const RecursiveMutexLock lk(mutex_);
  if (tag < quorum_floor_[page]) {
    std::ostringstream os;
    os << "quorum violation: page " << page << " served at tag " << tag
       << " below acked floor " << quorum_floor_[page]
       << " — an acknowledged write was lost across a failover";
    report(quorum_violations_, os.str(), true);
  }
}

void DsmChecker::on_token_regenerated(LockId lock, NodeId dead) {
  const RecursiveMutexLock lk(mutex_);
  if (!regenerated_.insert({lock, dead, incarnation_[dead]}).second) {
    std::ostringstream os;
    os << "lock token violation: token of lock " << lock
       << " regenerated twice for dead holder node " << dead
       << " (incarnation " << incarnation_[dead] << ") — two tokens minted";
    report(token_violations_, os.str(), true);
    return;
  }
  // The dead holder's occupancy is released by decree, not by a release
  // hook: clear it so the next grant is not a phantom double-grant.
  LockOccupancy& occ = occupancy_[lock];
  if (occ.exclusive == dead) occ.exclusive = kNoNode;
  occ.readers.erase(dead);
}

void DsmChecker::on_node_killed(NodeId node) {
  const RecursiveMutexLock lk(mutex_);
  dead_.insert(node);
  worker_dead_.insert(node);
  for (ThreadId t = 0; t < kMaxAppThreads; ++t) deaths_vc_.merge(released_vc_[unit_of(node, t)]);
}

void DsmChecker::on_node_restarted(NodeId node) {
  const RecursiveMutexLock lk(mutex_);
  dead_.erase(node);
  ++incarnation_[node];
  // The restarted fabric comes back all-invalid; note_state hooks re-mirror
  // from there. Page versions restart from the restored checkpoint (or from
  // zero), so the monotonicity floor resets too — the bounded version
  // rollback is the documented checkpoint loss, not a protocol bug.
  for (PageId p = 0; p < n_pages_; ++p) {
    states_[node * n_pages_ + p] = PageState::kInvalid;
    page_version_[node * n_pages_ + p] = 0;
  }
  // Links touching the node adopt whatever seq arrives next: an in-process
  // restart keeps the sender counters, a respawned process restarts at 0.
  for (std::size_t m = 0; m < n_nodes_; ++m) {
    next_seq_[node * n_nodes_ + m] = kSeqAny;
    next_seq_[m * n_nodes_ + node] = kSeqAny;
  }
}

void DsmChecker::on_deliver(const Message& msg) {
  if (msg.seq == Message::kNoSeq) return;
  const RecursiveMutexLock lk(mutex_);
  std::uint64_t& expected = next_seq_[msg.src * n_nodes_ + msg.dst];
  if (expected == kSeqAny) {
    expected = msg.seq + 1;
    return;
  }
  if (msg.seq != expected) {
    std::ostringstream os;
    os << "delivery order violation on link " << msg.src << "->" << msg.dst
       << ": " << to_string(msg.type) << " seq " << msg.seq
       << " delivered, expected seq " << expected
       << " (reliable sublayer must dedup and reassemble in order)";
    // dump_ok=false: deliver() runs under Network::links_mutex_, which the
    // diagnostic dump's debug_dump would re-take.
    report(order_violations_, os.str(), false);
  }
  expected = msg.seq + 1;
}

void DsmChecker::on_batch(const Message& envelope, std::uint32_t count) {
  if (envelope.seq == Message::kNoSeq) return;
  const RecursiveMutexLock lk(mutex_);
  const std::uint64_t expected = next_seq_[envelope.src * n_nodes_ + envelope.dst];
  if (expected == kSeqAny) return;  // restarted link: adopt via on_deliver
  if (envelope.seq != expected || count == 0) {
    std::ostringstream os;
    os << "batch envelope violation on link " << envelope.src << "->" << envelope.dst
       << ": envelope covers seqs [" << envelope.seq << ", " << envelope.seq + count
       << "), expected it to start at seq " << expected
       << " (envelopes must be accepted whole, in order)";
    // dump_ok=false: the hook runs under Network::links_mutex_, which the
    // diagnostic dump's debug_dump would re-take.
    report(order_violations_, os.str(), false);
  }
  // No cursor advance here: the per-inner on_deliver calls that follow walk
  // next_seq_ across the envelope's range one message at a time.
}

void DsmChecker::at_quiescence(const std::vector<const PageTable*>& tables) {
  // Snapshot every table's page states before taking mutex_. Protocols call
  // note_state with the page-table entry lock held and on_page_state then
  // takes mutex_; reading state_of (which takes the table lock) from under
  // mutex_ here would invert that order. The fleet is quiescent when this
  // runs, so the snapshot is exact.
  std::vector<PageState> snap(tables.size() * n_pages_);
  for (std::size_t n = 0; n < tables.size(); ++n) {
    for (PageId p = 0; p < n_pages_; ++p) {
      snap[n * n_pages_ + p] = tables[n]->state_of(p);
    }
  }
  const auto snap_of = [&](std::size_t n, PageId p) {
    return snap[n * n_pages_ + p];
  };
  const RecursiveMutexLock lk(mutex_);

  // A run that killed nodes ends with a deliberately ragged fleet: dead
  // nodes' tables are frozen mid-flight and survivors may reference them.
  // The per-run invariants (races, quorum floor, token uniqueness, delivery
  // order) were all checked online; only the full-fleet structural passes
  // below are relaxed.
  const bool had_deaths = !worker_dead_.empty();

  // 1. The mirror must agree with every real page table — a mismatch means
  //    a protocol mutated `state` without the note_state hook.
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    if (dead_.count(static_cast<NodeId>(n)) != 0) continue;
    for (PageId p = 0; p < n_pages_; ++p) {
      const PageState actual = snap_of(n, p);
      const PageState mirrored = states_[n * n_pages_ + p];
      if (actual != mirrored) {
        std::ostringstream os;
        os << "state mirror mismatch: node " << n << " page " << p
           << " is " << to_string(actual) << " but hooks recorded "
           << to_string(mirrored) << " (missed instrumentation?)";
        report(mirror_violations_, os.str(), true);
      }
    }
  }

  // 2. IVY copyset soundness: every holder is known to the owner.
  if (swmr_ && !had_deaths) {
    for (PageId p = 0; p < n_pages_; ++p) {
      NodeId owner = kNoNode;
      if (ivy_dynamic_) {
        for (std::size_t n = 0; n < n_nodes_; ++n) {
          if (!tables[n]->entry(p).is_owner) continue;
          if (owner != kNoNode) {
            std::ostringstream os;
            os << "copyset violation: page " << p << " has two owners (node "
               << owner << " and node " << n << ")";
            report(copyset_violations_, os.str(), true);
          }
          owner = static_cast<NodeId>(n);
        }
      } else {
        owner = tables[manager_of_(p)]->entry(p).owner;
      }
      if (owner == kNoNode || owner >= n_nodes_) {
        std::ostringstream os;
        os << "copyset violation: page " << p << " has no owner at quiescence";
        report(copyset_violations_, os.str(), true);
        continue;
      }
      if (snap_of(owner, p) == PageState::kInvalid) {
        std::ostringstream os;
        os << "copyset violation: owner node " << owner << " of page " << p
           << " holds no copy";
        report(copyset_violations_, os.str(), true);
      }
      const PageEntry& oe = tables[owner]->entry(p);
      for (std::size_t n = 0; n < n_nodes_; ++n) {
        if (n == owner) continue;
        if (snap_of(n, p) == PageState::kInvalid) continue;
        if (!oe.copyset.contains(static_cast<NodeId>(n))) {
          std::ostringstream os;
          os << "copyset violation: node " << n << " holds page " << p
             << " (" << to_string(snap_of(n, p))
             << ") but is missing from owner " << owner << "'s copyset";
          report(copyset_violations_, os.str(), true);
        }
      }
    }
  }

  // 3. ERC home copyset soundness: the home knows every non-home holder
  //    (keepers included — handle_invalidate re-adds kept copies).
  if (home_copyset_ && !had_deaths) {
    for (PageId p = 0; p < n_pages_; ++p) {
      const NodeId home = home_of_(p);
      const PageEntry& he = tables[home]->entry(p);
      for (std::size_t n = 0; n < n_nodes_; ++n) {
        if (n == home) continue;
        if (snap_of(n, p) == PageState::kInvalid) continue;
        if (!he.copyset.contains(static_cast<NodeId>(n))) {
          std::ostringstream os;
          os << "copyset violation: node " << n << " holds page " << p
             << " (" << to_string(snap_of(n, p))
             << ") but is missing from home " << home << "'s copyset";
          report(copyset_violations_, os.str(), true);
        }
      }
    }
  }
}

std::uint64_t DsmChecker::violations() const { return violations_.value(); }

std::string DsmChecker::last_violation() const {
  const RecursiveMutexLock lk(mutex_);
  return last_violation_;
}

void DsmChecker::dump_last_violation(std::ostream& os) const {
  const RecursiveMutexLock lk(mutex_);
  if (last_violation_.empty()) return;
  os << "[dsmcheck] violations: " << violations_.value()
     << "; last: " << last_violation_ << "\n";
}

}  // namespace dsm
