#include "core/runtime.hpp"

#include <chrono>
#include <cstdlib>
#include <ostream>
#include <set>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace dsm {

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

// Every sync operation can block on remote state, so each brackets itself
// with a watchdog guard — a wedged wait becomes a diagnostic abort. Each is
// also a fault-injection point: a seeded crash lands *between* operations
// (maybe_kill throws before the operation starts), never mid-transaction.
void Worker::acquire(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "lock-acquire", lock);
  system_->nodes_[node_]->sync->acquire(lock);
}
void Worker::release(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "lock-release", lock);
  system_->nodes_[node_]->sync->release(lock);
}
void Worker::acquire_read(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "rwlock-acquire-read", lock);
  system_->nodes_[node_]->sync->acquire_read(lock);
}
void Worker::release_read(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "rwlock-release-read", lock);
  system_->nodes_[node_]->sync->release_read(lock);
}
void Worker::acquire_write(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "rwlock-acquire-write", lock);
  system_->nodes_[node_]->sync->acquire_write(lock);
}
void Worker::release_write(LockId lock) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "rwlock-release-write", lock);
  system_->nodes_[node_]->sync->release_write(lock);
}
void Worker::barrier(BarrierId barrier) {
  system_->maybe_kill(node_);
  const auto g = Watchdog::guard(system_->watchdog_.get(),
                                 system_->watchdog_->slot_of(node_, tid_),
                                 "barrier", barrier);
  system_->nodes_[node_]->sync->barrier(barrier);
}

void Worker::compute(std::uint64_t ops) {
  system_->nodes_[node_]->clock.advance(ops * system_->config().ns_per_op);
  system_->maybe_kill(node_);
}

VirtualTime Worker::now() const { return system_->nodes_[node_]->clock.now(); }

void Worker::bind_region(LockId lock, std::size_t offset, std::size_t size) {
  system_->nodes_[node_]->protocol->bind_lock_region(lock, offset, size);
}

void Worker::bind_barrier_region(BarrierId barrier, std::size_t offset, std::size_t size) {
  system_->nodes_[node_]->protocol->bind_barrier_region(barrier, offset, size);
}

// ---------------------------------------------------------------------------
// System
// ---------------------------------------------------------------------------

System::System(Config cfg) : cfg_(cfg) {
  DSM_CHECK_MSG(cfg_.n_nodes >= 1, "need at least one node");
  DSM_CHECK_MSG(cfg_.page_size % ViewRegion::os_page_size() == 0,
                "page_size must be a multiple of the OS page size ("
                    << ViewRegion::os_page_size() << ")");
  if (cfg_.transport.kind == TransportKind::kInproc && !cfg_.transport.multiprocess()) {
    // Conformance-suite override: lets the whole existing test asset base
    // run against real sockets without touching each test's Config.
    transport_kind_from_env(cfg_.transport);
  }
  // Same override scheme for the fault engine (the ".uffd" conformance
  // copies). A run asking for uffd on a kernel without minor+WP userfaultfd
  // degrades to sigsegv with a visible note rather than aborting — the
  // conformance suites detect the same condition up front and skip instead.
  fault_engine_kind_from_env(cfg_.fault_engine);
  if (cfg_.fault_engine == FaultEngineKind::kUffd) {
    std::string reason;
    if (!uffd_available(&reason)) {
      DSM_LOG_WARN << "[uffd unavailable] " << reason
                   << "; falling back to the sigsegv fault engine";
      cfg_.fault_engine = FaultEngineKind::kSigsegv;
    }
  }
  // Conformance-suite override for the thread-count copies (".mt2"/".mt4"):
  // TUTORDSM_APP_THREADS=N hosts N app threads per node. Multi-threaded
  // nodes need the uffd engine — the sigsegv engine services faults
  // synchronously inside the faulting thread's signal frame with
  // process-global handler state, an inherently single-thread design — so a
  // sigsegv (or uffd-unavailable) run clamps back to one thread with a
  // visible note instead of racing.
  if (const char* threads = std::getenv("TUTORDSM_APP_THREADS");
      threads != nullptr && *threads != '\0') {
    cfg_.app_threads = static_cast<std::size_t>(std::strtoul(threads, nullptr, 10));
  }
  if (cfg_.app_threads < 1) cfg_.app_threads = 1;
  if (cfg_.app_threads > kMaxAppThreads) {
    DSM_LOG_WARN << "app_threads " << cfg_.app_threads << " capped at "
                 << kMaxAppThreads;
    cfg_.app_threads = kMaxAppThreads;
  }
  if (cfg_.app_threads > 1 && cfg_.fault_engine == FaultEngineKind::kSigsegv) {
    DSM_LOG_WARN << "app_threads " << cfg_.app_threads
                 << " requires the uffd fault engine (sigsegv fault service is "
                    "single-thread-only); clamping to 1";
    cfg_.app_threads = 1;
  }
  if (cfg_.app_threads > 1 && cfg_.transport.multiprocess()) {
    DSM_LOG_WARN << "app_threads > 1 is single-process only; clamping to 1";
    cfg_.app_threads = 1;
  }
  fault_engine_ = make_fault_engine(cfg_.fault_engine, &stats_);
  if (cfg_.transport.multiprocess()) {
    DSM_CHECK_MSG(cfg_.transport.kind == TransportKind::kUdp,
                  "multi-process mode requires the udp transport");
    DSM_CHECK_MSG(cfg_.transport.local_node < cfg_.n_nodes,
                  "local node " << cfg_.transport.local_node << " out of range for "
                                << cfg_.n_nodes << " nodes");
    DSM_CHECK_MSG(cfg_.transport.peers.size() == cfg_.n_nodes,
                  "need one peer endpoint per node");
    if (cfg_.check_level != CheckLevel::kOff) {
      // dsmcheck needs every node's accesses and deliveries in one address
      // space; a single rank's view would report false races.
      DSM_LOG_WARN << "dsmcheck is unavailable in multi-process mode; "
                      "forcing check_level=off";
      cfg_.check_level = CheckLevel::kOff;
    }
  }
  if (cfg_.ft.enabled) {
    DSM_CHECK_MSG(cfg_.protocol == ProtocolKind::kQrc ||
                      cfg_.protocol == ProtocolKind::kErcInvalidate,
                  "ft requires a crash-tolerant protocol: qrc (quorum "
                  "replication) or erc-invalidate (buddy checkpointing)");
    DSM_CHECK_MSG(cfg_.ft.replication >= 1 && cfg_.ft.replication <= cfg_.n_nodes,
                  "ft.replication " << cfg_.ft.replication << " out of range for "
                                    << cfg_.n_nodes << " nodes");
    if (cfg_.ft.checkpoint_period > 0) {
      DSM_CHECK_MSG(cfg_.protocol == ProtocolKind::kErcInvalidate,
                    "checkpointing is the erc-invalidate recovery path; "
                    "qrc recovers from its replica quorum");
    }
    DSM_CHECK_MSG(!(cfg_.transport.multiprocess() && !cfg_.ft.faults.empty()),
                  "virtual-time fault injection is single-process only; kill "
                  "real ranks with SIGKILL under dsmrun --on-crash=respawn");
    std::set<NodeId> victims;
    for (const auto& fault : cfg_.ft.faults) {
      DSM_CHECK_MSG(fault.node != 0,
                    "node 0 anchors locks and barriers under ft and cannot die");
      DSM_CHECK_MSG(fault.node < cfg_.n_nodes,
                    "fault victim " << fault.node << " out of range");
      DSM_CHECK_MSG(fault.kill_at > 0, "fault kill_at must be positive");
      DSM_CHECK_MSG(victims.insert(fault.node).second,
                    "duplicate fault for node " << fault.node);
      if (cfg_.protocol == ProtocolKind::kErcInvalidate) {
        // A page's only home died: without a restart to replay the buddy
        // checkpoint into, its pages would be unreachable forever.
        DSM_CHECK_MSG(fault.restart,
                      "erc-invalidate faults must restart (its pages have one "
                      "home); use qrc for kill-without-restart");
      }
    }
    if (cfg_.lock_policy == LockPolicy::kForwardChain) {
      // The chain routes grants holder-to-holder; a dead link wedges it.
      // Centralized keeps all token state at node 0, which never dies.
      DSM_LOG_WARN << "ft forces lock_policy=centralized (forward-chain has "
                      "no token regeneration path)";
      cfg_.lock_policy = LockPolicy::kCentralized;
    }
  }
  if (cfg_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(cfg_.n_nodes, cfg_.trace,
                                       &stats_.counter("trace.dropped"));
  }
  if (cfg_.check_level != CheckLevel::kOff) {
    // Distill the protocol's invariant profile into checker traits so
    // src/check never depends on src/proto or src/core.
    const bool ivy = cfg_.protocol == ProtocolKind::kIvyCentral ||
                     cfg_.protocol == ProtocolKind::kIvyFixed ||
                     cfg_.protocol == ProtocolKind::kIvyDynamic;
    DsmChecker::Setup setup;
    setup.n_nodes = cfg_.n_nodes;
    setup.n_pages = cfg_.n_pages;
    setup.page_size = cfg_.page_size;
    setup.n_locks = cfg_.n_locks;
    setup.n_barriers = cfg_.n_barriers;
    setup.level = cfg_.check_level;
    setup.swmr = ivy;
    setup.ivy_dynamic = cfg_.protocol == ProtocolKind::kIvyDynamic;
    setup.home_copyset = cfg_.protocol == ProtocolKind::kErcInvalidate ||
                         cfg_.protocol == ProtocolKind::kErcUpdate;
    setup.quorum = cfg_.protocol == ProtocolKind::kQrc;
    setup.protocol = to_string(cfg_.protocol);
    if (cfg_.protocol == ProtocolKind::kIvyCentral) {
      setup.manager_of = [](PageId) { return NodeId{0}; };
    } else {
      setup.manager_of = [n = cfg_.n_nodes](PageId p) {
        return static_cast<NodeId>(p % n);
      };
    }
    setup.home_of = [n = cfg_.n_nodes](PageId p) {
      return static_cast<NodeId>(p % n);
    };
    setup.stats = &stats_;
    setup.dump = [this](std::ostream& os) { dump_diagnostics(os); };
    checker_ = std::make_unique<DsmChecker>(std::move(setup));
  }
  network_ = std::make_unique<Network>(cfg_.n_nodes, cfg_.link, &stats_,
                                       cfg_.reliability, cfg_.chaos, cfg_.wire,
                                       tracer_.get(), cfg_.transport);
  if (cfg_.ft.enabled) network_->set_ft(true);
  if (checker_ != nullptr) {
    network_->set_delivery_hook(
        [chk = checker_.get()](const Message& msg) { chk->on_deliver(msg); });
    network_->set_batch_hook(
        [chk = checker_.get()](const Message& envelope, std::uint32_t count) {
          chk->on_batch(envelope, count);
        });
  }
  // One watchdog slot per (node, app thread); single-thread runs keep the
  // historical one-slot-per-node layout (slot == node id).
  watchdog_ = std::make_unique<Watchdog>(
      cfg_.n_nodes, cfg_.app_threads > 1 ? kMaxAppThreads : 1, cfg_.watchdog_ms,
      [this](std::ostream& os) { dump_diagnostics(os); });

  nodes_.reserve(cfg_.n_nodes);
  for (NodeId id = 0; id < cfg_.n_nodes; ++id) {
    if (!hosted(id)) {
      // Remote rank: lives in another process. The slot stays null so
      // NodeId indexing keeps working for the one node we do host.
      nodes_.push_back(nullptr);
      continue;
    }
    auto node = std::make_unique<Node>();
    node->view = std::make_unique<ViewRegion>(cfg_.n_pages, cfg_.page_size);
    node->table = std::make_unique<PageTable>(cfg_.n_pages, cfg_.n_nodes);
    node->ctx = NodeContext{
        .id = id,
        .n_nodes = cfg_.n_nodes,
        .cfg = &cfg_,
        .net = network_.get(),
        .view = node->view.get(),
        .table = node->table.get(),
        .clock = &node->clock,
        .stats = &stats_,
        .trace = tracer_.get(),
        .check = checker_.get(),
        .fault = fault_engine_.get(),
    };
    node->protocol = make_protocol(node->ctx);
    node->sync = std::make_unique<SyncAgent>(node->ctx, *node->protocol);
    for (const auto& fault : cfg_.ft.faults) {
      if (fault.node == id) {
        node->kill_at = fault.kill_at;
        node->kill_restart = fault.restart;
      }
    }

    Node* raw = node.get();
    RegionHooks hooks;
    hooks.on_fault = [this, raw](PageId page, std::size_t offset, bool is_write) {
      // Attribute the fault to the app thread that raised it: on the sigsegv
      // engine the handler runs *on* that thread (its attachment is ours);
      // on the uffd engine the handler runs on an executor thread and the
      // kernel's THREAD_ID stamp maps back through the attach table.
      ThreadId tid = 0;
      if (const ThreadAttachment* att = current_attachment();
          att != nullptr && att->node == raw->ctx.id) {
        tid = att->tid;
      } else if (const std::uint32_t ktid = current_fault_ktid(); ktid != 0) {
        tid = raw->tid_of_ktid(ktid);
      }
      const auto g = Watchdog::guard(watchdog_.get(),
                                     watchdog_->slot_of(raw->ctx.id, tid),
                                     is_write ? "write-fault" : "read-fault", page);
      const TraceScope span(tracer_.get(), raw->ctx.id, TraceCat::kFault,
                            is_write ? "write-fault" : "read-fault",
                            &raw->clock, "page", page);
      if (raw->ctx.check != nullptr) {
        raw->ctx.check->on_access(raw->ctx.id, tid, page, offset, is_write);
      }
      if (is_write) {
        raw->protocol->on_write_fault(page);
      } else {
        raw->protocol->on_read_fault(page);
      }
    };
    hooks.infer_write = [raw](PageId page) {
      // Architecture fallback: a readable page can only write-fault.
      return raw->table->state_of(page) != PageState::kInvalid;
    };
    hooks.trace = tracer_.get();
    hooks.clock = &raw->clock;
    hooks.node = id;
    hooks.app_threads = cfg_.app_threads;
    node->fault_token = fault_engine_->add_region(node->view.get(), std::move(hooks));
    nodes_.push_back(std::move(node));
  }

  if (cfg_.app_threads > 1) {
    // Scratch region for the sibling threads (see the member's comment).
    // Two pages: small enough that concurrent siblings keep colliding on
    // the same page, which is what exercises fault coalescing.
    scratch_view_ = std::make_unique<ViewRegion>(2, ViewRegion::os_page_size());
    ViewRegion* scratch = scratch_view_.get();
    RegionHooks hooks;
    hooks.on_fault = [scratch](PageId page, std::size_t, bool) {
      // Self-serve: install full rights; the sibling loop re-arms with a
      // zap after every touch so faults keep flowing.
      scratch->protect(page, Access::kReadWrite);
    };
    // Every hosted node's siblings share this region, so size its executor
    // pool for the whole process, not one node.
    hooks.app_threads = cfg_.app_threads * cfg_.n_nodes;
    scratch_token_ = fault_engine_->add_region(scratch, std::move(hooks));
  }
}

System::~System() {
  DSM_CHECK_MSG(!running_, "System destroyed while a run is in progress");
  if (scratch_token_ >= 0) fault_engine_->remove_region(scratch_token_);
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    if (node->fault_token >= 0) fault_engine_->remove_region(node->fault_token);
  }
}

ThreadId System::attach_thread(NodeId id) {
  DSM_CHECK_MSG(id < nodes_.size() && nodes_[id] != nullptr,
                "attach_thread to unknown node " << id);
  Node& node = *nodes_[id];
  const std::uint32_t ktid = current_ktid();
  ThreadId tid = kMaxAppThreads;
  // Slot 0 belongs to the primary body thread; siblings claim 1..N-1.
  for (ThreadId t = 1; t < kMaxAppThreads; ++t) {
    std::uint32_t vacant = 0;
    if (node.thread_ktid[t].compare_exchange_strong(vacant, ktid,
                                                    std::memory_order_acq_rel)) {
      tid = t;
      break;
    }
  }
  DSM_CHECK_MSG(tid < kMaxAppThreads, "node " << id << " already hosts "
                                               << kMaxAppThreads
                                               << " app threads (kMaxAppThreads)");
  attach_current_thread(id, tid);
  watchdog_->bind_thread(watchdog_->slot_of(id, tid), ktid);
  return tid;
}

void System::detach_thread(NodeId id, ThreadId tid) {
  const ThreadAttachment* att = current_attachment();
  DSM_CHECK_MSG(att != nullptr && att->node == id && att->tid == tid,
                "detach_thread(" << id << ", " << tid
                                 << ") from a thread not attached as that pair");
  detach_current_thread();
  watchdog_->bind_thread(watchdog_->slot_of(id, tid), 0);
  nodes_[id]->thread_ktid[tid].store(0, std::memory_order_release);
}

std::thread Worker::spawn(std::function<void(Worker&)> fn) {
  DSM_CHECK_MSG(system_->fault_engine().kind() == FaultEngineKind::kUffd,
                "Worker::spawn requires the uffd fault engine: sigsegv fault "
                "service runs in the faulting thread's signal frame and is "
                "single-thread-only (see DESIGN.md \"Threading model\")");
  System* system = system_;
  const NodeId node = node_;
  return std::thread([system, node, fn = std::move(fn)] {
    const ThreadId tid = system->attach_thread(node);
    Worker sibling(*system, node, tid);
    try {
      fn(sibling);
    } catch (const WorkerKilled&) {
      // Injected crash: the sibling stops like the primary body does.
    }
    system->detach_thread(node, tid);
  });
}

std::size_t System::alloc_bytes(std::size_t size, std::size_t align) {
  DSM_CHECK_MSG(!running_, "alloc during run is not supported");
  DSM_CHECK(align > 0 && (align & (align - 1)) == 0);
  heap_used_ = (heap_used_ + align - 1) & ~(align - 1);
  const std::size_t offset = heap_used_;
  heap_used_ += size;
  DSM_CHECK_MSG(heap_used_ <= cfg_.heap_bytes(),
                "shared heap exhausted: need " << heap_used_ << " of "
                                               << cfg_.heap_bytes()
                                               << " bytes; raise Config::n_pages");
  return offset;
}

VirtualTime System::virtual_time() const {
  VirtualTime t = 0;
  for (const auto& node : nodes_) {
    if (node != nullptr) t = std::max(t, node->clock.now());
  }
  return t;
}

void System::reset_clocks() {
  for (auto& node : nodes_) {
    if (node != nullptr) node->clock.reset();
  }
}

void System::maybe_kill(NodeId id) {
  Node& node = *nodes_[id];
  if (node.kill_at == 0 || node.killed.load(std::memory_order_relaxed)) return;
  if (node.clock.now() < node.kill_at) return;
  node.killed.store(true, std::memory_order_release);
  stats_.counter("ft.kills").add();
  DSM_LOG_WARN << "ft: node " << id << " crashes at t=" << node.clock.now()
               << "ns" << (node.kill_restart ? " (restart scheduled)" : "");
  // Checker first: the death-announcement fan-out below triggers failover
  // handlers (token regeneration, quorum takeover) that report to it.
  if (checker_ != nullptr) checker_->on_node_killed(id);
  network_->announce_death(id, node.kill_restart);
  throw WorkerKilled{};
}

void System::restart_node(Node& node) {
  const NodeId id = node.ctx.id;
  stats_.counter("ft.restarts").add();
  DSM_LOG_WARN << "ft: node " << id << " restarts (memory fabric only)";
  if (checker_ != nullptr) checker_->on_node_restarted(id);
  // Protocol state resets before the node is marked alive: a request racing
  // in after announce_alive must find the protocol already in recovery.
  node.protocol->on_self_restart();
  node.sync->on_self_restart();
  network_->reset_links_for(id);
  network_->liveness().mark_restarted(id);
  network_->announce_alive(id);
}

void System::service_loop(Node& node) {
  bool running = true;
  while (running) {
    // Burst dispatch: everything queued under one mailbox lock acquisition.
    std::deque<Message> burst = network_->recv_all(node.ctx.id);
    if (burst.empty()) break;  // mailbox closed
    std::size_t handled = 0;
    {
      // Replies generated while handling this burst coalesce per
      // destination into kBatch envelopes (inert when batching is off).
      Network::BatchScope batch(network_.get());
      for (Message& msg : burst) {
        if (msg.type == MsgType::kShutdown) {
          // Finish the burst before exiting: under multi-process transports
          // a trailing arrival can share a burst with the shutdown.
          running = false;
          continue;
        }
        if (msg.type == MsgType::kExitReady) {
          exit_ready_.fetch_add(1, std::memory_order_release);
          ++handled;
          continue;
        }
        if (msg.type == MsgType::kExitGo) {
          exit_go_.fetch_add(1, std::memory_order_release);
          ++handled;
          continue;
        }
        if (msg.type == MsgType::kPeerDown || msg.type == MsgType::kPeerUp) {
          NodeId peer = kNoNode;
          bool restart = false;
          unpack_peer_event(msg.payload, &peer, &restart);
          if (msg.type == MsgType::kPeerDown) {
            if (peer == node.ctx.id) {
              // Our own death notice: the worker is already gone; rejoin the
              // fabric if the fault schedule says so, else stay dark.
              if (restart) restart_node(node);
            } else {
              node.protocol->on_peer_down(peer);
              node.sync->on_peer_down(peer);
            }
          } else {
            // Delivered to the restarted node too: QRC hooks its own
            // post-restart resync off the self kPeerUp.
            node.protocol->on_peer_up(peer);
            node.sync->on_peer_up(peer);
          }
          ++handled;
          continue;
        }
        node.clock.advance_to(msg.arrival_time);
        node.clock.advance(kServiceNs);
        const bool is_sync = SyncAgent::handles(msg.type);
        {
          // One span per message handled: the service-side half of a
          // protocol transaction leg (or a sync-agent step).
          const TraceScope span(tracer_.get(), node.ctx.id,
                                is_sync ? TraceCat::kSync : TraceCat::kProto,
                                to_string(msg.type).data(), &node.clock, "src",
                                msg.src, "seq", msg.seq);
          if (is_sync) {
            node.sync->on_message(msg);
          } else {
            node.protocol->on_message(msg);
          }
        }
        ++handled;
      }
    }
    // Count the burst only after the batch scope flushed: anything our
    // handlers sent is in flight (and counted) before `processed_` can make
    // sent == processed, so drain() cannot observe a false quiescence while
    // replies sit staged.
    processed_.fetch_add(handled, std::memory_order_release);
  }
}

void System::drain() {
  // A handler may send more messages before bumping `processed_`, so the
  // fabric is quiescent exactly when sent == processed (no app threads are
  // alive to inject new work at this point). Under chaos, a message may
  // additionally be awaiting retransmission or sitting in a delay queue
  // before it is ever counted as sent — hence the idle() check.
  for (;;) {
    const auto sent = network_->messages_sent();
    const auto processed = processed_.load(std::memory_order_acquire);
    if (sent == processed && network_->idle()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void System::dump_diagnostics(std::ostream& os) const {
  os << "[tutordsm] diagnostic dump (" << to_string(cfg_.protocol) << ", "
     << cfg_.n_nodes << " nodes, " << cfg_.n_pages << " pages)\n";
  fault_engine_->debug_dump(os);
  network_->debug_dump(os);
  if (tracer_ != nullptr) tracer_->dump_tail(os, kDumpTailSpans);
  for (const auto& node : nodes_) {
    if (node == nullptr) continue;
    os << "  node " << node->ctx.id << " clock=" << node->clock.now() << "ns";
    if (cfg_.app_threads > 1) {
      os << " threads:";
      for (ThreadId t = 0; t < kMaxAppThreads; ++t) {
        const std::uint32_t ktid =
            node->thread_ktid[t].load(std::memory_order_relaxed);
        if (ktid != 0) os << " tid" << t << "(ktid=" << ktid << ")";
      }
    }
    os << '\n';
    for (PageId p = 0; p < node->table->n_pages(); ++p) {
      const PageEntry& e = node->table->entry(p);
      // Racy reads by design: the dump runs while threads are wedged, and
      // must not take the entry mutex a stuck transaction may hold.
      const bool interesting = e.busy || e.manager_busy || e.acks_outstanding > 0 ||
                               !e.parked.empty() || !e.manager_parked.empty();
      if (!interesting) continue;
      os << "    page " << p << " state=" << to_string(e.state)
         << (e.busy ? " busy" : "") << (e.manager_busy ? " manager_busy" : "")
         << " owner=" << e.owner << " prob_owner=" << e.prob_owner
         << " acks_outstanding=" << e.acks_outstanding
         << " parked=" << e.parked.size()
         << " manager_parked=" << e.manager_parked.size() << '\n';
    }
  }
  const auto snap = stats_.snapshot();
  os << "  counters: msgs=" << snap.counter("net.msgs")
     << " retransmits=" << snap.counter("net.retransmits")
     << " dups_suppressed=" << snap.counter("net.dups_suppressed")
     << " acks=" << snap.counter("net.acks")
     << " gave_up=" << snap.counter("net.gave_up")
     << " dropped=" << snap.counter("net.dropped") << '\n';
  if (checker_ != nullptr) checker_->dump_last_violation(os);
}

void System::exit_rendezvous() {
  const NodeId me = cfg_.transport.local_node;
  Node& node = *nodes_[me];
  const auto n = static_cast<std::uint64_t>(cfg_.n_nodes);
  const auto g = Watchdog::guard(watchdog_.get(), me, "exit-rendezvous", run_ordinal_);
  if (me == 0) {
    while (exit_ready_.load(std::memory_order_acquire) < (n - 1) * run_ordinal_) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (NodeId rank = 1; rank < cfg_.n_nodes; ++rank) {
      network_->send(node.ctx.make(MsgType::kExitGo, rank));
    }
  } else {
    network_->send(node.ctx.make(MsgType::kExitReady, 0));
    while (exit_go_.load(std::memory_order_acquire) < run_ordinal_) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // Until the rendezvous traffic itself is acked (idle), a peer may still
  // be depending on our retransmit daemon and service thread.
  drain();
}

void System::run(const std::function<void(Worker&)>& body) {
  DSM_CHECK_MSG(!running_, "System::run is not reentrant");
  running_ = true;
  ++run_ordinal_;

  // First run only: later runs continue from the previous run's coherence
  // state (ownership may have migrated away from the homes; resetting would
  // lose the migrated data).
  if (!pages_initialized_) {
    for (auto& node : nodes_) {
      if (node != nullptr) node->protocol->init_pages();
    }
    pages_initialized_ = true;
  }

  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    node->service_thread = std::thread([this, raw = node.get()] { service_loop(*raw); });
  }

  std::vector<std::thread> app_threads;
  app_threads.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!hosted(id)) continue;
    app_threads.emplace_back([this, id, &body] {
      // The primary body thread is app thread 0 of its node.
      Node& node = *nodes_[id];
      node.thread_ktid[0].store(current_ktid(), std::memory_order_release);
      const ScopedThreadAttach attach(id, 0);
      watchdog_->bind_thread(watchdog_->slot_of(id, 0), current_ktid());
      Worker worker(*this, id);
      try {
        body(worker);
      } catch (const WorkerKilled&) {
        // Injected crash: the worker thread stops mid-body. The service
        // thread lives on (a restarted node keeps serving pages) until the
        // regular shutdown below.
      }
      watchdog_->bind_thread(watchdog_->slot_of(id, 0), 0);
      node.thread_ktid[0].store(0, std::memory_order_release);
    });
  }

  // Multi-threaded runs: each node hosts app_threads - 1 attached sibling
  // threads that loop read-faulting on the shared scratch region for the
  // body's whole duration — every fault goes through the real uffd
  // dispatcher/executor path, colliding faults coalesce (mem.fault_coalesced),
  // and none of it perturbs protocol or checker state (see scratch_view_).
  std::atomic<bool> siblings_done{false};
  std::vector<std::thread> sibling_threads;
  if (scratch_view_ != nullptr) {
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (!hosted(id)) continue;
      for (std::size_t s = 1; s < cfg_.app_threads; ++s) {
        sibling_threads.emplace_back([this, id, &siblings_done] {
          const ThreadId tid = attach_thread(id);
          ViewRegion& scratch = *scratch_view_;
          const std::byte* base = scratch.base();
          std::uint64_t i = 0;
          while (!siblings_done.load(std::memory_order_relaxed)) {
            const PageId page = static_cast<PageId>(i++ % scratch.n_pages());
            // Reads only: read-read overlap is not a data race, so the mt
            // suites stay TSan-clean. The touch MINOR-faults whenever the
            // PTE is absent; the zap below re-arms it.
            const volatile std::byte* touch = base + page * scratch.page_size();
            (void)*touch;
            scratch.protect(page, Access::kNone);
            std::this_thread::yield();
          }
          detach_thread(id, tid);
        });
      }
    }
  }

  for (auto& t : app_threads) t.join();
  siblings_done.store(true, std::memory_order_relaxed);
  for (auto& t : sibling_threads) t.join();

  drain();
  // Local quiescence is not global quiescence when ranks are separate
  // processes: hold the service thread until every rank has drained.
  if (multiprocess()) exit_rendezvous();
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    network_->send(node->ctx.make(MsgType::kShutdown, node->ctx.id));
  }
  for (auto& node : nodes_) {
    if (node != nullptr) node->service_thread.join();
  }
  if (checker_ != nullptr) {
    // All service and app threads are gone: compare the checker's state
    // mirror and copyset model against the real page tables.
    std::vector<const PageTable*> tables;
    tables.reserve(nodes_.size());
    for (const auto& node : nodes_) tables.push_back(node->table.get());
    checker_->at_quiescence(tables);
  }
  running_ = false;
}

}  // namespace dsm
