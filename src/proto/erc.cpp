#include "proto/erc.hpp"

#include "common/logging.hpp"
#include "proto/fault_txn.hpp"
#include "proto/page_io.hpp"

namespace dsm {
namespace {

// Payload layouts:
//   kPageRequest  : u32 page | u32 requester
//   kPageReply    : u32 page | raw page bytes
//   kUpdate       : u32 page | u8 kind (0 = writer→home, 1 = home→holder) | bytes diff
//   kUpdateAck    : u32 page | u8 kind (0 = holder→home, 1 = home→writer final)
//   kInvalidate   : u32 page | u32 unused
//   kInvalidateAck: u32 page | u8 kept (1 = holder kept a dirty copy)
//   kCkptStore    : u32 page | u32 version | bytes raw page   (home → buddy)
//   kCkptFetch    : u32 requester                              (restarted home → buddy)
//   kCkptData     : u32 count | count × (u32 page | u32 version | bytes raw page)

constexpr std::uint8_t kToHome = 0;
constexpr std::uint8_t kFromHome = 1;

std::vector<std::byte> update_msg(PageId page, std::uint8_t kind,
                                  std::span<const std::byte> field) {
  WireWriter w(field.size() + 16);
  w.put(page);
  w.put(kind);
  w.put_bytes(field);
  return std::move(w).take();
}

}  // namespace

ErcProtocol::ErcProtocol(NodeContext& ctx, Mode mode)
    : Protocol(ctx), mode_(mode), twins_(ctx) {}

std::string_view ErcProtocol::name() const {
  return mode_ == Mode::kInvalidate ? "erc-invalidate" : "erc-update";
}

void ErcProtocol::init_pages() {
  // The home's copy is authoritative from the start; read-only so the
  // home's own writes are trapped and diffed like anyone else's.
  page_io::reset_pages(ctx_, PageState::kReadOnly, PageState::kInvalid);
  twins_.clear();
  flush_acks_.reset();
  const MutexLock lock(txn_mutex_);
  txns_.clear();
}

void ErcProtocol::on_read_fault(PageId page) { home_read_fault(ctx_, page); }

void ErcProtocol::on_write_fault(PageId page) {
  // The multiple-writer trick: go writable locally, remember the pristine
  // twin, and settle up at the next release. Zero messages.
  twins_.write_fault(page, [&] { fetch_from_home(ctx_, page, /*prefetch=*/false); });
}

void ErcProtocol::flush_dirty() {
  // Re-protect each page so the next write re-twins in a fresh interval.
  twins_.flush(flush_acks_, PageState::kReadOnly, [&](PageId page, const TwinSet::Closed& closed) {
    ctx_.stats->counter("erc.diff_bytes").add(closed.diff.size());
    const NodeId home = ctx_.home_of(page);
    std::vector<std::byte> field;
    if (home != ctx_.id && !ft()) {
      // The XOR form is sound here: the home's copy matches our twin on
      // every diffed word (DRF — nobody else wrote them this interval).
      // Under FT the value form is used instead: a flush re-sent to a
      // restarted home decodes against a rolled-back base, where an XOR
      // would corrupt the very words it released.
      field = page_io::pack_diff_field_xor(ctx_, closed.diff, ctx_.view->alias_span(page),
                                           {closed.twin.get(), ctx_.cfg->page_size});
    } else {
      // Self-update via loopback: by decode time our live page already
      // holds the new values, so there is no twin-equal base to XOR
      // against — ship the value form.
      field = page_io::pack_diff_field(ctx_, closed.diff);
    }
    if (ft() && home != ctx_.id) {
      // Keep the encoded field until the home's final ack: if this
      // incarnation of the home crashes first, the kPeerUp handler re-sends
      // it verbatim.
      unacked_.add(page, {home, ctx_.net->liveness().incarnation(home), field});
    }
    return ctx_.make(MsgType::kUpdate, home, update_msg(page, kToHome, field));
  });
  flush_acks_.wait();
}

void ErcProtocol::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPageRequest: handle_page_request(msg); return;
    case MsgType::kPageReply: handle_page_reply(msg); return;
    case MsgType::kUpdate: handle_update(msg); return;
    case MsgType::kUpdateAck: handle_update_ack(msg); return;
    case MsgType::kInvalidate: twins_.serve_invalidate(msg); return;
    case MsgType::kInvalidateAck: handle_invalidate_ack(msg); return;
    case MsgType::kCkptStore: handle_ckpt_store(msg); return;
    case MsgType::kCkptFetch: handle_ckpt_fetch(msg); return;
    case MsgType::kCkptData: handle_ckpt_data(msg); return;
    default:
      DSM_CHECK_MSG(false, "erc: unexpected message " << to_string(msg.type));
  }
}

void ErcProtocol::handle_page_request(const Message& msg) {
  if (restoring_) {
    // Restarted home, pre-restore: the authoritative copy is still at the
    // buddy. Parked requests replay once the checkpoints install.
    restore_parked_.push_back(msg);
    return;
  }
  page_io::serve_home_copy(ctx_, msg, [](PageEntry& e, NodeId requester) REQUIRES(e.mutex) {
    DSM_CHECK(e.state != PageState::kInvalid);
    e.copyset.insert(requester);
  });
}

void ErcProtocol::handle_page_reply(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  {
    // A fetch re-sent on kPeerUp may be answered twice; only a reply to a
    // fetch in flight completes it.
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    if (!e.busy) return;
  }
  complete_fetch(ctx_, page, page_io::get_page(ctx_, r));
}

void ErcProtocol::handle_update(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto kind = r.get<std::uint8_t>();

  if (kind == kFromHome) {
    // Home→holder updates never use the XOR form (no base negotiation), so
    // no decode base is needed.
    const auto diff = page_io::unpack_diff_field(ctx_, r.get_bytes(), {});
    auto& e = ctx_.table->entry(page);
    {
      const MutexLock lock(e.mutex);
      twins_.apply(page, e, diff);
    }
    WireWriter w(8);
    w.put(page);
    w.put(kToHome);
    ctx_.send(MsgType::kUpdateAck, msg.src, std::move(w).take());
    return;
  }
  home_begin_transaction(msg);
}

void ErcProtocol::home_begin_transaction(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  r.get<std::uint8_t>();
  const auto field = r.get_bytes();
  const NodeId writer = msg.src;

  if (restoring_) {
    restore_parked_.push_back(msg);
    return;
  }
  auto& e = ctx_.table->entry(page);
  std::vector<NodeId> targets;
  std::vector<std::byte> diff;
  {
    const MutexLock lock(e.mutex);
    DSM_CHECK_MSG(ctx_.home_of(page) == ctx_.id, "update at non-home");
    if (e.manager_busy) {
      e.manager_parked.push_back(msg);
      return;
    }
    e.manager_busy = true;

    // Decode under the entry lock, against the pre-apply home copy: for the
    // XOR form the base must match the writer's twin on every diffed word,
    // which DRF guarantees even for parked transactions replayed later
    // (intervening transactions touched disjoint words).
    diff = page_io::unpack_diff_field(ctx_, field, ctx_.view->alias_span(page));

    // The home copy is authoritative: fold the diff in (and into the home's
    // own twin if the home is itself mid-write on this page).
    twins_.apply(page, e, diff);
    ++e.version;
    if (ctx_.check != nullptr) {
      ctx_.check->on_page_version(ctx_.id, page, e.version);
    }

    for (const NodeId n : e.copyset.members()) {
      // Dead holders can never ack; skip them (their copies are gone with
      // them, and on_peer_down retires them from already-open transactions).
      if (n != writer && (!ft() || ctx_.net->liveness().alive(n))) targets.push_back(n);
    }
    if (mode_ == Mode::kInvalidate) {
      // Optimistically rebuild the copyset as the acks come back (keepers
      // re-add themselves via the `kept` flag). The copyset tracks non-home
      // holders only: the home's own copy is authoritative and never dies.
      e.copyset.clear();
      if (writer != ctx_.id) e.copyset.insert(writer);
    }
  }
  {
    const MutexLock lock(txn_mutex_);
    auto& txn = txns_[page];
    txn.writer = writer;
    txn.pending = std::set<NodeId>(targets.begin(), targets.end());
    txn.keeper_phase = false;
    txn.keepers.clear();
    txn.diff.assign(diff.begin(), diff.end());
  }

  if (targets.empty()) {
    home_finish_transaction(page);
    return;
  }
  if (mode_ == Mode::kInvalidate) {
    WireWriter w(8);
    w.put(page);
    w.put(NodeId{0});
    const auto payload = std::move(w).take();
    for (const NodeId n : targets) ctx_.send(MsgType::kInvalidate, n, payload);
  } else {
    const auto payload = update_msg(page, kFromHome, page_io::pack_diff_field(ctx_, diff));
    for (const NodeId n : targets) ctx_.send(MsgType::kUpdate, n, payload);
  }
}

void ErcProtocol::home_after_invalidations(PageId page) {
  // Invalidate mode, phase 2: concurrent writers kept their copies (their
  // unflushed words must not be destroyed), but they still have to observe
  // the released words — push the diff to exactly those nodes.
  std::vector<NodeId> keepers;
  std::vector<std::byte> diff;
  {
    const MutexLock lock(txn_mutex_);
    auto& txn = txns_.at(page);
    txn.keeper_phase = true;
    if (txn.keepers.empty()) {
      // nothing more to do
    } else {
      keepers = txn.keepers;
      txn.keepers.clear();
      diff = txn.diff;
      txn.pending = std::set<NodeId>(keepers.begin(), keepers.end());
    }
  }
  if (keepers.empty()) {
    home_finish_transaction(page);
    return;
  }
  ctx_.stats->counter("erc.keeper_updates").add(keepers.size());
  const auto payload = update_msg(page, kFromHome, page_io::pack_diff_field(ctx_, diff));
  for (const NodeId n : keepers) ctx_.send(MsgType::kUpdate, n, payload);
}

void ErcProtocol::home_finish_transaction(PageId page) {
  NodeId writer;
  {
    const MutexLock lock(txn_mutex_);
    auto& txn = txns_.at(page);
    writer = txn.writer;
    txn.diff.clear();
  }
  {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    e.manager_busy = false;
  }
  if (ft()) maybe_checkpoint(page);
  WireWriter w(8);
  w.put(page);
  w.put(kFromHome);
  ctx_.send(MsgType::kUpdateAck, writer, std::move(w).take());

  page_io::replay_parked(ctx_.table->entry(page), &PageEntry::manager_busy,
                         &PageEntry::manager_parked,
                         [this](const Message& next) { home_begin_transaction(next); });
}

void ErcProtocol::handle_update_ack(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto kind = r.get<std::uint8_t>();

  if (kind == kFromHome) {
    // Final ack to the releasing writer. Under FT a flush that reached a
    // restarted home and was also re-sent to it is acked twice: the ack
    // that finds no unacked flush is the duplicate.
    if (ft() && ctx_.home_of(page) != ctx_.id && !unacked_.retire(page)) return;
    flush_acks_.ack();
    return;
  }

  // Holder ack arriving back at the home.
  retire_ack(page, msg.src, /*keeper=*/false);
}

void ErcProtocol::handle_invalidate_ack(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const bool kept = r.get<std::uint8_t>() != 0;
  if (kept) {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    e.copyset.insert(msg.src);
  }
  retire_ack(page, msg.src, kept);
}

void ErcProtocol::retire_ack(PageId page, NodeId from, bool keeper) {
  bool done = false;
  {
    const MutexLock lock(txn_mutex_);
    auto& txn = txns_.at(page);
    const bool erased = txn.pending.erase(from) > 0;
    DSM_CHECK_MSG(erased || ft(), "erc: unexpected ack from " << from << " for page " << page);
    if (!erased) return;  // FT: the death handler already retired this ack
    if (keeper) txn.keepers.push_back(from);
    done = txn.pending.empty();
  }
  if (done) home_txn_advance(page);
}

void ErcProtocol::home_txn_advance(PageId page) {
  bool keeper_phase;
  {
    const MutexLock lock(txn_mutex_);
    keeper_phase = txns_.at(page).keeper_phase;
  }
  // Update mode has no second phase; invalidate mode runs invalidations then
  // keeper pushes. home_after_invalidations marks the phase transition.
  if (mode_ == Mode::kInvalidate && !keeper_phase) {
    home_after_invalidations(page);
  } else {
    home_finish_transaction(page);
  }
}

// --------------------------------------------------------------------------
// Crash fault tolerance: buddy checkpointing + recovery
// --------------------------------------------------------------------------

void ErcProtocol::maybe_checkpoint(PageId page) {
  const auto period = ctx_.cfg->ft.checkpoint_period;
  if (period == 0) return;
  std::uint32_t version;
  std::vector<std::byte> bytes;
  {
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    version = e.version;
    if (version % period != 0) return;
    const auto span = ctx_.view->alias_span(page);
    bytes.assign(span.begin(), span.end());
  }
  ctx_.stats->counter("ft.ckpt_stores").add();
  ctx_.stats->counter("ft.ckpt_bytes").add(bytes.size());
  WireWriter w(bytes.size() + 16);
  w.put(page);
  w.put(version);
  w.put_bytes(bytes);
  ctx_.send(MsgType::kCkptStore, buddy(), std::move(w).take());
}

void ErcProtocol::handle_ckpt_store(const Message& msg) {
  WireReader r(msg.payload);
  const auto page = r.get<PageId>();
  const auto version = r.get<std::uint32_t>();
  const auto bytes = r.get_bytes();
  auto& ckpt = ckpt_store_[page];
  // Retransmit reordering could deliver an older snapshot late.
  if (version < ckpt.version) return;
  ckpt.version = version;
  ckpt.bytes.assign(bytes.begin(), bytes.end());
}

void ErcProtocol::handle_ckpt_fetch(const Message& msg) {
  WireReader r(msg.payload);
  const auto requester = r.get<NodeId>();
  std::uint32_t count = 0;
  for (const auto& [page, ckpt] : ckpt_store_) {
    (void)ckpt;
    if (ctx_.home_of(page) == requester) ++count;
  }
  WireWriter w(64);
  w.put(count);
  for (const auto& [page, ckpt] : ckpt_store_) {
    if (ctx_.home_of(page) != requester) continue;
    w.put(page);
    w.put(ckpt.version);
    w.put_bytes(ckpt.bytes);
  }
  ctx_.send(MsgType::kCkptData, requester, std::move(w).take());
}

void ErcProtocol::handle_ckpt_data(const Message& msg) {
  if (!restoring_) return;  // duplicate restore reply
  WireReader r(msg.payload);
  const auto count = r.get<std::uint32_t>();
  std::size_t restored = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto page = r.get<PageId>();
    const auto version = r.get<std::uint32_t>();
    const auto bytes = r.get_bytes();
    auto& e = ctx_.table->entry(page);
    const MutexLock lock(e.mutex);
    page_io::write_page(ctx_, page, bytes);
    e.version = version;
    ++restored;
  }
  // Every home page becomes servable now — pages the buddy had no snapshot
  // of restore to their initial zeroed state (version 0): writes past their
  // last checkpoint boundary are the documented bounded loss.
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    if (ctx_.home_of(p) != ctx_.id) continue;
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    page_io::set_state(ctx_, p, e, PageState::kReadOnly);
  }
  restoring_ = false;
  ctx_.stats->counter("ft.ckpt_restored_pages").add(restored);
  ctx_.stats->histogram("ft.recovery_us")
      .record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              realclock::now() - restore_started_)
              .count()));
  // Replay everything that arrived while the restore was in flight.
  std::deque<Message> parked;
  parked.swap(restore_parked_);
  for (const Message& m : parked) on_message(m);
}

void ErcProtocol::on_peer_down(NodeId peer) {
  if (peer == ctx_.id) return;
  // Home side: retire the dead node's outstanding acks — a transaction
  // waiting on them would wedge its writer forever. (Idempotent: a second
  // announcement finds the pending sets already clean.)
  std::vector<PageId> drained;
  {
    const MutexLock lock(txn_mutex_);
    for (auto& [page, txn] : txns_) {
      if (txn.pending.erase(peer) > 0 && txn.pending.empty()) {
        drained.push_back(page);
      }
    }
  }
  for (const PageId page : drained) home_txn_advance(page);

  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    if (ctx_.home_of(p) != ctx_.id) continue;
    // Its copies died with it; stop invalidating/updating them.
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    e.copyset.erase(peer);
  }
  // Our clean copies of the dead home's pages may be newer than the
  // checkpoint it will restore from; drop them so post-restart reads
  // observe one consistent (if rolled-back) timeline.
  twins_.drop_clean([&](PageId p) { return ctx_.home_of(p) == peer; });
}

void ErcProtocol::on_peer_up(NodeId peer) {
  if (peer == ctx_.id) {
    // We just restarted: pull our pages' snapshots back from the buddy.
    WireWriter w(8);
    w.put(ctx_.id);
    ctx_.send(MsgType::kCkptFetch, buddy(), std::move(w).take());
    return;
  }
  // A home we were mid-flush to came back: re-send the unacked fields its
  // old incarnation may have lost (value form — idempotent against the
  // restored base). One sent to the new incarnation is delivered already.
  const std::uint32_t incarnation = ctx_.net->liveness().incarnation(peer);
  unacked_.for_each([&](PageId page, Unacked::Flush& flush) {
    if (flush.target != peer || flush.incarnation >= incarnation) return;
    flush.incarnation = incarnation;
    ctx_.stats->counter("ft.flush_resends").add();
    ctx_.send(MsgType::kUpdate, peer, update_msg(page, kToHome, flush.field));
  });
  // Fetches into the crash window were dropped with the old incarnation.
  for (PageId p = 0; p < ctx_.table->n_pages(); ++p) {
    if (ctx_.home_of(p) != peer) continue;
    auto& e = ctx_.table->entry(p);
    const MutexLock lock(e.mutex);
    if (!e.busy) continue;
    ctx_.stats->counter("ft.fetch_resends").add();
    ctx_.send(MsgType::kPageRequest, peer, page_io::encode_req(p, ctx_.id));
  }
}

void ErcProtocol::on_self_restart() {
  restore_started_ = realclock::now();
  page_io::reset_pages(ctx_, PageState::kInvalid, PageState::kInvalid);
  twins_.clear();
  flush_acks_.reset();
  unacked_.clear();
  {
    const MutexLock lock(txn_mutex_);
    txns_.clear();
  }
  // Snapshots we held for our predecessor died with us — its next restore
  // falls back to zeroed pages (bounded loss, documented).
  ckpt_store_.clear();
  restore_parked_.clear();
  // Requests racing in ahead of the buddy's kCkptData park behind this flag;
  // set before the runtime marks us alive.
  restoring_ = true;
}

}  // namespace dsm
