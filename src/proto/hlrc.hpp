// Home-based lazy release consistency (HLRC, Zhou & Iftode's successor to
// TreadMarks — the "future work" direction the tutorial's material points
// at). Like LRC, nothing is broadcast and invalidations travel as write
// notices filtered by vector clocks at acquire time. Unlike LRC, every
// page has a *home* whose copy is kept current: a releaser flushes its
// diffs to the homes (and waits for acks) before the release completes, so
// a faulting acquirer simply fetches the whole page from the home — no
// per-writer diff requests, no diff caches, no accumulation, no GC.
//
// The trade (measured by the benches): releases pay eager unicast diffs
// like Munin, but acquire-side faults are one round trip to a single place
// like IVY, and barriers are pure notice exchanges.
#pragma once

#include "proto/notice_log.hpp"
#include "proto/protocol.hpp"
#include "proto/twin_set.hpp"

namespace dsm {

class HlrcProtocol final : public Protocol {
 public:
  explicit HlrcProtocol(NodeContext& ctx);

  std::string_view name() const override;
  void init_pages() override;
  void on_read_fault(PageId page) override;
  void on_write_fault(PageId page) override;
  void on_message(const Message& msg) override;

  // Lock and barrier payloads are the notice log's; only a release's flush
  // and what a notice does to a page are HLRC's own.
  void fill_lock_request(LockId, WireWriter& out) override { log_.fill_request(out); }
  void fill_lock_grant(LockId, NodeId, std::span<const std::byte> request_payload,
                       WireWriter& out) override {
    log_.fill_grant(request_payload, out);
  }
  void on_lock_granted(LockId, WireReader& in) override { log_.on_grant(in); }
  void before_release(LockId) override { close_and_flush(); }
  void before_barrier(BarrierId) override { close_and_flush(); }
  void fill_barrier_arrive(BarrierId, WireWriter& out) override { log_.fill_arrive(out); }
  void on_barrier_collect(BarrierId, NodeId, WireReader& in) override { log_.collect(in); }
  void fill_barrier_release(BarrierId, WireWriter& out) override { log_.fill_release(out); }
  void on_barrier_release(BarrierId, WireReader& in) override;

  const VectorClock& vclock() const { return log_.vclock(); }

 private:
  /// Closes the open interval: flushes its diffs to the pages' homes,
  /// records the interval and waits for the acks. App thread.
  void close_and_flush();

  void handle_page_reply(const Message& msg);
  void handle_flush(const Message& msg);  // home side: apply a diff

  // A notice invalidates the page, except at its home, whose copy is
  // authoritative and already flushed-to.
  NoticeLog log_;

  TwinSet twins_;
  // One ack per flushed diff, from its page's home.
  AckCount flush_acks_;
};

}  // namespace dsm
