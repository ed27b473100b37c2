// The userfaultfd fault engine. The app view keeps the exact memfd
// double-map layout the sigsegv engine uses (region.hpp), but instead of
// mprotect rights it is registered with a userfaultfd in **minor-fault +
// write-protect** mode:
//
//   kNone       app-view PTEs zapped (MADV_DONTNEED). The shmem pages — and
//               therefore the bytes, still reachable through the service
//               window alias — survive; the next app touch raises a MINOR
//               fault (page in cache, absent from the VMA's page table).
//   kRead       PTE installed (UFFDIO_CONTINUE) with the uffd write-protect
//               bit set (UFFDIO_WRITEPROTECT): reads retire, writes raise a
//               WP fault.
//   kReadWrite  PTE installed, write-protect bit clear.
//
// Every page is pre-touched through the alias at registration so it exists
// in the shmem file from the start — all app faults are then MINOR or WP
// events, never MISSING, and UFFDIO_COPY's install-with-contents job is done
// by the alias write + CONTINUE pair instead (the alias already *is* the
// page). A dedicated poller thread per region reads fault events and runs
// the protocol fault handler — ordinary thread context, not a signal frame.
//
// Resume ordering is the load-bearing invariant: protect() NEVER wakes a
// blocked faulting thread (CONTINUE is issued with DONTWAKE; setting the WP
// bit never wakes by kernel rule; clearing it uses DONTWAKE). The poller
// alone wakes the faulted range, once, after the handler returns — exactly
// the sigsegv semantics, where the faulting instruction cannot retry before
// the in-handler protocol transaction completes. Without this, a protocol's
// intermediate read-install inside a write-fault transaction would wake the
// writer early and manufacture a second (WP) fault the sigsegv engine never
// sees, breaking conformance.
#include "mem/fault_engine.hpp"

#if defined(__linux__) && __has_include(<linux/userfaultfd.h>)
#include <linux/userfaultfd.h>
#endif

// The engine needs the minor-fault + write-protect userfaultfd API (kernel
// headers >= 5.19-era). Older build environments compile the probe-fails
// stub at the bottom of this file instead.
#if defined(UFFDIO_REGISTER_MODE_MINOR) && defined(UFFDIO_CONTINUE) && \
    defined(UFFD_FEATURE_MINOR_SHMEM) && defined(UFFD_FEATURE_WP_HUGETLBFS_SHMEM)
#define TUTORDSM_HAVE_UFFD 1
#else
#define TUTORDSM_HAVE_UFFD 0
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/lock_order.hpp"
#include "common/logging.hpp"
#include "common/thread_annotations.hpp"

#if TUTORDSM_HAVE_UFFD
#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace dsm {

namespace {

bool uffd_forced_unavailable() {
  const char* value = std::getenv("TUTORDSM_UFFD_UNAVAILABLE");
  return value != nullptr && *value != '\0' && std::strcmp(value, "0") != 0;
}

}  // namespace

#if TUTORDSM_HAVE_UFFD

namespace {

// UFFD_USER_MODE_ONLY (kernel >= 5.11) lets unprivileged processes create a
// userfaultfd restricted to user-mode faults — all a DSM app view ever
// raises — even when vm.unprivileged_userfaultfd is 0.
#ifndef UFFD_USER_MODE_ONLY
#define UFFD_USER_MODE_ONLY 1
#endif

// UFFDIO_CONTINUE_MODE_WP (kernel >= 6.0 headers) — the ioctl mode bits are
// stable kernel ABI, so define the constant when building against older
// headers; whether the *running* kernel honors it is what the functional
// probe in uffd_available() below establishes (EINVAL there → unavailable).
#ifndef UFFDIO_CONTINUE_MODE_WP
#define UFFDIO_CONTINUE_MODE_WP (static_cast<__u64>(1) << 1)
#endif

// UFFD_FEATURE_EXACT_ADDRESS (kernel >= 5.18): without it fault addresses
// arrive page-masked, which would collapse every access to byte offset 0 —
// dsmcheck's word-granular race attribution needs the real address, exactly
// as the SIGSEGV trap frame delivers it.
#ifndef UFFD_FEATURE_EXACT_ADDRESS
#define UFFD_FEATURE_EXACT_ADDRESS (static_cast<__u64>(1) << 11)
#endif

// UFFD_FEATURE_THREAD_ID (kernel >= 4.14, far older than the minor-fault
// floor): stamps each event with the faulting thread's kernel tid, which is
// how a multi-threaded node attributes a fault serviced on an executor
// thread back to the (node, app-thread) pair that raised it.
#ifndef UFFD_FEATURE_THREAD_ID
#define UFFD_FEATURE_THREAD_ID (static_cast<__u64>(1) << 8)
#endif

// O_NONBLOCK is load-bearing, not a preference: poll(2) on a *blocking*
// userfaultfd reports POLLERR instead of "no events yet" (userfaultfd(2)),
// which would spin the poller forever while the faulting thread sleeps.
int open_uffd() {
  int fd = static_cast<int>(
      ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  if (fd < 0 && errno == EINVAL) {
    // Pre-5.11 kernel: the UFFD_USER_MODE_ONLY flag is unknown; retry without
    // it (works when unprivileged userfaultfd is permitted).
    fd = static_cast<int>(::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK));
  }
  return fd;
}

constexpr std::uint64_t kNeededFeatures =
    UFFD_FEATURE_MINOR_SHMEM | UFFD_FEATURE_WP_HUGETLBFS_SHMEM |
    UFFD_FEATURE_EXACT_ADDRESS | UFFD_FEATURE_THREAD_ID;

/// One kernel fault event, classified and queued for an executor.
struct PendingFault {
  PageId page = kNoPage;
  std::size_t offset = 0;
  bool is_write = false;
  bool wp_fault = false;
  std::uint32_t ktid = 0;  ///< faulting thread's kernel tid (THREAD_ID)
};

/// One registered region: its own userfaultfd, its own poller thread. With
/// one app thread (hooks.app_threads == 1, the historical model) at most one
/// fault is ever pending, so the poller services events inline — the exact
/// pre-mt sequence. With N app threads the poller turns dispatcher: it
/// classifies events, coalesces same-page duplicates against the in-flight
/// set, and feeds an executor pool that runs the protocol handlers — so
/// faults on different pages are serviced concurrently.
struct UffdRegion {
  ViewRegion* view = nullptr;
  RegionHooks hooks;
  int uffd = -1;
  int stop_pipe[2] = {-1, -1};  ///< write end poked to stop the poller
  std::thread poller;

  // Executor-pool state; unused (pool empty) when app_threads == 1. The
  // queue mutex is held only around container flips — never across the
  // protocol handler, which takes page/fabric locks of its own.
  Mutex queue_mutex ACQUIRED_BEFORE(lock_order::fabric_gate);
  CondVar queue_cv;
  std::deque<PendingFault> queue GUARDED_BY(queue_mutex);
  std::set<PageId> in_flight GUARDED_BY(queue_mutex);
  bool stopping GUARDED_BY(queue_mutex) = false;
  std::vector<std::thread> pool;
};

class UffdEngine final : public FaultEngine {
 public:
  explicit UffdEngine(StatsRegistry* stats) : stats_(stats) {
    std::string reason;
    DSM_CHECK_MSG(uffd_available(&reason), "uffd engine requested but " << reason);
  }

  ~UffdEngine() override {
    // Engine teardown with regions still registered: release them (the
    // System removes explicitly; raw-engine users may rely on the dtor).
    std::vector<int> live;
    {
      const MutexLock lock(mutex_);
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        if (regions_[i] != nullptr) live.push_back(static_cast<int>(i));
      }
    }
    for (const int token : live) remove_region(token);
  }

  std::string_view name() const override { return "uffd"; }
  FaultEngineKind kind() const override { return FaultEngineKind::kUffd; }

  int add_region(ViewRegion* view, RegionHooks hooks) override {
    DSM_CHECK(view != nullptr && hooks.on_fault != nullptr);
    DSM_CHECK_MSG(!view->has_protect_route(),
                  "region already registered with a fault engine");
    auto region = std::make_unique<UffdRegion>();
    region->view = view;
    region->hooks = std::move(hooks);

    region->uffd = open_uffd();
    DSM_CHECK_MSG(region->uffd >= 0, "userfaultfd failed: " << std::strerror(errno));
    struct uffdio_api api = {};
    api.api = UFFD_API;
    api.features = kNeededFeatures;
    DSM_CHECK_MSG(::ioctl(region->uffd, UFFDIO_API, &api) == 0,
                  "UFFDIO_API failed: " << std::strerror(errno));

    // The app view was mapped PROT_NONE (the sigsegv engine's all-invalid
    // state); under uffd the VMA itself is fully accessible and access
    // control lives in the PTEs instead.
    DSM_CHECK_MSG(::mprotect(view->base(), view->size_bytes(), PROT_READ | PROT_WRITE) == 0,
                  "mprotect(app view, RW) failed: " << std::strerror(errno));

    struct uffdio_register reg = {};
    reg.range.start = reinterpret_cast<unsigned long long>(view->base());  // NOLINT
    reg.range.len = view->size_bytes();
    reg.mode = UFFDIO_REGISTER_MODE_MINOR | UFFDIO_REGISTER_MODE_WP;
    DSM_CHECK_MSG(::ioctl(region->uffd, UFFDIO_REGISTER, &reg) == 0,
                  "UFFDIO_REGISTER failed: " << std::strerror(errno));

    // Pre-touch every page through the alias so it exists in the shmem file:
    // from here on, every app-view fault is MINOR (page in cache, no PTE),
    // never MISSING. Read-then-write-back keeps any existing bytes intact.
    for (PageId p = 0; p < view->n_pages(); ++p) {
      volatile std::byte* first = view->alias_ptr(p);
      *first = *first;
    }
    // All pages start invalid: zap whatever PTEs the pre-touch-era app view
    // may have had (normally none — the view was PROT_NONE until now).
    zap(*region, 0, view->n_pages());

    DSM_CHECK(::pipe2(region->stop_pipe, O_CLOEXEC) == 0);

    UffdRegion* raw = region.get();
    view->set_protect_route(
        [this, raw](PageId page, Access access) { do_protect(*raw, page, access); });
    // Multi-threaded nodes get an executor pool; a single-threaded node
    // keeps the historical inline-service poller (pool empty).
    if (region->hooks.app_threads > 1) {
      const std::size_t n_exec = std::min(region->hooks.app_threads, kMaxAppThreads);
      region->pool.reserve(n_exec);
      for (std::size_t i = 0; i < n_exec; ++i) {
        region->pool.emplace_back([this, raw] { executor_loop(*raw); });
      }
    }
    region->poller = std::thread([this, raw] { poll_loop(*raw); });

    const MutexLock lock(mutex_);
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i] == nullptr) {
        regions_[i] = std::move(region);
        return static_cast<int>(i);
      }
    }
    regions_.push_back(std::move(region));
    return static_cast<int>(regions_.size() - 1);
  }

  void remove_region(int token) override {
    std::unique_ptr<UffdRegion> region;
    {
      const MutexLock lock(mutex_);
      const auto idx = static_cast<std::size_t>(token);
      DSM_CHECK(token >= 0 && idx < regions_.size() && regions_[idx] != nullptr);
      region = std::move(regions_[idx]);
    }
    // No fault may be in flight by contract (app threads joined), so the
    // poller is blocked in poll(): poke it and join. Executors then drain
    // whatever the dispatcher already queued (nothing, by the same contract)
    // and exit on the stopping flag.
    const char byte = 's';
    DSM_CHECK(::write(region->stop_pipe[1], &byte, 1) == 1);
    region->poller.join();
    {
      const MutexLock lock(region->queue_mutex);
      region->stopping = true;
    }
    region->queue_cv.notify_all();
    for (auto& exec : region->pool) exec.join();
    region->view->set_protect_route(nullptr);

    struct uffdio_range range = {};
    range.start = reinterpret_cast<unsigned long long>(region->view->base());  // NOLINT
    range.len = region->view->size_bytes();
    ::ioctl(region->uffd, UFFDIO_UNREGISTER, &range);
    ::close(region->uffd);
    ::close(region->stop_pipe[0]);
    ::close(region->stop_pipe[1]);
    // Leave the app view PTE-less but RW-mapped; a later engine (or raw
    // mprotect use) re-establishes whatever rights it needs.
  }

  void protect(const ViewRegion& view, PageId page, Access access) override {
    UffdRegion* region = nullptr;
    {
      const MutexLock lock(mutex_);
      for (auto& candidate : regions_) {
        if (candidate != nullptr && candidate->view == &view) {
          region = candidate.get();
          break;
        }
      }
    }
    DSM_CHECK_MSG(region != nullptr, "protect on a region this engine does not own");
    do_protect(*region, page, access);
  }

  int active_regions() const override {
    const MutexLock lock(mutex_);
    int n = 0;
    for (const auto& region : regions_) {
      if (region != nullptr) ++n;
    }
    return n;
  }

  void debug_dump(std::ostream& os) const override {
    FaultEngine::debug_dump(os);
    if (stats_ == nullptr) return;
    const auto snap = stats_->snapshot();
    os << "    uffd: minor=" << snap.counter("uffd.minor_faults")
       << " wp=" << snap.counter("uffd.wp_faults")
       << " continues=" << snap.counter("uffd.continues")
       << " writeprotects=" << snap.counter("uffd.writeprotects")
       << " zaps=" << snap.counter("uffd.zaps")
       << " wakes=" << snap.counter("uffd.wakes")
       << " coalesced=" << snap.counter("mem.fault_coalesced") << '\n';
  }

 private:
  void count(const char* name) {
    if (stats_ != nullptr) stats_->counter(name).add();
  }

  static struct uffdio_range page_range(const UffdRegion& region, PageId page,
                                        std::size_t n = 1) {
    struct uffdio_range range = {};
    range.start =
        reinterpret_cast<unsigned long long>(region.view->page_ptr(page));  // NOLINT
    range.len = n * region.view->page_size();
    return range;
  }

  /// Zaps [first, first+n) pages' app-view PTEs. Bytes survive in shmem.
  void zap(const UffdRegion& region, PageId first, std::size_t n) {
    const int rc = ::madvise(region.view->page_ptr(first),
                             n * region.view->page_size(), MADV_DONTNEED);
    DSM_CHECK_MSG(rc == 0, "madvise(DONTNEED) failed: " << std::strerror(errno));
  }

  /// Installs the page's PTE from the shmem page cache, without waking any
  /// blocked faulter. `write_protected` must be baked into the CONTINUE
  /// itself (UFFDIO_CONTINUE_MODE_WP): installing writable and flipping the
  /// WP bit in a second ioctl would open a window where an app-thread store
  /// retires untrapped — a lost update the protocol never twins or diffs.
  /// Returns false on EEXIST (already mapped — the downgrade/upgrade case,
  /// where the caller adjusts the existing PTE's WP bit instead).
  bool map_page(const UffdRegion& region, PageId page, bool write_protected) {
    struct uffdio_continue cont = {};
    cont.range = page_range(region, page);
    cont.mode = UFFDIO_CONTINUE_MODE_DONTWAKE;
    if (write_protected) cont.mode |= UFFDIO_CONTINUE_MODE_WP;
    while (::ioctl(region.uffd, UFFDIO_CONTINUE, &cont) != 0) {
      if (errno == EEXIST) return false;
      DSM_CHECK_MSG(errno == EAGAIN,
                    "UFFDIO_CONTINUE(page " << page << ") failed: " << std::strerror(errno));
      cont.mapped = 0;  // retry after transient mm contention
    }
    count("uffd.continues");
    return true;
  }

  /// Sets or clears the page's uffd write-protect bit. Setting never wakes
  /// (kernel rule — WP|DONTWAKE is even rejected as EINVAL); clearing is
  /// issued with DONTWAKE so resume stays the poller's job.
  void write_protect(const UffdRegion& region, PageId page, bool protect_writes) {
    struct uffdio_writeprotect wp = {};
    wp.range = page_range(region, page);
    wp.mode = protect_writes ? std::uint64_t{UFFDIO_WRITEPROTECT_MODE_WP}
                             : std::uint64_t{UFFDIO_WRITEPROTECT_MODE_DONTWAKE};
    while (::ioctl(region.uffd, UFFDIO_WRITEPROTECT, &wp) != 0) {
      DSM_CHECK_MSG(errno == EAGAIN, "UFFDIO_WRITEPROTECT(page "
                                         << page << ") failed: " << std::strerror(errno));
    }
    count("uffd.writeprotects");
  }

  void do_protect(UffdRegion& region, PageId page, Access access) {
    DSM_CHECK_MSG(page < region.view->n_pages(),
                  "protect of out-of-range page " << page);
    switch (access) {
      case Access::kNone:
        zap(region, page, 1);
        count("uffd.zaps");
        return;
      case Access::kRead:
        // Freshly-installed PTE is born write-protected (atomic); an
        // already-mapped page (RW→R downgrade) flips its WP bit in place —
        // also atomic. Either way there is no writable instant in between.
        if (!map_page(region, page, /*write_protected=*/true)) {
          write_protect(region, page, /*protect_writes=*/true);
        }
        return;
      case Access::kReadWrite:
        if (!map_page(region, page, /*write_protected=*/false)) {
          write_protect(region, page, /*protect_writes=*/false);
        }
        return;
    }
  }

  void poll_loop(UffdRegion& region) {
    for (;;) {
      struct pollfd fds[2] = {{region.uffd, POLLIN, 0}, {region.stop_pipe[0], POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        DSM_CHECK_MSG(false, "uffd poll failed: " << std::strerror(errno));
      }
      if ((fds[1].revents & POLLIN) != 0) return;  // stop requested
      if ((fds[0].revents & POLLIN) == 0) continue;

      struct uffd_msg msg = {};
      const ssize_t n = ::read(region.uffd, &msg, sizeof(msg));
      if (n <= 0) continue;  // raced with teardown
      if (msg.event != UFFD_EVENT_PAGEFAULT) continue;

      const auto* addr = reinterpret_cast<const std::byte*>(  // NOLINT
          static_cast<std::uintptr_t>(msg.arg.pagefault.address));
      const auto flags = msg.arg.pagefault.flags;
      PendingFault fault;
      fault.page = region.view->page_of(addr);
      fault.offset = region.view->offset_of(addr) % region.view->page_size();
      fault.wp_fault = (flags & UFFD_PAGEFAULT_FLAG_WP) != 0;
      fault.is_write = (flags & UFFD_PAGEFAULT_FLAG_WRITE) != 0;
      fault.ktid = msg.arg.pagefault.feat.ptid;
      count(fault.wp_fault ? "uffd.wp_faults" : "uffd.minor_faults");

      if (region.pool.empty()) {
        // Single app thread: service inline on the poller — the historical
        // one-event-at-a-time sequence, bit-identical to the pre-mt engine.
        service_fault(region, fault);
        continue;
      }
      // Dispatcher mode. A second fault on a page whose service is already
      // in flight coalesces: the faulting thread stays parked, the one
      // whole-page UFFDIO_WAKE issued when that service completes wakes it
      // too, and if its rights are still insufficient it re-faults and gets
      // dispatched fresh. Everything else queues for the executor pool.
      bool dispatched = false;
      {
        const MutexLock lock(region.queue_mutex);
        if (region.in_flight.contains(fault.page)) {
          count("mem.fault_coalesced");
        } else {
          region.in_flight.insert(fault.page);
          region.queue.push_back(fault);
          dispatched = true;
        }
      }
      if (dispatched) region.queue_cv.notify_one();
    }
  }

  /// Runs the protocol handler for one classified fault. Called inline on
  /// the poller (single-thread mode) or on an executor thread (pool mode).
  void run_handler(UffdRegion& region, const PendingFault& fault) {
    // The uffd service leg: kernel event → protocol handler complete,
    // on the owning node's virtual timeline (the runtime's read-fault /
    // write-fault span opens inside this one).
    const TraceScope span(region.hooks.trace, region.hooks.node, TraceCat::kFault,
                          fault.wp_fault ? "uffd-wp" : "uffd-minor", region.hooks.clock,
                          "page", fault.page, "write",
                          static_cast<std::uint64_t>(fault.is_write));
    const detail::FaultKtidScope ktid_scope(fault.ktid);
    region.hooks.on_fault(fault.page, fault.offset, fault.is_write);
  }

  /// Single wake, after the handler installed the page's final rights — the
  /// uffd equivalent of returning from the SIGSEGV handler. Wakes every
  /// thread parked on the page, including coalesced same-page faulters.
  void wake_page(UffdRegion& region, PageId page) {
    struct uffdio_range wake = page_range(region, page);
    while (::ioctl(region.uffd, UFFDIO_WAKE, &wake) != 0) {
      DSM_CHECK_MSG(errno == EAGAIN, "UFFDIO_WAKE(page " << page
                                         << ") failed: " << std::strerror(errno));
    }
    count("uffd.wakes");
  }

  void service_fault(UffdRegion& region, const PendingFault& fault) {
    run_handler(region, fault);
    wake_page(region, fault.page);
  }

  /// Executor-pool worker: drain dispatched faults until teardown.
  void executor_loop(UffdRegion& region) {
    for (;;) {
      PendingFault fault;
      {
        MutexLock lock(region.queue_mutex);
        while (region.queue.empty() && !region.stopping)
          region.queue_cv.wait(region.queue_mutex);
        if (region.queue.empty()) return;  // stopping, drained
        fault = region.queue.front();
        region.queue.pop_front();
      }
      run_handler(region, fault);
      {
        // Retire the page from in_flight BEFORE waking it. A woken thread
        // whose rights are still insufficient re-faults immediately; if the
        // page were still marked in-flight the poller would coalesce that
        // fault against a wake that has already happened and the thread
        // would park forever. Erasing first means every fault the poller
        // coalesced is covered by the wake below, and any fault arriving
        // after the erase is dispatched fresh. A spurious re-service of a
        // page that already has rights, as with SIGSEGV races, runs its
        // handler for a thread already back in its own op (Watchdog::Slot).
        const MutexLock lock(region.queue_mutex);
        region.in_flight.erase(fault.page);
      }
      wake_page(region, fault.page);
    }
  }

  StatsRegistry* stats_;
  // Guards the slot table only; pollers never take it (each owns its region
  // outright). Registration happens during setup, above the fabric bracket.
  mutable Mutex mutex_ ACQUIRED_BEFORE(lock_order::fabric_gate);
  std::vector<std::unique_ptr<UffdRegion>> regions_ GUARDED_BY(mutex_);
};

}  // namespace

// Functional capability probe: rather than trusting feature bits alone, run
// the engine's actual page lifecycle against a one-page scratch memfd —
// register MINOR|WP, pre-touch through an alias, then install the PTE
// write-protected in one atomic UFFDIO_CONTINUE. A kernel that advertises
// minor faults but predates UFFDIO_CONTINUE_MODE_WP (5.13..6.2) fails here
// instead of racing silently at run time.
bool uffd_available(std::string* reason) {
  const auto fail = [reason](const std::string& why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (uffd_forced_unavailable()) {
    return fail("disabled by TUTORDSM_UFFD_UNAVAILABLE");
  }
  const int fd = open_uffd();
  if (fd < 0) {
    return fail(std::string("userfaultfd syscall unavailable: ") + std::strerror(errno));
  }
  struct uffdio_api api = {};
  api.api = UFFD_API;
  api.features = kNeededFeatures;
  if (::ioctl(fd, UFFDIO_API, &api) != 0) {
    const std::string why =
        std::string("kernel lacks userfaultfd minor-fault/write-protect support "
                    "for shmem (need >= 5.19): UFFDIO_API failed: ") +
        std::strerror(errno);
    ::close(fd);
    return fail(why);
  }
  if ((kNeededFeatures & ~api.features) != 0) {
    ::close(fd);
    return fail("kernel lacks userfaultfd minor-fault/write-protect support "
                "for shmem (need >= 5.19)");
  }

  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const int memfd = ::memfd_create("dsm-uffd-probe", MFD_CLOEXEC);
  if (memfd < 0) {
    ::close(fd);
    return fail(std::string("memfd_create failed: ") + std::strerror(errno));
  }
  std::string why;
  void* app = MAP_FAILED;
  void* alias = MAP_FAILED;
  if (::ftruncate(memfd, static_cast<off_t>(page)) != 0) {
    why = std::string("ftruncate failed: ") + std::strerror(errno);
  } else {
    app = ::mmap(nullptr, page, PROT_READ | PROT_WRITE, MAP_SHARED, memfd, 0);
    alias = ::mmap(nullptr, page, PROT_READ | PROT_WRITE, MAP_SHARED, memfd, 0);
    if (app == MAP_FAILED || alias == MAP_FAILED) {
      why = std::string("mmap failed: ") + std::strerror(errno);
    }
  }
  if (why.empty()) {
    struct uffdio_register reg = {};
    reg.range.start = reinterpret_cast<unsigned long long>(app);  // NOLINT
    reg.range.len = page;
    reg.mode = UFFDIO_REGISTER_MODE_MINOR | UFFDIO_REGISTER_MODE_WP;
    if (::ioctl(fd, UFFDIO_REGISTER, &reg) != 0) {
      why = std::string("UFFDIO_REGISTER(MINOR|WP) failed: ") + std::strerror(errno);
    } else {
      volatile std::byte* touch = static_cast<std::byte*>(alias);
      *touch = *touch;  // materialise the shmem page so CONTINUE has a source
      struct uffdio_continue cont = {};
      cont.range = reg.range;
      cont.mode = UFFDIO_CONTINUE_MODE_DONTWAKE | UFFDIO_CONTINUE_MODE_WP;
      if (::ioctl(fd, UFFDIO_CONTINUE, &cont) != 0 && errno != EEXIST) {
        why = std::string("UFFDIO_CONTINUE(WP) failed (kernel < 6.3?): ") +
              std::strerror(errno);
      }
    }
  }
  if (app != MAP_FAILED) ::munmap(app, page);
  if (alias != MAP_FAILED) ::munmap(alias, page);
  ::close(memfd);
  ::close(fd);
  if (!why.empty()) return fail(why);
  return true;
}

std::unique_ptr<FaultEngine> make_uffd_engine(StatsRegistry* stats) {
  return std::make_unique<UffdEngine>(stats);
}

#else  // !TUTORDSM_HAVE_UFFD

bool uffd_available(std::string* reason) {
  if (reason != nullptr) {
    *reason = uffd_forced_unavailable()
                  ? "disabled by TUTORDSM_UFFD_UNAVAILABLE"
                  : "built without userfaultfd support (kernel headers lack "
                    "the minor-fault + write-protect API)";
  }
  return false;
}

std::unique_ptr<FaultEngine> make_uffd_engine(StatsRegistry*) {
  DSM_CHECK_MSG(false, "uffd engine requested but this build has no userfaultfd "
                       "support; probe uffd_available() first");
  return nullptr;
}

#endif  // TUTORDSM_HAVE_UFFD

}  // namespace dsm
