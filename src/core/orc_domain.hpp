// OrcDomain: an instance-scoped OrcGC reclamation domain (paper §4.1,
// Algorithms 3, 5 and 6 — engine logic unchanged; the scope changed).
//
// The paper presents PassThePointerOrcGC as a process-wide service. This
// header generalizes it: all reclamation state — per-thread hazardous
// pointers, handover slots, watermarks, retire scratch — lives in an
// OrcDomain instance, and any number of domains can coexist. Objects are
// tagged with their owning domain at allocation (orc_base::_orc_dom), so
// counter updates and retires route to the right domain no matter which
// thread performs them, while protection (load / make_orc) uses the
// *ambient* domain — a thread-local set by ScopedDomain, defaulting to the
// global domain.
//
// Why domains: one tenant parking dozens of hazardous pointers, or retiring
// in storms, inflates every other tenant's retire scans when all state is
// shared (the cross-thread interference cost identified by Stamp-it, and
// avoided by Hyaline's instance-local state). A domain's retire scans walk
// only that domain's hp slots, so noisy neighbors in other domains cost the
// quiet domain nothing (bench_domains measures exactly this).
//
// Per-domain, per-thread state (DomainState, ex-TLInfo):
//   * hp[]        published hazardous pointers (index 0 is a scratch slot
//                 used internally while mutating _orc — Proposition 1),
//   * handovers[] the pass-the-pointer parking slots paired 1:1 with hp,
//   * used_haz[]  thread-local reference counts of how many live orc_ptr
//                 instances share each hp index,
//   * hp_wm /     published scan bounds so retire scans touch only the slots
//     hp_peak     a thread actually uses (see "Retire-path complexity" in
//                 DESIGN.md),
//   * the recursion guard that flattens cascading retires (a deleted node's
//     orc_atomic members decrement — and possibly retire — their targets),
//   * deferred[]  the deferral buffer retires outside a cascade append to.
//
// Retire scans have one form, the walk-park generation scan
// (scan_generation): the cascade *generation* is sorted, then one
// asym::heavy() and one walk over every published hp probes each hp into it
// and parks covered members in place. The paper's per-object scan
// (Algorithm 6) is the size-1 generation. The walk must be per-generation —
// objects pushed while a generation is deleted acquire their retire tokens
// *after* the previous walk, and Lemma 1's scan is only valid when it starts
// after the token is taken.
//
// Deferred retire (DESIGN.md §1.3f/§1.3g): outside a cascade, retire() does
// not scan. It appends the token-holding object to the thread's deferral
// buffer, and a full buffer (kRetireBuffer objects) becomes generation 0 of
// one cascade — one heavy fence and one walk per kRetireBuffer retires
// instead of one per retire. A walk also adopts the buffers of threads that
// stopped retiring, so a descheduled thread's buffer cannot keep its objects
// (and what they still link to) alive while it is off. The blocks a buffer
// walk frees are released one per make_orc_in (pace_free), so each
// allocation reuses the block just freed. Thread exit, domain destruction,
// a root link dropped outside a cascade (~orc_atomic) and flush() walk
// eagerly, adopting every buffer.
//
// Destruction protocol (non-global domains; DESIGN.md "Layering and
// domains"): the destructor unpublishes every hp slot, drains every
// handover through the full retire cascade, verifies nothing re-parked, and
// calls fatal() if the domain still owns unreclaimed objects — destroying a
// domain whose objects are still referenced is a protocol violation, not a
// condition to limp past. The global domain keeps the old lenient
// process-teardown sweep because it dies during static destruction, after
// the main thread's registry slot is already gone.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <new>
#include <vector>

#include "common/asym_fence.hpp"
#include "common/cacheline.hpp"
#include "common/fatal.hpp"
#include "common/marked_ptr.hpp"
#include "common/orcsan.hpp"
#include "common/telemetry.hpp"
#include "common/thread_registry.hpp"
#include "common/tsan_annotations.hpp"
#include "core/orc_base.hpp"
#include "core/orc_metrics.hpp"

namespace orcgc {

class OrcDomain;

namespace detail {

/// Free pacing (DESIGN.md §1.3f). A buffer walk frees dozens of objects at
/// once; released in one burst, they overflow the allocator's small
/// per-thread cache, and the overflow goes back to the arena that first
/// allocated each block — for a structure built by another thread, an
/// arena this thread never allocates from. So while a buffer walk runs
/// (`active`), orc_base's deallocation functions keep the blocks here, and
/// make_orc_in releases one right before each allocation, which then
/// reuses it (OrcDomain::pace_free). Only raw memory waits: every
/// destructor has already run. Per thread, not per domain, because a block
/// outlives its object. Trivially destructible on purpose: the thread-exit
/// hook still reads it.
struct PacedFrees {
    /// Blocks held per thread: 2R = kMaxHPs (OrcDomain asserts it).
    static constexpr int kCapacity = 64;
    struct Block {
        void* mem;
        std::size_t size;
        std::size_t align;  // 0: allocated without an alignment argument
    };
    Block blocks[kCapacity];
    int count;
    bool active;

    bool keep(void* mem, std::size_t size, std::size_t align) noexcept {
        if (!active || count == kCapacity) return false;
        blocks[count++] = Block{mem, size, align};
        return true;
    }
    static void release(const Block& b) noexcept {
        if (b.align != 0) {
            ::operator delete(b.mem, b.size, std::align_val_t(b.align));
        } else {
            ::operator delete(b.mem, b.size);
        }
    }
    void release_one() noexcept { release(blocks[--count]); }
    void release_all() noexcept {
        while (count > 0) release_one();
    }
};

inline thread_local PacedFrees tl_paced_frees{};

/// Tracks every live OrcDomain so that ONE registry-level thread-exit hook
/// can drain the departing thread's slots in all of them (hooks are
/// process-lifetime and capped at kMaxHooks, so per-domain hooks would leak
/// slots and cap the domain count). ~OrcDomain removes itself under the
/// same mutex the drain holds, so a domain can never be torn down while an
/// exiting thread is still draining into it.
class DomainRegistry {
  public:
    static DomainRegistry& instance() {
        // Constructed before the first OrcDomain (whose constructor calls
        // add()), hence destroyed after the last one — including the global
        // domain during static teardown.
        static DomainRegistry registry;
        return registry;
    }

    void add(OrcDomain* domain) {
        std::lock_guard<std::mutex> lock(mu_);
        domains_.push_back(domain);
    }

    void remove(OrcDomain* domain) {
        std::lock_guard<std::mutex> lock(mu_);
        domains_.erase(std::remove(domains_.begin(), domains_.end(), domain), domains_.end());
    }

  private:
    DomainRegistry() { add_thread_exit_hook(&DomainRegistry::thread_exit_hook); }

    static void thread_exit_hook(int tid);  // defined after OrcDomain

    std::mutex mu_;
    std::vector<OrcDomain*> domains_;
};

}  // namespace detail

/// The calling thread's ambient domain; nullptr means the global domain.
/// Managed by ScopedDomain — engine code must go through current_domain().
inline thread_local OrcDomain* tl_current_domain = nullptr;

class OrcDomain {
  public:
    /// Per-thread hazardous-pointer capacity. Index 0 is reserved scratch;
    /// indices [1, kMaxHPs) are handed to orc_ptr instances.
    static constexpr int kMaxHPs = 64;

    /// R, the deferral-buffer capacity: retire() outside a cascade buffers
    /// up to R token-holding objects per thread and walks them as one
    /// generation. Derived, not tuned: R <= H keeps the buffered objects
    /// within H per thread, and the freed blocks awaiting release within
    /// 2R = kMaxHPs per thread. What buffered objects still link to is not
    /// bounded by R (DESIGN.md §1.3f, "Bounds").
    static constexpr int kRetireBuffer = kMaxHPs / 2;
    static_assert(detail::PacedFrees::kCapacity == 2 * kRetireBuffer);

    /// Stalled-reader watchdog (watchdog_sample): a slot whose heartbeat is
    /// frozen must pin at least this many parked objects before it can be
    /// flagged — a reader parked on one node is idle, not a leak source.
    static constexpr std::uint64_t kStallPinnedMin = 2;

    /// Cascade-end subsampling period of the automatic watchdog clock check:
    /// one wall-clock read per this many cascades PER THREAD (power of two;
    /// the counter lives in DomainState so the hot path touches no shared
    /// cacheline). The clock read alone does not trigger a pass — see
    /// kWatchdogIntervalNs.
    static constexpr std::uint32_t kWatchdogPeriod = 64;

    /// Minimum wall-clock spacing between automatic watchdog passes. A pass
    /// walks every registered thread's hp and handover arrays, so running it
    /// every kWatchdogPeriod cascades — microseconds apart on a churn
    /// workload — taxed the retire path by double digits. A stalled reader
    /// is a second-scale phenomenon: sampling at 100ms flags one within
    /// ~200ms (two-sample streak) while the amortized cost rounds to zero.
    static constexpr std::uint64_t kWatchdogIntervalNs = 100'000'000;

    /// The process-wide default domain — what untagged objects
    /// (orc_base::_orc_dom == nullptr) route to.
    static OrcDomain& global() {
        static OrcDomain domain(/*is_global=*/true);
        return domain;
    }

    /// A fresh, independent reclamation domain. Retire scans inside it walk
    /// only its own hp slots; its destruction runs the drain protocol below.
    OrcDomain() : OrcDomain(/*is_global=*/false) {}

    OrcDomain(const OrcDomain&) = delete;
    OrcDomain& operator=(const OrcDomain&) = delete;

    ~OrcDomain();  // defined below (needs DomainRegistry)

    // ---- hp index management (Algorithm 6) -------------------------------

    /// Claims a free hp index for the calling thread (used_haz goes 0 -> 1).
    /// O(1): free indices are recycled through a per-thread stack, seeded so
    /// that the lowest indices pop first (keeps the published watermark
    /// tight).
    int get_new_idx() {
        auto& t = tl_[thread_id()];
        t.beat_tick();
        if (t.free_top < 0) {
            if (t.free_initialized) {
                fatal("orcgc: thread exceeded %d live orc_ptr indices in one domain", kMaxHPs);
            }
            for (int idx = kMaxHPs - 1; idx >= 1; --idx) t.free_stack[++t.free_top] = idx;
            t.free_initialized = true;
        }
        const int idx = t.free_stack[t.free_top--];
        t.used_haz[idx] = 1;
        // Raise-before-publish: this release store is sequenced before any
        // asym::publish on the new index, so a scanner whose asym::heavy()
        // precedes the raise can only miss publications ordered after its
        // scan — and those readers must revalidate against a source link
        // that the zero counter proves is already gone (DESIGN.md "Memory
        // ordering and asymmetric fences").
        if (idx >= t.hp_wm.load(std::memory_order_relaxed)) {
            t.hp_wm.store(idx + 1, std::memory_order_release);
            if (idx >= t.hp_peak.load(std::memory_order_relaxed)) {
                t.hp_peak.store(idx + 1, std::memory_order_release);
            }
        }
        return idx;
    }

    /// Adds a sharer to an already-claimed index (orc_ptr copy).
    void using_idx(int idx) noexcept {
        if (idx <= 0) return;
        ++tl_[thread_id()].used_haz[idx];
    }

    /// Drops a sharer from `idx`; when the last sharer leaves, performs the
    /// clear() protocol of Algorithm 5: check whether the object this slot
    /// protected became unreachable (take the retire token while our hp still
    /// protects the _orc read), then unpublish and drain the paired handover.
    void release_idx(int idx, orc_base* obj) {
        if (idx <= 0) return;
        auto& t = tl_[thread_id()];
        t.beat_tick();
        if (t.used_haz[idx] == 0) {
            fatal("orcgc: used_haz underflow at idx %d", idx);
        }
        if (--t.used_haz[idx] != 0) return;
        if (obj != nullptr) {
            // The hp entry still protects obj, so this _orc read cannot be a
            // use-after-free: any concurrent retire scan would find our hp
            // and park the object instead of deleting it.
            std::uint64_t lorc = obj->_orc.load(std::memory_order_seq_cst);
            if (orc::is_zero_unretired(lorc) &&
                obj->_orc.compare_exchange_strong(lorc, lorc + orc::kBRetired,
                                                  std::memory_order_seq_cst)) {
                // We own the retire token: nobody else can free obj now, so
                // it is safe to unpublish before scanning.
                metrics_.on_retire_token(obj);
                stamp_retire(obj);
#ifdef ORCGC_ORCSAN
                orcsan::on_retire(obj);
#endif
                unpublish_and_drain(t, idx);
                retire(obj);
                t.free_stack[++t.free_top] = idx;  // recycle only after the clear
                lower_hp_watermark(t);
                return;
            }
        }
        unpublish_and_drain(t, idx);
        t.free_stack[++t.free_top] = idx;
        lower_hp_watermark(t);
    }

    // ---- protection -------------------------------------------------------

    /// Publishes `ptr` (unmarked) at hp index `idx`. The publish is a release
    /// store + asym::light(); the scan-side asym::heavy() (scan_generation)
    /// replaces the seq_cst edge the old full-fence exchange provided, and
    /// the caller's link revalidation catches a publish the scan raced past.
    void protect_ptr(orc_base* ptr, int idx) noexcept {
        auto& slot = tl_[thread_id()].hp[idx];
        tsan_release_protection(slot);
        asym::publish(slot, ptr);
    }

    /// Classic hazard-pointer acquire loop (Algorithm 2 lines 4–11): publish
    /// the value read from addr, re-read until stable. Returns the raw
    /// (possibly marked) value; the published hazard is the unmarked object.
    template <typename T>
    T get_protected(const std::atomic<T>& addr, int idx) noexcept {
        auto& hp = tl_[thread_id()].hp[idx];
        orc_base* pub = hp.load(std::memory_order_relaxed);
        while (true) {
            T ptr = addr.load(std::memory_order_seq_cst);
            orc_base* base = to_base(ptr);
            if (base == pub) return ptr;
            tsan_release_protection(hp);  // previous publication loses coverage
            // The loop's re-read of addr after the publish is the validation
            // load an asymmetric publish needs: a retire scan whose
            // asym::heavy() missed this publish unlinked the node before the
            // fence, so the re-read observes the unlink and loops.
            asym::publish(hp, base);
            pub = base;
        }
    }

    /// Scratch-slot (index 0) publication used while mutating _orc
    /// (Proposition 1). Must be paired with scratch_release().
    void scratch_protect(orc_base* ptr) noexcept {
        auto& slot = tl_[thread_id()].hp[0];
        tsan_release_protection(slot);
        // Asymmetric publish is sound here too: the caller's subsequent _orc
        // RMW is seq_cst, and a retire scan that misses this publish re-reads
        // _orc after its asym::heavy() (the lorc2 revalidation), observing
        // that RMW and bailing out (Proposition 1's shield).
        asym::publish(slot, ptr);
    }

    /// Clears the scratch slot and drains anything parked on it by a
    /// concurrent retire scan that found our scratch publication.
    void scratch_release() {
        auto& t = tl_[thread_id()];
        unpublish_and_drain(t, 0);
    }

    // ---- counter updates (Algorithm 4's incrementOrc / decrementOrc) ------
    //
    // Route through these on the object's OWN domain (domain_of) — the
    // retire scans they can trigger must walk the hp slots of the domain the
    // object's protections live in.

    /// Adds one hard link to obj. Precondition: the caller has obj protected
    /// (it holds an orc_ptr to it), so the _orc access is safe.
    void increment_orc(orc_base* obj) {
        if (obj == nullptr) return;
        const std::uint64_t lorc =
            obj->_orc.fetch_add(orc::kSeqInc + 1, std::memory_order_seq_cst) + orc::kSeqInc + 1;
        if (!orc::is_zero_unretired(lorc)) return;
        // The increment brought a transiently-negative counter back to zero:
        // the object may be unreachable; try to take the retire token.
        std::uint64_t expected = lorc;
        if (obj->_orc.compare_exchange_strong(expected, lorc + orc::kBRetired,
                                              std::memory_order_seq_cst)) {
            metrics_.on_retire_token(obj);
            stamp_retire(obj);
#ifdef ORCGC_ORCSAN
            orcsan::on_retire(obj);
#endif
            retire(obj);
        }
    }

    /// Removes one hard link from obj. The caller may NOT have obj protected
    /// (e.g. the displaced value of a store), so the scratch slot shields the
    /// _orc access (Proposition 1).
    void decrement_orc(orc_base* obj) {
        if (obj == nullptr) return;
        scratch_protect(obj);
        const std::uint64_t lorc =
            obj->_orc.fetch_add(orc::kSeqInc - 1, std::memory_order_seq_cst) + orc::kSeqInc - 1;
        if (orc::is_zero_unretired(lorc)) {
            std::uint64_t expected = lorc;
            if (obj->_orc.compare_exchange_strong(expected, lorc + orc::kBRetired,
                                                  std::memory_order_seq_cst)) {
                metrics_.on_retire_token(obj);
                stamp_retire(obj);
#ifdef ORCGC_ORCSAN
                orcsan::on_retire(obj);
#endif
                scratch_release();
                retire(obj);
                return;
            }
        }
        scratch_release();
    }

    // ---- retire (Algorithms 5 and 6) --------------------------------------

    /// Runs the pass-the-pointer retire protocol for an object whose retire
    /// token (kBRetired) the caller holds. Deletes the object if Lemma 1's
    /// condition (counter at zero AND no hazardous pointer, atomically
    /// validated via the sequence field) holds; otherwise hands it over or
    /// drops the token.
    ///
    /// Outside a cascade the object only joins the calling thread's deferral
    /// buffer; the buffer is walked once it holds kRetireBuffer objects
    /// (walk_buffers). Cascades are processed in generations: deleting
    /// generation g's objects runs destructors whose decrements push
    /// generation g+1 into recursive_list. Each generation, whatever its
    /// size, shares one asym::heavy() and one hp walk (scan_generation).
    void retire(orc_base* ptr) {
#ifdef ORCGC_ORCSAN
        {
            // A retire must run in the object's OWN domain (domain_of
            // routing): only there can the scan find its protections.
            OrcDomain* od = ptr->_orc_dom;
            orcsan::check_retire_domain(this, od != nullptr ? od : &OrcDomain::global(), ptr);
        }
#endif
        auto& t = tl_[thread_id()];
        if (t.retire_started) {
            // Cascading retire from inside a node destructor: flatten it.
            t.recursive_list.push_back(ptr);
            return;
        }
        // Deferral is sound because the caller already holds the token: no
        // other thread can free or re-retire ptr, and the walk that settles
        // the buffer — ours or an adopting thread's — starts after a fence
        // that every buffered token precedes (scan_generation). A
        // resurrection while buffered is the pre-read's case, as for any
        // generation member.
        t.lock_buffer();
        const int n = t.n_deferred.load(std::memory_order_relaxed);
        t.deferred[n] = ptr;
        t.n_deferred.store(n + 1, std::memory_order_relaxed);
        t.fresh.store(true, std::memory_order_relaxed);
        t.unlock_buffer();
        if (n + 1 == kRetireBuffer) walk_buffers(t, /*eager=*/false);
    }

    /// Walks every thread's deferral buffer in this domain now, as one
    /// cascade run by the calling thread. A no-op inside a cascade — that
    /// cascade's own run settles whatever the caller unlinked — and when
    /// nothing is buffered. ~orc_atomic calls it for every link it drops,
    /// which is how a structure's destructor reclaims everything before it
    /// returns; structure operations never drop a link outside a cascade
    /// while anything is buffered (DeferralBuffer.StructureOperationsNeverFlush).
    void flush() {
        auto& t = tl_[thread_id()];
        if (t.retire_started) return;
        const int nthreads = thread_id_watermark();
        for (int it = 0; it < nthreads; ++it) {
            if (tl_[it].n_deferred.load(std::memory_order_relaxed) != 0) {
                walk_buffers(t, /*eager=*/true);
                return;
            }
        }
    }

    /// make_orc_in's pacing step: releases one block a buffer walk freed on
    /// this thread, if any, right before the allocation, so the allocation
    /// reuses it. One branch while nothing is held (every prefill
    /// allocation). Blocks are raw memory — their objects were destroyed by
    /// the walk — so this is per thread, not per domain.
    static void pace_free() noexcept {
        auto& paced = detail::tl_paced_frees;
        if (paced.count != 0) paced.release_one();
    }

    // ---- telemetry ---------------------------------------------------------

    /// This domain's metrics provider (always on; see orc_metrics.hpp).
    OrcMetrics& metrics() noexcept { return metrics_; }
    const OrcMetrics& metrics() const noexcept { return metrics_; }

    /// Convenience forwarder for the event-trace flag (also settable
    /// process-wide for new domains via ORC_TRACE=1).
    void set_tracing(bool on) { metrics_.set_tracing(on); }

    // ---- stalled-reader watchdog -------------------------------------------

    /// One watchdog pass over every registered slot. A slot is a stall
    /// suspect when, for two consecutive samples, (a) it still publishes at
    /// least one protection, (b) its protection set shows no progress —
    /// neither the slot-transition heartbeat (bumped by get_new_idx /
    /// release_idx) nor the fingerprint of the published hp values has
    /// moved — and (c) the garbage attributed to it — its occupied handover
    /// slots — is at least kStallPinnedMin and non-decreasing.
    ///
    /// The two-signal progress test is what keeps the reader fast paths
    /// untouched: a traversal that advances changes its published hp
    /// VALUES, which the sampler fingerprints for free during the
    /// `published` walk it already does, so protect_ptr/get_protected pay
    /// nothing for the watchdog. Only slot acquire/release — per-traversal
    /// operations, not per-node — tick the heartbeat, which covers the one
    /// progressing pattern the fingerprint cannot see (release and
    /// republish of identical values). A thread spinning protections over
    /// the SAME nodes while its attributed garbage grows is deliberately
    /// still a suspect: frozen protection set + growing pinned garbage is
    /// the condition that starves reclamation, regardless of whether the
    /// thread is descheduled or live-looping in place.
    ///
    /// Results land in the stall_suspects/stall_pinned gauges (exported by
    /// metrics()) and the per-tid stall_suspect() flag. Runs time-gated
    /// from cascade ends (at most one pass per kWatchdogIntervalNs,
    /// domain-wide; see run_cascade); tests drive it directly. Concurrent
    /// calls coalesce: a pass already in flight makes this one a no-op.
    void watchdog_sample() noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        if (wd_lock_.exchange(true, std::memory_order_acquire)) return;
        std::uint64_t suspects = 0;
        std::uint64_t pinned_total = 0;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            auto& t = tl_[it];
            const std::uint64_t b = t.beat.load(std::memory_order_relaxed);
            const int bound = t.hp_wm.load(std::memory_order_acquire);
            bool published = false;
            std::uint64_t fp = 0;
            for (int idx = 0; idx < bound; ++idx) {
                orc_base* const p = t.hp[idx].load(std::memory_order_acquire);
                published = published || p != nullptr;
                // Order-sensitive accumulation: the same values in different
                // slots fingerprint differently.
                fp = fp * 1099511628211ull + reinterpret_cast<std::uint64_t>(p);
            }
            // Garbage attribution: everything parked against this slot's
            // protections — occupied handover slots (hp_peak bound, same as
            // handover_count).
            const int peak = t.hp_peak.load(std::memory_order_acquire);
            std::uint64_t pinned = 0;
            for (int idx = 0; idx < peak; ++idx) {
                if (t.handovers[idx].load(std::memory_order_acquire) != nullptr) ++pinned;
            }
            bool suspect = false;
            if (published && b == t.wd_beat && fp == t.wd_fp &&
                pinned >= kStallPinnedMin && pinned >= t.wd_pinned) {
                if (t.wd_streak < 0xff) ++t.wd_streak;
                suspect = t.wd_streak >= 2;
            } else {
                t.wd_streak = 0;
            }
            t.wd_beat = b;
            t.wd_fp = fp;
            t.wd_pinned = pinned;
            t.wd_flag.store(suspect ? 1 : 0, std::memory_order_release);
            if (suspect) {
                ++suspects;
                pinned_total += pinned;
            }
        }
        wd_suspects_.store(suspects, std::memory_order_release);
        wd_pinned_.store(pinned_total, std::memory_order_release);
        wd_lock_.store(false, std::memory_order_release);
#endif
    }

    /// True when the last watchdog pass flagged `tid` as a stalled reader
    /// pinning garbage.
    bool stall_suspect(int tid) const noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        return tl_[tid].wd_flag.load(std::memory_order_acquire) != 0;
#else
        (void)tid;
        return false;
#endif
    }

    /// Gauges computed by the last watchdog pass (the values metrics()
    /// exports as stall_suspects / stall_pinned).
    std::uint64_t stall_suspects() const noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        return wd_suspects_.load(std::memory_order_acquire);
#else
        return 0;
#endif
    }
    std::uint64_t stall_pinned() const noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        return wd_pinned_.load(std::memory_order_acquire);
#else
        return 0;
#endif
    }

    // ---- introspection (tests / memory-bound benches) ----------------------

    /// Objects allocated into this domain (make_orc_in) and not yet
    /// reclaimed. Exact at quiescence; approximate while threads mutate.
    std::int64_t object_count() const noexcept {
        return tracked_objects_.load(std::memory_order_acquire);
    }

    /// True for the process-wide default domain (OrcDomain::global()).
    bool is_global() const noexcept { return is_global_; }

    /// Pointers currently parked in handover slots across all threads.
    /// Bounded by hp_peak, not hp_wm: a scanner that read a stale hp can park
    /// into a slot after its index was recycled and the watermark lowered.
    std::size_t handover_count() const noexcept {
        std::size_t total = 0;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            const int peak = tl_[it].hp_peak.load(std::memory_order_acquire);
            for (int idx = 0; idx < peak; ++idx) {
                if (tl_[it].handovers[idx].load(std::memory_order_acquire) != nullptr) ++total;
            }
        }
        return total;
    }

    /// Live orc_ptr sharers on the calling thread (slot-leak checks).
    int used_idx_count() const noexcept {
        const auto& t = tl_[thread_id()];
        const int peak = t.hp_peak.load(std::memory_order_relaxed);
        int used = 0;
        for (int idx = 1; idx < peak; ++idx) {
            if (t.used_haz[idx] != 0) ++used;
        }
        return used;
    }

    /// One past the highest hp index ever claimed by any registered thread
    /// (max of the per-thread peaks; >= 1 because slot 0 is always live).
    int hp_watermark() const noexcept {
        int max_peak = 1;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            max_peak = std::max(max_peak, tl_[it].hp_peak.load(std::memory_order_acquire));
        }
        return max_peak;
    }

    /// The calling thread's *current* scan bound — one past its highest
    /// claimed hp index. Unlike hp_peak this tightens again when indices are
    /// released (tests assert the tightening).
    int hp_watermark_self() const noexcept {
        return tl_[thread_id()].hp_wm.load(std::memory_order_relaxed);
    }

    /// Debug aid: prints the calling thread's non-free slots.
    void debug_dump_slots() const {
        const auto& t = tl_[thread_id()];
        const int peak = t.hp_peak.load(std::memory_order_relaxed);
        for (int idx = 1; idx < peak; ++idx) {
            if (t.used_haz[idx] != 0) {
                std::fprintf(stderr, "  idx=%d used=%u hp=%p handover=%p\n", idx,
                             t.used_haz[idx],
                             (void*)t.hp[idx].load(std::memory_order_seq_cst),
                             (void*)t.handovers[idx].load(std::memory_order_seq_cst));
            }
        }
    }

    /// Converts a (possibly marked) node pointer to its orc_base address.
    template <typename T>
    static orc_base* to_base(T ptr) noexcept {
        return static_cast<orc_base*>(get_unmarked(ptr));
    }

#ifdef ORCGC_ORCSAN
    /// OrcSan coverage scan: is `obj` currently published in ANY thread's hp
    /// slots of this domain (scratch included)? Checked only after the
    /// shadow state says non-Live, so this cold walk never runs on the
    /// common Live path. All threads are scanned, not just the caller —
    /// protections may legitimately be held by another thread while a
    /// reference is read here.
    bool orcsan_covers(const orc_base* obj) const noexcept {
        const int nthreads = thread_id_watermark();
        for (int it = 0; it < nthreads; ++it) {
            const auto& t = tl_[it];
            const int peak = t.hp_peak.load(std::memory_order_acquire);
            for (int idx = 0; idx < peak; ++idx) {
                if (t.hp[idx].load(std::memory_order_acquire) == obj) return true;
            }
        }
        return false;
    }
#endif

    // ---- internal (make_orc_in plumbing) -----------------------------------

    /// Records an allocation into this domain. Called by make_orc_in after
    /// tagging the object, before it can escape.
    void note_tracked_allocation() noexcept {
        tracked_objects_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    /// One member of the generation scan_generation walks, kept sorted by
    /// ptr; lorc is its pre-read _orc word. A member that the walk hands over
    /// in place is no longer ours: its lorc becomes kParked, a value no
    /// walked member can hold (its word carries kBRetired). An unparked one
    /// is freed if its _orc still equals lorc (settle_item). Two words per
    /// member: a tree teardown puts hundreds of thousands in one generation.
    struct GenItem {
        orc_base* ptr;
        std::uint64_t lorc;
    };
    static constexpr std::uint64_t kParked = 0;

    /// Per-domain, per-thread slot machinery (the paper's thread-local
    /// arrays, instance-scoped).
    struct alignas(kCacheLineSize) DomainState {
        std::atomic<orc_base*> hp[kMaxHPs] = {};
        // Own cache lines: handovers are written by *other* threads.
        alignas(kCacheLineSize) std::atomic<orc_base*> handovers[kMaxHPs] = {};
        // Published scan bounds, read by every other thread's retire scans
        // (own cache line: must not false-share with the owner-hot used_haz):
        //   hp_wm   one past the highest *currently claimed* hp index; raised
        //           by get_new_idx before any publish on the new index,
        //           lowered by release_idx when the top index frees. Floor 1:
        //           the scratch slot is always scanned.
        //   hp_peak monotonic high-water mark; bound for handover draining
        //           and introspection (late parks can land at recycled
        //           indices above hp_wm).
        alignas(kCacheLineSize) std::atomic<int> hp_wm{1};
        std::atomic<int> hp_peak{1};
        alignas(kCacheLineSize) std::uint32_t used_haz[kMaxHPs] = {};
        // O(1) index recycling (thread-local; seeded lazily on first use).
        int free_stack[kMaxHPs];
        int free_top = -1;
        bool free_initialized = false;
        bool retire_started = false;
#ifndef ORCGC_TELEMETRY_DISABLED
        /// Stalled-reader watchdog heartbeat: bumped by the owning thread on
        /// protection-slot transitions only — get_new_idx and release_idx
        /// (beat_tick) — NEVER on the publish fast paths
        /// (protect_ptr/get_protected stay watchdog-free; the sampler infers
        /// their progress from the published-value fingerprint instead, see
        /// watchdog_sample). Read — rarely, and subsampled — by
        /// watchdog_sample. Lives with the owner-exclusive fields so the
        /// stores never bounce a scanner-shared line; the sampler's
        /// occasional read pays the one transfer.
        std::atomic<std::uint64_t> beat{0};
        // Watchdog sampler memory for THIS slot: the previous sample's beat,
        // published-hp fingerprint and pinned count plus the
        // consecutive-frozen streak (all written only under wd_lock_ by
        // watchdog_sample), and the published per-tid verdict wd_flag (read
        // by stall_suspect). In the padded DomainState so the sampler's
        // writes stay off every other slot's lines.
        std::uint64_t wd_beat = 0;
        std::uint64_t wd_fp = 0;
        std::uint64_t wd_pinned = 0;
        std::uint8_t wd_streak = 0;
        std::atomic<std::uint8_t> wd_flag{0};
        /// Owner-exclusive cascade counter electing one cascade in
        /// kWatchdogPeriod to read the wall clock (run_cascade) — per-thread
        /// so the cascade epilogue touches no shared cacheline.
        std::uint32_t wd_cascades = 0;
#endif
        /// Heartbeat bump — owner-exclusive plain load+store (the sampler
        /// only needs to see the value move eventually). The name carries no
        /// telemetry vocabulary on purpose: the slot-transition paths that
        /// call it are source-checked for purity (test_telemetry.cpp).
        void beat_tick() noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
            beat.store(beat.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
#endif
        }
        // Grown-once scratch: capacity is retained across calls, so
        // steady-state retires never touch the heap. An eager walk gives
        // back what exceeds 2R (trim_scratch).
        std::vector<orc_base*> recursive_list;  // pending cascade generations
        std::vector<GenItem> gen;               // the generation being walked
        // Deferral buffer: token-holding objects waiting for a buffer walk.
        // The owner appends; a walking thread adopts it once the owner
        // stops retiring (walk_buffers). Both hold buf_lock, a test-and-set
        // lock held for a few stores; the owner takes it once per retire,
        // uncontended unless an adopter is copying out. `fresh` is set by
        // every append and cleared by a walker's look, so a walker that
        // finds it clear knows the owner retired nothing since the previous
        // look. n_deferred and fresh are also read unlocked, as hints. Own
        // cache line: walkers must not bounce used_haz.
        alignas(kCacheLineSize) std::atomic<bool> buf_lock{false};
        std::atomic<bool> fresh{false};
        std::atomic<int> n_deferred{0};
        orc_base* deferred[kRetireBuffer];

        void lock_buffer() noexcept {
            while (buf_lock.exchange(true, std::memory_order_acquire)) {
                while (buf_lock.load(std::memory_order_relaxed)) {
                }
            }
        }
        void unlock_buffer() noexcept { buf_lock.store(false, std::memory_order_release); }
    };

    explicit OrcDomain(bool is_global);  // defined below (needs DomainRegistry)

    /// Reclaims one object this domain proved unreachable: unwinds the
    /// domain's tracked-object accounting, then deletes (which may push
    /// cascaded retires into recursive_list).
    void destroy(orc_base* ptr);  // defined below (needs domain_of)

    /// Stamps the retire time on an object whose retire token the caller
    /// just took — for one retire in every (telemetry::kAgeSampleMask + 1)
    /// on this thread (see kAgeSampleMask for why ages are sampled). The
    /// token CAS makes the caller the unique writer (see
    /// orc_base::_orc_rts); the free paths turn the stamp into the
    /// retire_free_age histogram sample via retire_age().
    static void stamp_retire(orc_base* obj) noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        static thread_local std::uint32_t sample_seq = 0;
        if ((sample_seq++ & telemetry::kAgeSampleMask) == 0) {
            obj->_orc_rts = telemetry::coarse_now();
        }
#endif
        (void)obj;
    }

    /// coarse_now() ticks since `obj`'s retire stamp, or telemetry::kNoAge
    /// when the object carries no stamp (not sampled, telemetry disabled, or
    /// allocated behind the engine's back) — unstamped frees record nothing.
    static std::uint64_t retire_age(const orc_base* obj) noexcept {
#ifndef ORCGC_TELEMETRY_DISABLED
        if (obj->_orc_rts != 0) {
            const std::uint64_t now = telemetry::coarse_now();
            return now > obj->_orc_rts ? now - obj->_orc_rts : 0;
        }
#endif
        (void)obj;
        return telemetry::kNoAge;
    }

    /// Called (via DomainRegistry) while `tid` is still owned by the exiting
    /// thread; runs for EVERY live domain the process has.
    void drain_thread(int tid) {
        auto& t = tl_[tid];
        const int peak = t.hp_peak.load(std::memory_order_acquire);
        // Unpublish everything first (release suffices for clears — a scanner
        // reading a stale hp parks conservatively), then ONE asym::heavy()
        // orders the null stores before the handover drain: after the fence,
        // any scanner still running either published its park already (the
        // exchange below takes it) or will re-read these slots as null and
        // not park at all. A park that races past both lands in a slot the
        // next drain of this tid (or the destructor) covers — the same window
        // the old per-slot seq_cst stores had.
        for (int idx = 0; idx < peak; ++idx) {
            tsan_release_protection(t.hp[idx]);
            t.hp[idx].store(nullptr, std::memory_order_release);
        }
        asym::heavy();
        for (int idx = 0; idx < peak; ++idx) {
            if (orc_base* h = t.handovers[idx].exchange(nullptr, std::memory_order_seq_cst)) {
                metrics_.on_drain(h);
                retire(h);
            }
        }
        // Nothing the exiting thread buffered may outlive it: the drained
        // objects above joined its deferral buffer, so walk it now (the
        // thread still owns tid, so tl_[tid] is its own state). Its paced
        // blocks are released by the registry hook, once for all domains.
        if (t.n_deferred.load(std::memory_order_relaxed) != 0) walk_buffers(t, /*eager=*/true);
        // Fresh start for the next thread that reuses this tid. hp_peak stays
        // monotonic on purpose: a scanner that read a stale hp just before
        // this drain can still park into one of these handover slots, and the
        // next drain (or the domain destructor) must keep looking there.
        t.hp_wm.store(1, std::memory_order_release);
    }

    /// Tightens the published scan bound after an index was recycled. Only
    /// the owner thread writes hp_wm, so a plain scan-check-store suffices;
    /// slots below the new bound that are free all hold null hp entries, so
    /// scanners lose nothing by skipping them.
    ///
    /// Hysteresis: the bound only moves when it can tighten by at least two
    /// slots. Without the slack, a workload holding one orc_ptr at a time
    /// would alternate get_new_idx's raise with a lower here — two watermark
    /// stores per protect/release cycle on the hot path. With it, steady
    /// oscillation around the bound settles one slot high and generates no
    /// watermark traffic at all; scanners pay at most one extra null slot
    /// per thread.
    ///
    /// Release (no asym::heavy()): lowering only shrinks the scanned range,
    /// and every slot it hides is free — its hp entry was nulled (release)
    /// by unpublish_and_drain before the index was recycled, in the same
    /// release sequence a scanner's acquire of the new bound picks up. A
    /// scanner still using the old bound merely reads extra null slots.
    void lower_hp_watermark(DomainState& t) noexcept {
        const int wm = t.hp_wm.load(std::memory_order_relaxed);
        int top = wm - 1;
        while (top >= 1 && t.used_haz[top] == 0) --top;
        const int tightened = top < 1 ? 1 : top + 1;
        if (tightened <= wm - 2) t.hp_wm.store(tightened, std::memory_order_release);
    }

    void unpublish_and_drain(DomainState& t, int idx) {
        // Release suffices for the clear (paper Alg. 2 line 14): a scanner
        // reading the stale non-null hp parks conservatively; only *publish*
        // needs the full fence.
        tsan_release_protection(t.hp[idx]);
        t.hp[idx].store(nullptr, std::memory_order_release);
        // One seq_cst op on the slot instead of the previous seq_cst
        // load + seq_cst exchange pair: the guard load is only there to skip
        // the RMW in the (overwhelmingly common) empty case, and a park it
        // misses simply waits for the next drain of this slot — the same
        // window that already exists between the exchange and a late parker.
        if (t.handovers[idx].load(std::memory_order_acquire) != nullptr) {
            if (orc_base* h = t.handovers[idx].exchange(nullptr, std::memory_order_seq_cst)) {
                // The parked object carries its retire token; continue the
                // protocol on its behalf.
                metrics_.on_drain(h);
                retire(h);
            }
        }
    }

    /// The retire scan (Algorithm 6) for one cascade generation
    /// recursive_list[begin, end). Every generation takes this path, a
    /// single retired object included: Algorithm 6's per-object scan is the
    /// size-1 case. Copy the generation out of recursive_list into t.gen
    /// (settle_item must never index recursive_list — it grows, and
    /// reallocates, as settling destroys push the next generation), pre-read
    /// each _orc, sort the items by address, then ONE asym::heavy() and one
    /// walk over every published hp in the domain. Each hp that probes into
    /// the generation parks that item in place (handover exchange into the
    /// covering slot); whatever the exchange displaced rejoins OUR cascade
    /// as a next-generation member, as in the paper's retire loop. A
    /// duplicate hit on an already-parked item is skipped — one park per
    /// item. Unlike Algorithm 6 the walk does not stop at the first hit: it
    /// serves the whole generation.
    ///
    /// The pre-read also handles resurrection (Algorithm 6 lines 147–158):
    /// an item whose _orc is no longer zero+retired was re-linked by a thread
    /// holding a local reference, so its token is dropped here, before the
    /// fence. clear_bit_retired can drain our scratch handover and so
    /// re-enter retire(), which pushes onto recursive_list: the loop copies
    /// recursive_list[i] by value and holds no reference into the vector.
    ///
    /// Soundness: every walked item's retire token was acquired before the
    /// walk started, so a protection the walk misses was published SC-after
    /// it — such a reader revalidates against a source link, and the
    /// unchanged sequence plus zero counter (settle_item) prove no link
    /// contained the object at any point in the pre-read..re-read window.
    /// Parking is conservative: the object keeps its token and re-enters the
    /// protocol when the slot drains, even if the protecting thread released
    /// the hp between our read and the exchange (the hp_peak bound covers
    /// such late parks).
    void scan_generation(OrcMetrics::Hot& mh, DomainState& t, std::size_t begin,
                         std::size_t end) {
        telemetry::TraceSpan span(mh.span_ring(), telemetry::SpanKind::kScanGeneration);
        span.note_items(static_cast<std::uint64_t>(end - begin));
        auto& gen = t.gen;
        gen.clear();
        for (std::size_t i = begin; i < end; ++i) {
            orc_base* const ptr = t.recursive_list[i];
            std::uint64_t lorc = ptr->_orc.load(std::memory_order_seq_cst);
            if (!orc::is_zero_retired(lorc)) {
                // Resurrected: drop the token (and re-take it if the counter
                // fell back to zero under us).
                lorc = clear_bit_retired(ptr);
                if (lorc == 0) {
                    // Token dropped for good; a later decrement re-retires
                    // (and re-counts the token, which is why resurrections
                    // offset the unreclaimed balance).
                    mh.on_resurrect(ptr);
#ifdef ORCGC_ORCSAN
                    orcsan::on_resurrect(ptr);
#endif
                    continue;
                }
            }
            gen.push_back({ptr, lorc});
        }
        if (gen.empty()) return;  // every member resurrected: nothing to prove
        std::sort(gen.begin(), gen.end(), [](const GenItem& a, const GenItem& b) {
            return std::less<orc_base*>()(a.ptr, b.ptr);
        });
        // Scan-side half of the asymmetric pair: every member's retire token
        // (a seq_cst RMW on _orc) was taken before this fence, so a publish
        // the fence misses was ordered after it — that reader's validation
        // re-read (get_protected loop / Lemma 1 sequence check) then sees
        // the unlink or the moved _orc and cannot rely on the missed
        // publication.
        {
            telemetry::TraceSpan fence(mh.span_ring(), telemetry::SpanKind::kHeavyFence);
            asym::heavy();
        }
        // Range filter before the binary search: an hp outside the members'
        // address range [lo, lo + width] cannot cover one, and one unsigned
        // subtract-compare rejects it — null included, since 0 - lo wraps
        // above any width. A size-1 generation (width 0) pays one compare
        // per slot, like Algorithm 6's equality test; the miss is the
        // overwhelmingly common case, hence [[likely]].
        const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(gen.front().ptr);
        const std::uintptr_t width = reinterpret_cast<std::uintptr_t>(gen.back().ptr) - lo;
        const int nthreads = thread_id_watermark();
        std::size_t slots = 0;
        std::size_t published = 0;
        for (int it = 0; it < nthreads; ++it) {
            auto& other = tl_[it];
            const int wm = other.hp_wm.load(std::memory_order_seq_cst);
            for (int idx = 0; idx < wm; ++idx) {
                orc_base* p = other.hp[idx].load(std::memory_order_seq_cst);
                published += p != nullptr;
                if (reinterpret_cast<std::uintptr_t>(p) - lo > width) [[likely]] continue;
                // p <= the last member, so the search lands on a member.
                const auto pos = std::lower_bound(
                    gen.begin(), gen.end(), p, [](const GenItem& g, orc_base* key) {
                        return std::less<orc_base*>()(g.ptr, key);
                    });
                if (pos->ptr != p || pos->lorc == kParked) continue;  // no member / parked
                pos->lorc = kParked;
                mh.on_handover(p);
                // The displaced occupant (token held) rejoins our cascade
                // as a next-generation member.
                if (orc_base* displaced =
                        other.handovers[idx].exchange(p, std::memory_order_seq_cst)) {
                    t.recursive_list.push_back(displaced);
                }
            }
            slots += static_cast<std::size_t>(wm);
        }
        mh.on_snapshot(published, slots);
    }

    /// Settles one walked generation item. A parked item is no longer ours.
    /// An unparked one is freed iff its _orc (sequence included) is
    /// unchanged since the pre-read — Lemma 1: counter zero, token held, no
    /// hp found. If _orc moved during the walk, the item goes back onto
    /// recursive_list and the next generation re-walks it. Cascades the
    /// destroy triggers land in recursive_list too.
    void settle_item(OrcMetrics::Hot& mh, DomainState& t, const GenItem& item) {
        if (item.lorc == kParked) return;
        if (item.ptr->_orc.load(std::memory_order_seq_cst) != item.lorc) {
            t.recursive_list.push_back(item.ptr);
            return;
        }
        mh.on_free(item.ptr, retire_age(item.ptr));
        destroy(item.ptr);
    }

    /// A buffer walk: generation 0 is the calling thread's deferral buffer
    /// plus the buffers it adopts from other threads under their buf_lock,
    /// and the cascade runs on t's scratch (t is the calling thread's
    /// state). An eager walk adopts every buffer. A buffer-full walk adopts
    /// only those whose owner stopped retiring (`fresh` found clear): a
    /// descheduled or idle thread would otherwise hold up to R-1 objects,
    /// and every removed node they still link to, for as long as it stays
    /// off (a thread that keeps retiring, however slowly, is not covered);
    /// a running thread keeps its own, so each thread's frees keep pace
    /// with its own allocations (DESIGN.md §1.3f measures both ways).
    /// Adoption is sound for the same reason the owner's walk is: each
    /// adopted token was taken before the owner's unlock, which
    /// happens-before our lock and so precedes our fence.
    ///
    /// A buffer-full walk (`eager` false) first releases the blocks the
    /// previous walk left, then holds the blocks this one frees for
    /// make_orc_in (pace_free). An eager walk (thread exit, domain
    /// destruction, flush()) releases everything at once and trims the
    /// scratch vectors.
    void walk_buffers(DomainState& t, bool eager) {
        auto& paced = detail::tl_paced_frees;
        paced.release_all();
        const bool was_active = paced.active;
        paced.active = !eager;
        t.retire_started = true;
        OrcMetrics::Hot mh = metrics_.hot();
        mh.on_cascade_begin();
        const int nthreads = thread_id_watermark();
        for (int it = 0; it < nthreads; ++it) {
            DomainState& src = tl_[it];
            if (src.n_deferred.load(std::memory_order_relaxed) == 0) continue;
            if (!eager && &src != &t && src.fresh.exchange(false, std::memory_order_relaxed)) {
                continue;  // still retiring: it walks its own buffer
            }
            src.lock_buffer();
            const int n = src.n_deferred.load(std::memory_order_relaxed);
            t.recursive_list.insert(t.recursive_list.end(), src.deferred, src.deferred + n);
            src.n_deferred.store(0, std::memory_order_relaxed);
            src.unlock_buffer();
        }
        run_cascade(mh, t);
        if (eager) trim_scratch(t);
        paced.active = was_active;
    }

    /// After an eager walk, gives back scratch capacity past 2R. A
    /// structure teardown is one cascade over the whole structure (a tree
    /// level per generation, every generation on recursive_list until the
    /// cascade ends); steady-state buffer walks stay near R and never trim.
    static void trim_scratch(DomainState& t) {
        constexpr std::size_t kKeep = 2 * kRetireBuffer;
        if (t.recursive_list.capacity() > kKeep) {
            std::vector<orc_base*>().swap(t.recursive_list);
            t.recursive_list.reserve(kKeep);
        }
        if (t.gen.capacity() > kKeep) {
            std::vector<GenItem>().swap(t.gen);
            t.gen.reserve(kKeep);
        }
    }

    /// The generation loop. Caller set retire_started and pushed generation
    /// 0; this drains the cascade and clears the flag.
    void run_cascade(OrcMetrics::Hot& mh, DomainState& t) {
        std::size_t begin = 0;
        std::uint32_t gen = 0;
        while (begin < t.recursive_list.size()) {
            mh.set_generation(gen++);
            const std::size_t end = t.recursive_list.size();
            scan_generation(mh, t, begin, end);
            for (const GenItem& item : t.gen) settle_item(mh, t, item);
            begin = end;
        }
        t.recursive_list.clear();
        t.retire_started = false;
        mh.on_cascade_end();
#ifndef ORCGC_TELEMETRY_DISABLED
        // Doubly subsampled watchdog: a per-thread counter (no shared
        // cacheline on the cascade path) elects one cascade in
        // kWatchdogPeriod to read the wall clock, and a full hp/handover
        // pass runs only when kWatchdogIntervalNs has elapsed since the
        // last one, domain-wide. Cascades fire per-retire on churn
        // workloads, so a count-only cadence meant a pass every few
        // microseconds — pure tax for a signal whose whole signature is
        // "not changing for seconds".
        if ((++t.wd_cascades & (kWatchdogPeriod - 1)) == 0) {
            const std::uint64_t now = telemetry::monotonic_ns();
            std::uint64_t last = wd_last_ns_.load(std::memory_order_relaxed);
            if (now - last >= kWatchdogIntervalNs &&
                wd_last_ns_.compare_exchange_strong(last, now,
                                                    std::memory_order_relaxed)) {
                watchdog_sample();
            }
        }
#endif
    }

    /// Algorithm 6 lines 147–158: drop the retire token because the counter
    /// moved off zero. If the counter is back at zero after the drop, re-take
    /// the token and return the new _orc value (caller continues retiring);
    /// otherwise return 0 (a future decrement will re-trigger retirement).
    std::uint64_t clear_bit_retired(orc_base* ptr) {
        auto& t = tl_[thread_id()];
        // Publish on scratch: we are about to mutate _orc of an object whose
        // token we are in the middle of dropping (Proposition 1). Asymmetric
        // publish, same argument as scratch_protect: the seq_cst _orc RMW
        // right after it is what a racing scanner's revalidation observes.
        tsan_release_protection(t.hp[0]);
        asym::publish(t.hp[0], ptr);
        const std::uint64_t lorc = ptr->sub_retired();
        std::uint64_t result = 0;
        if (orc::is_zero_unretired(lorc)) {
            std::uint64_t expected = lorc;
            if (ptr->_orc.compare_exchange_strong(expected, lorc + orc::kBRetired,
                                                  std::memory_order_seq_cst)) {
                result = lorc + orc::kBRetired;
                // The object is retired anew: restart its age clock so the
                // histogram measures the final retire→free window, not the
                // resurrection detour.
                stamp_retire(ptr);
            }
        }
        unpublish_and_drain(t, 0);
        return result;
    }

    friend class detail::DomainRegistry;

    const bool is_global_;
    std::atomic<std::int64_t> tracked_objects_{0};
#ifndef ORCGC_TELEMETRY_DISABLED
    // Stalled-reader watchdog state (watchdog_sample; per-tid sampler memory
    // lives in DomainState). wd_lock_ serializes samplers; wd_last_ns_ is
    // the wall-clock of the last automatic pass (run_cascade's cadence gate
    // — the cascade counts themselves live per-thread in
    // DomainState::wd_cascades). The exported gauges wd_suspects_/
    // wd_pinned_ are wired into metrics_ by the constructor and therefore
    // declared BEFORE it: members destroy in reverse order, and the
    // provider's fold-on-death export reads them.
    std::atomic<bool> wd_lock_{false};
    std::atomic<std::uint64_t> wd_last_ns_{0};
    std::atomic<std::uint64_t> wd_suspects_{0};
    std::atomic<std::uint64_t> wd_pinned_{0};
#endif
    OrcMetrics metrics_;
    DomainState tl_[kMaxThreads];
};

// ---- ambient-domain plumbing ---------------------------------------------

/// The domain protection operations use when none is named explicitly:
/// whatever ScopedDomain set on this thread, else the global domain.
inline OrcDomain& current_domain() noexcept {
    OrcDomain* d = tl_current_domain;
    return d != nullptr ? *d : OrcDomain::global();
}

/// The domain an object belongs to (tagged at allocation by make_orc_in);
/// untagged objects belong to the global domain. Safe to call only while
/// `obj` is guaranteed alive (protected, or hard-linked by the caller):
/// _orc_dom is written once before the object escapes and never changes.
inline OrcDomain& domain_of(const orc_base* obj) noexcept {
    OrcDomain* d = obj->_orc_dom;
    return d != nullptr ? *d : OrcDomain::global();
}

/// RAII guard installing `domain` as the calling thread's ambient domain.
/// Data-structure methods open one of these so every load/make_orc inside
/// protects in the structure's domain; nesting restores the outer domain.
class ScopedDomain {
  public:
    explicit ScopedDomain(OrcDomain& domain) noexcept : saved_(tl_current_domain) {
        tl_current_domain = &domain;
    }
    ~ScopedDomain() { tl_current_domain = saved_; }
    ScopedDomain(const ScopedDomain&) = delete;
    ScopedDomain& operator=(const ScopedDomain&) = delete;

  private:
    OrcDomain* saved_;
};

/// Hard-link counter updates, routed to the object's own domain: the retire
/// scans a counter update can trigger must walk the hp slots of the domain
/// that protects the object. Null-safe.
inline void orc_increment(orc_base* obj) {
    if (obj != nullptr) domain_of(obj).increment_orc(obj);
}
inline void orc_decrement(orc_base* obj) {
    if (obj != nullptr) domain_of(obj).decrement_orc(obj);
}

// ---- out-of-class definitions (need the full set of types above) ----------

inline void OrcDomain::destroy(orc_base* ptr) {
    tsan_acquire_for_delete(ptr);
    if (OrcDomain* d = ptr->_orc_dom) {
        d->tracked_objects_.fetch_sub(1, std::memory_order_acq_rel);
    }
#ifdef ORCGC_ORCSAN
    if (orcsan::divert_eligible(ptr)) {
        // Quarantine diversion: run the destructor NOW (cascades, tracked
        // counts and allocation-tracker timing stay identical to `delete`),
        // then park the raw block poisoned instead of freeing it. The
        // allocation address must be taken before the destructor runs — the
        // vptr dynamic_cast needs is gone afterwards.
        void* mem = dynamic_cast<void*>(ptr);
        ptr->~orc_base();
        orcsan::quarantine_put(this, ptr, mem);
        return;
    }
    // Unknown extent (allocated behind make_orc's back): cannot poison what
    // we cannot measure — free normally, drop any auto-registered entry.
    orcsan::on_untracked_free(ptr);
#endif
    delete ptr;
}

inline OrcDomain::OrcDomain(bool is_global) : is_global_(is_global), metrics_(is_global) {
#ifndef ORCGC_TELEMETRY_DISABLED
    metrics_.wire_stall_suspects(&wd_suspects_, &wd_pinned_);
#endif
#ifdef ORCGC_ORCSAN
    // Construct the shadow table before this domain completes construction,
    // so static teardown destroys it AFTER the global domain — whose
    // destructor still flushes its quarantine through it.
    orcsan::touch();
#endif
    // Registration wires this domain into the single registry-level
    // thread-exit drain (and, for non-global domains, guards destruction
    // against concurrently exiting threads).
    detail::DomainRegistry::instance().add(this);
}

inline OrcDomain::~OrcDomain() {
    // Leave the registry first, under its mutex: after this returns, no
    // exiting thread can drain into state we are about to tear down.
    detail::DomainRegistry::instance().remove(this);
    if (is_global_) {
        // Process teardown: anything still parked is unreachable by now, and
        // the main thread's registry slot is already gone (thread_locals die
        // before statics), so retire()/thread_id() are off limits. Lenient
        // full-range sweep, exactly the old singleton behavior. Buffered
        // objects go the same way when their word still reads zero+retired;
        // one that was resurrected is still linked, so it is left alone.
        const auto sweep = [](orc_base* ptr) {
            tsan_acquire_for_delete(ptr);
#ifdef ORCGC_ORCSAN
            orcsan::on_untracked_free(ptr);
#endif
            delete ptr;
        };
        for (auto& t : tl_) {
            for (auto& h : t.handovers) {
                if (orc_base* ptr = h.exchange(nullptr, std::memory_order_acq_rel)) sweep(ptr);
            }
            // Pop, not index: a swept destructor's retires may push here.
            for (int n = t.n_deferred.load(std::memory_order_acquire); n > 0;
                 n = t.n_deferred.load(std::memory_order_acquire)) {
                orc_base* const ptr = t.deferred[n - 1];
                t.n_deferred.store(n - 1, std::memory_order_release);
                if (orc::is_zero_retired(ptr->_orc.load(std::memory_order_acquire))) sweep(ptr);
            }
        }
#ifdef ORCGC_ORCSAN
        // Evict (verify poison + canary, then free) everything this domain
        // still holds. Last chance to catch a latent UAF write at exit.
        orcsan::quarantine_flush(this);
#endif
        return;
    }
    // Non-global destruction protocol. Precondition: no thread concurrently
    // operates on this domain, and no live orc_ptr into it remains on any
    // running thread (abandoned protections from exited threads are fine).
    //
    // 1. Unpublish every hp slot. With every slot null, a retire scan run by
    //    step 2 can never find a protection, so nothing can re-park and the
    //    drain terminates (no livelock by construction). The asym::heavy()
    //    after the loop orders the null stores before step 2's handover
    //    reads (the destruction-drain edge the per-slot seq_cst stores used
    //    to provide); the precondition — no thread still operates on this
    //    domain — makes it a formality, but it keeps the protocol's ordering
    //    argument independent of the precondition.
    for (auto& t : tl_) {
        for (auto& hp : t.hp) {
            tsan_release_protection(hp);
            hp.store(nullptr, std::memory_order_release);
        }
    }
    asym::heavy();
    // 2. Drain every handover through the full retire cascade. The parked
    //    objects carry their retire tokens; their destructors may cascade
    //    into further retires, which also find no protections and free
    //    immediately.
    for (auto& t : tl_) {
        for (auto& h : t.handovers) {
            if (orc_base* ptr = h.exchange(nullptr, std::memory_order_seq_cst)) {
                retire(ptr);
            }
        }
    }
    //    Then every thread's deferral buffer, live threads' included: one
    //    eager buffer walk adopts them all (the drain above may also have
    //    buffered into ours).
    walk_buffers(tl_[thread_id()], /*eager=*/true);
    // 3. Quiescence checks: the drain must have converged, and every object
    //    ever allocated into this domain must be gone.
    for (auto& t : tl_) {
        for (auto& h : t.handovers) {
            if (h.load(std::memory_order_seq_cst) != nullptr) {
                fatal("orcgc: handover re-parked during OrcDomain destruction "
                      "(domain destroyed while still in use?)");
            }
        }
    }
    const long long leaked =
        static_cast<long long>(tracked_objects_.load(std::memory_order_seq_cst));
    if (leaked != 0) {
        fatal("orcgc: OrcDomain destroyed with %lld unreclaimed objects — a live "
              "orc_ptr, a still-linked node, or an undrained structure outlives "
              "the domain",
              leaked);
    }
#ifdef ORCGC_ORCSAN
    // Quiescence proven: evict this domain's quarantine, verifying the
    // poison + canary of every parked block on the way out.
    orcsan::quarantine_flush(this);
#endif
}

namespace detail {

inline void DomainRegistry::thread_exit_hook(int tid) {
    auto& reg = instance();
    // Hold the mutex across the whole drain: ~OrcDomain::remove() blocks
    // until we are out of every domain's state.
    std::lock_guard<std::mutex> lock(reg.mu_);
    for (OrcDomain* domain : reg.domains_) domain->drain_thread(tid);
    // The drains walked eagerly; what is left are blocks earlier walks held.
    tl_paced_frees.release_all();
}

}  // namespace detail

// orc_base's deallocation functions (declared in orc_base.hpp): hold the
// block while a buffer walk runs on this thread, else release it at once.
inline void orc_base::operator delete(void* mem, std::size_t size) noexcept {
    if (!detail::tl_paced_frees.keep(mem, size, 0)) ::operator delete(mem, size);
}
inline void orc_base::operator delete(void* mem, std::size_t size,
                                      std::align_val_t align) noexcept {
    if (!detail::tl_paced_frees.keep(mem, size, static_cast<std::size_t>(align))) {
        ::operator delete(mem, size, align);
    }
}

}  // namespace orcgc
