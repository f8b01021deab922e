// orc_atomic<T*>: an atomic hard link between OrcGC-tracked objects (paper
// §4.1, Algorithm 4).
//
// A drop-in replacement for std::atomic<T*> whose mutating operations
// (store / compare_exchange / exchange) keep the targets' _orc hard-link
// counters up to date, and whose load() returns a protected orc_ptr.
//
// Domain routing: counter updates go to the TARGET object's domain
// (orc_increment / orc_decrement follow the _orc_dom tag), because the
// retire scan a decrement can trigger must walk the hp slots that protect
// that object. Protection for load() goes to the calling thread's AMBIENT
// domain (current_domain(), installed by the data structure's ScopedDomain
// guard) — the structure being traversed and the objects it links are in
// the same domain, and load(OrcDomain&) names one explicitly when needed.
//
// Contract inherited from the paper: the *new* value written by store(),
// cas() or exchange() must be protected by the calling thread at the moment
// of the call — in practice it always is, because data-structure code only
// ever has new values in the form of live orc_ptr instances (or nullptr, or
// a marked alias of a protected pointer). The increment that follows a
// successful CAS runs after the link is visible, which is why the counter
// is biased and may dip transiently negative (see orc_base.hpp).
#pragma once

#include <atomic>
#include <cstddef>

#include "common/marked_ptr.hpp"
#include "common/orcsan.hpp"
#include "core/orc_base.hpp"
#include "core/orc_domain.hpp"
#include "core/orc_ptr.hpp"

namespace orcgc {

template <typename T>
class orc_atomic {
    static_assert(std::is_pointer_v<T>,
                  "orc_atomic<T> requires a pointer type, e.g. orc_atomic<Node*>");

  public:
    orc_atomic() noexcept : link_(nullptr) {}
    orc_atomic(std::nullptr_t) noexcept : link_(nullptr) {}

    /// Initializing construction counts as creating a hard link.
    explicit orc_atomic(const orc_ptr<T>& ptr) : link_(nullptr) { store(ptr); }

    orc_atomic(const orc_atomic&) = delete;
    orc_atomic& operator=(const orc_atomic&) = delete;

    /// Destroying the link removes one hard link from the target; this is
    /// what cascades reclamation when a node is deleted (§4.1: "the
    /// orc_atomic destructor will decrement the orc counter of the object it
    /// was pointing to"). The decrement runs in the target's own domain,
    /// which then flushes its deferral buffers — a no-op inside a cascade
    /// (node destructors), so in practice only a dropped root link, such as
    /// a structure's head, flushes. The domain is read before the
    /// decrement: the decrement may free the target.
    ~orc_atomic() {
        orc_base* old = to_base(link_.load(std::memory_order_relaxed));
        if (old == nullptr) return;
        OrcDomain& dom = domain_of(old);
        orc_decrement(old);
        dom.flush();
    }

    // ---- reads -------------------------------------------------------------

    /// Protected load in the calling thread's ambient domain: returns an
    /// orc_ptr owning a fresh hp index with the read value published
    /// (Algorithm 4 lines 76–79, minus the idx-0 temporary — see DESIGN.md).
    orc_ptr<T> load() const { return load(current_domain()); }

    /// Protected load with the protecting domain named explicitly. The link
    /// target must belong to `dom` (retire scans only find protections in
    /// the object's own domain).
    orc_ptr<T> load(OrcDomain& dom) const {
        const int idx = dom.get_new_idx();
        T ptr = dom.template get_protected<T>(link_, idx);
        return orc_ptr<T>(ptr, idx, &dom);
    }

    /// Unprotected raw read; acquire by default — quiescent contexts
    /// (constructors, destructors, tests) never need the SC total order, and
    /// callers that do can pass seq_cst explicitly. Validation comparisons
    /// may also be acquire in *every* asym-fence mode: the publish they
    /// validate always carries a trailing fence (asym::light() — a seq_cst
    /// thread fence in fence mode, restored process-wide by the scan's
    /// asym::heavy() in membarrier mode), so the publish-store cannot
    /// reorder past this load.
    T load_unsafe(std::memory_order order = std::memory_order_acquire) const noexcept {
        return link_.load(order);
    }

    // ---- writes ------------------------------------------------------------

    /// store: +1 on the new target, -1 on the displaced target
    /// (Algorithm 4 lines 63–67). `desired`'s object must be protected by
    /// the caller (or be nullptr).
    void store(T desired) {
#ifdef ORCGC_ORCSAN
        orcsan_check_new_value(desired);
#endif
        orc_increment(to_base(desired));
        T old = link_.exchange(desired, std::memory_order_seq_cst);
        orc_decrement(to_base(old));
    }
    void store(const orc_ptr<T>& desired) { store(desired.get()); }
    void store(std::nullptr_t) { store(T{nullptr}); }

    orc_atomic& operator=(const orc_ptr<T>& desired) {
        store(desired);
        return *this;
    }
    orc_atomic& operator=(std::nullptr_t) {
        store(T{nullptr});
        return *this;
    }

    /// compare-and-swap (Algorithm 4 lines 69–74): counters are adjusted
    /// only after the CAS succeeds. `desired`'s object must be protected by
    /// the caller (or be nullptr / a marked alias of a protected pointer).
    bool compare_exchange_strong(T expected, T desired) {
#ifdef ORCGC_ORCSAN
        orcsan_check_new_value(desired);
#endif
        if (!link_.compare_exchange_strong(expected, desired, std::memory_order_seq_cst)) {
            return false;
        }
        orc_increment(to_base(desired));
        orc_decrement(to_base(expected));
        return true;
    }
    bool cas(T expected, T desired) { return compare_exchange_strong(expected, desired); }

    /// exchange: returns the displaced value as a protected orc_ptr. The
    /// displaced link's counter still includes our removed link until we
    /// decrement, so publishing before decrementing keeps it alive. The
    /// protection is taken in the displaced object's own domain (that is
    /// where retire scans will look for it).
    orc_ptr<T> exchange(T desired) {
#ifdef ORCGC_ORCSAN
        orcsan_check_new_value(desired);
#endif
        orc_increment(to_base(desired));
        T old = link_.exchange(desired, std::memory_order_seq_cst);
        orc_base* old_base = to_base(old);
        OrcDomain& dom = old_base != nullptr ? domain_of(old_base) : current_domain();
        const int idx = dom.get_new_idx();
        dom.protect_ptr(old_base, idx);
        orc_decrement(old_base);
        return orc_ptr<T>(old, idx, &dom);
    }

  private:
    static orc_base* to_base(T ptr) noexcept { return OrcDomain::to_base(ptr); }

#ifdef ORCGC_ORCSAN
    /// The paper's write contract, checked: the new value of a store/cas/
    /// exchange must be protected by the caller at the moment of the call
    /// (live orc_ptr, nullptr, or a marked alias of a protected pointer).
    static void orcsan_check_new_value(T desired) noexcept {
        if (orc_base* b = to_base(desired)) orcsan::check_link(b);
    }
#endif

    std::atomic<T> link_;
};

}  // namespace orcgc
