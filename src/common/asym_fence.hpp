// Asymmetric fences: fence-free protection publishing (paper §5; Brown's
// "there has to be a better way" and Singh's SMR-techniques survey both
// prescribe this cure for the hazard-pointer publish cost).
//
// Every protection publish in this repo — OrcDomain's hp publish and the
// reader-side publishes of all five manual schemes — used to pay a full
// seq_cst store/exchange per traversal step so that a reclaimer's scan could
// not miss it. That is a symmetric solution to an asymmetric problem:
// publishes happen per *load*, scans happen per *retire batch*. This header
// moves the ordering cost to the rare side:
//
//   asym::publish(slot, v)  reader fast path — release store + asym::light()
//                           (a compiler barrier in membarrier mode).
//   asym::light()           the fast-path fence alone, for call sites whose
//                           release store is separate.
//   asym::heavy()           scan-side process-wide barrier: every running
//                           thread of the process experiences a full memory
//                           barrier (Linux membarrier(PRIVATE_EXPEDITED)),
//                           so any publish not yet visible to the scan was
//                           ordered after it — and that reader's subsequent
//                           validation load sees the pre-scan unlink/token.
//
// Modes (ORCGC_ASYM_FENCE CMake option = compiled default, ORC_ASYM_FENCE
// env var = runtime kill-switch; resolved once at first use):
//
//   membarrier  light() is a compiler barrier; heavy() is the membarrier
//               syscall. The intended production mode.
//   fence       two-sided fallback: publish is a release store + seq_cst
//               thread fence (light()/heavy() are both seq_cst thread
//               fences), i.e. the classic store-buffering idiom with fences
//               on both sides. Used when the syscall is unavailable and
//               under TSan, where the membarrier edge is invisible to the
//               race detector (auto-selected there).
//   off         release publish with no fence at all. UNSAFE on weakly
//               ordered hardware — exists only so benches can measure the
//               upper bound of the possible gain. Never a default.
//   seqcst      seed-compat mode: publish is the pre-conversion seq_cst
//               exchange and heavy() is a no-op. Env/bench-only ("seed" rows
//               of bench_publish_ablation's A/B gate); not a CMake option.
//
// Resolution order: ORC_ASYM_FENCE env (off|fence|membarrier|seqcst) beats
// the compiled default; TSan degrades membarrier to fence; a failed
// membarrier registration degrades to fence. heavy() calls are counted and
// exported (with the mode) through the telemetry registry as "asym_fence",
// so the scans-not-loads scaling is checkable from any bench JSON.
#pragma once

#include <atomic>
#include <cstdint>

// Compiled default, set by the ORCGC_ASYM_FENCE CMake option
// (0 = off, 1 = fence, 2 = membarrier).
#ifndef ORCGC_ASYM_FENCE_MODE
#define ORCGC_ASYM_FENCE_MODE 2
#endif

namespace orcgc {
namespace asym {

enum class Mode : int {
    kOff = 0,
    kFence = 1,
    kMembarrier = 2,
    kSeqCst = 3,  // seed-compat A/B baseline; env/testing-only
};

/// The build's compiled default (before env override and degradation).
constexpr Mode compiled_default() noexcept { return static_cast<Mode>(ORCGC_ASYM_FENCE_MODE); }

const char* mode_name(Mode m) noexcept;

namespace detail {
// -1 = unresolved. Relaxed fast-path load: resolution is idempotent (two
// racing first-users both resolve to the same mode and both may register
// membarrier — registration is per-process and re-registration is a no-op).
inline std::atomic<int> g_mode{-1};
Mode resolve_mode() noexcept;  // asym_fence.cpp
}  // namespace detail

/// The resolved process-wide mode (resolves on first call).
inline Mode mode() noexcept {
    const int m = detail::g_mode.load(std::memory_order_relaxed);
    if (m >= 0) [[likely]] {
        return static_cast<Mode>(m);
    }
    return detail::resolve_mode();
}

/// Fast-path fence, placed after a release publish and before the validation
/// load. In membarrier (and off) mode this is a compiler barrier only — the
/// hardware store-load ordering it elides is restored by the scan-side
/// heavy() fence.
inline void light() noexcept {
    const Mode m = mode();
    if (m == Mode::kFence || m == Mode::kSeqCst) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
    } else {
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }
}

/// The one protection-publish idiom: a release store into `slot` followed by
/// asym::light() — uniformly, in every mode except the seed-compat exchange.
/// The trailing light() is load-bearing in fence mode: a seq_cst *store*
/// followed by an acquire validation load of another location does not forbid
/// store-load reordering in the C++ model (and is architecturally reorderable
/// on ARMv8.3+ stlr/ldapr), so the two-sided fallback needs the thread fence
/// to make publish-then-validate the SB idiom with fences on both sides —
/// matching heavy()'s fence on the scan side. Only then may validation loads
/// legitimately be acquire in every mode.
template <typename T, typename V>
inline void publish(std::atomic<T>& slot, V value) noexcept {
    if (mode() == Mode::kSeqCst) {
        slot.exchange(static_cast<T>(value), std::memory_order_seq_cst);
        return;
    }
    slot.store(static_cast<T>(value), std::memory_order_release);
    light();
}

/// Scan-side barrier: call ONCE per protection scan (OrcGC generation walk,
/// manual-scheme hp scan, era/guard sweep), after the retire token / unlink that justifies the
/// scan and before the first protection-slot read. Counted; the count must
/// scale with scans, never with protected loads (bench_publish_ablation
/// gates on this).
void heavy() noexcept;

/// Total heavy() calls that issued a barrier (membarrier or fence mode).
std::uint64_t heavy_fences() noexcept;

/// True when the membarrier(PRIVATE_EXPEDITED) syscall is usable here.
bool membarrier_supported() noexcept;

namespace testing {

/// Pure resolver (no process state): exactly the decision resolve_mode()
/// makes, parameterized for tests. Invalid/unknown env strings are ignored.
Mode resolve(const char* env_value, Mode compiled, bool tsan_active,
             bool membarrier_available) noexcept;

/// Overrides the resolved mode. Safe at any quiescent point for the sound
/// modes (membarrier/fence/seqcst are mutually compatible: every reader
/// publish stays at least release, every scan at least as strong as its
/// readers assume); switching to off requires full quiescence. Applies the
/// same TSan and no-membarrier degradations as first-use resolution.
void set_mode(Mode m) noexcept;

/// Back to unresolved: the next mode() call re-reads env + compiled default.
void reset_mode() noexcept;

/// RAII mode override for tests/benches; restores the prior mode.
class ScopedMode {
  public:
    explicit ScopedMode(Mode m) noexcept : saved_(mode()) { set_mode(m); }
    ~ScopedMode() { set_mode(saved_); }
    ScopedMode(const ScopedMode&) = delete;
    ScopedMode& operator=(const ScopedMode&) = delete;

  private:
    Mode saved_;
};

}  // namespace testing
}  // namespace asym
}  // namespace orcgc
