// Unit tests for the asymmetric-fence facility (src/common/asym_fence.hpp):
// the mode resolver's precedence (CMake default < env override, with TSan
// and no-membarrier degradation), heavy-fence accounting — the count must
// scale with scans, never with protected loads — and in-process mode-parity
// churn through the OrcGC engine under both safe fence strategies. The ctest
// side adds *_fencemode reruns of the reclamation/retire-path suites with
// ORC_ASYM_FENCE=fence (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/rng.hpp"
#include "common/tsan_annotations.hpp"
#include "common/workload.hpp"
#include "core/orc.hpp"
#include "reclamation/hazard_pointers.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using asym::Mode;
using asym::testing::resolve;
using asym::testing::ScopedMode;
using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;

// ------------------------------------------------------------ the resolver

TEST(AsymFenceResolver, CompiledDefaultWinsWithoutEnv) {
    EXPECT_EQ(resolve(nullptr, Mode::kMembarrier, false, true), Mode::kMembarrier);
    EXPECT_EQ(resolve(nullptr, Mode::kFence, false, true), Mode::kFence);
    EXPECT_EQ(resolve(nullptr, Mode::kOff, false, true), Mode::kOff);
}

TEST(AsymFenceResolver, EnvOverridesCompiledDefault) {
    EXPECT_EQ(resolve("fence", Mode::kMembarrier, false, true), Mode::kFence);
    EXPECT_EQ(resolve("membarrier", Mode::kFence, false, true), Mode::kMembarrier);
    EXPECT_EQ(resolve("off", Mode::kMembarrier, false, true), Mode::kOff);
    EXPECT_EQ(resolve("seqcst", Mode::kMembarrier, false, true), Mode::kSeqCst);
}

TEST(AsymFenceResolver, InvalidEnvIsIgnored) {
    EXPECT_EQ(resolve("", Mode::kMembarrier, false, true), Mode::kMembarrier);
    EXPECT_EQ(resolve("definitely-not-a-mode", Mode::kFence, false, true), Mode::kFence);
    EXPECT_EQ(resolve("MEMBARRIER", Mode::kFence, false, true), Mode::kFence);  // case-sensitive
}

TEST(AsymFenceResolver, TsanDegradesMembarrierToFence) {
    // The kernel barrier is invisible to the race detector, so TSan builds
    // must run two-sided — whether the asymmetric mode came from the build
    // default or from the env.
    EXPECT_EQ(resolve(nullptr, Mode::kMembarrier, true, true), Mode::kFence);
    EXPECT_EQ(resolve("membarrier", Mode::kFence, true, true), Mode::kFence);
    // The other modes are TSan-clean and stay as requested.
    EXPECT_EQ(resolve(nullptr, Mode::kFence, true, true), Mode::kFence);
    EXPECT_EQ(resolve("seqcst", Mode::kMembarrier, true, true), Mode::kSeqCst);
    EXPECT_EQ(resolve("off", Mode::kMembarrier, true, true), Mode::kOff);
}

TEST(AsymFenceResolver, MissingSyscallFallsBackToFence) {
    EXPECT_EQ(resolve(nullptr, Mode::kMembarrier, false, false), Mode::kFence);
    EXPECT_EQ(resolve("membarrier", Mode::kFence, false, false), Mode::kFence);
    // Degradation only applies to the mode that needs the syscall.
    EXPECT_EQ(resolve("seqcst", Mode::kMembarrier, false, false), Mode::kSeqCst);
    EXPECT_EQ(resolve(nullptr, Mode::kOff, false, false), Mode::kOff);
}

TEST(AsymFenceResolver, ProcessModeMatchesResolverDecision) {
    // Whatever this process resolved at first use must be exactly what the
    // pure resolver says for this build + environment (ties the cached path
    // to the tested decision function).
    const Mode expected = resolve(std::getenv("ORC_ASYM_FENCE"), asym::compiled_default(),
                                  ORCGC_TSAN_ACTIVE != 0, asym::membarrier_supported());
    EXPECT_EQ(asym::mode(), expected) << "resolved mode " << asym::mode_name(asym::mode())
                                      << " != expected " << asym::mode_name(expected);
}

TEST(AsymFenceResolver, ModeNamesRoundTrip) {
    EXPECT_STREQ(asym::mode_name(Mode::kOff), "off");
    EXPECT_STREQ(asym::mode_name(Mode::kFence), "fence");
    EXPECT_STREQ(asym::mode_name(Mode::kMembarrier), "membarrier");
    EXPECT_STREQ(asym::mode_name(Mode::kSeqCst), "seqcst");
}

// ------------------------------------------------- heavy-fence accounting

TEST(AsymFenceCounting, HeavyCountsInBarrierModesOnly) {
    {
        ScopedMode m(Mode::kFence);
        const std::uint64_t before = asym::heavy_fences();
        asym::heavy();
        asym::heavy();
        EXPECT_EQ(asym::heavy_fences(), before + 2);
    }
    {
        // seqcst (seed-compat) and off issue no scan-side barrier at all.
        ScopedMode m(Mode::kSeqCst);
        const std::uint64_t before = asym::heavy_fences();
        asym::heavy();
        EXPECT_EQ(asym::heavy_fences(), before);
    }
    {
        ScopedMode m(Mode::kOff);
        const std::uint64_t before = asym::heavy_fences();
        asym::heavy();
        EXPECT_EQ(asym::heavy_fences(), before);
    }
}

TEST(AsymFenceCounting, HeavyScalesWithScansNotLoads) {
    // The acceptance criterion, pinned as a unit test: protected loads must
    // not issue heavy fences (that is the whole point of the asymmetric
    // design); retires that trip a scan must.
    HazardPointers<TrackedObject, 4> gc;
    std::atomic<TrackedObject*> link{nullptr};
    TrackedObject obj;
    link.store(&obj, std::memory_order_release);

    const std::uint64_t before_loads = asym::heavy_fences();
    for (int i = 0; i < 10000; ++i) {
        gc.begin_op();
        (void)gc.get_protected(link, 0);
        gc.end_op();
    }
    EXPECT_EQ(asym::heavy_fences(), before_loads)
        << "protected loads must not pay the heavy fence";

    link.store(nullptr, std::memory_order_release);
    const std::uint64_t before_retires = asym::heavy_fences();
    for (int i = 0; i < 2000; ++i) gc.retire(new TrackedObject());
    if (asym::mode() == Mode::kFence || asym::mode() == Mode::kMembarrier) {
        EXPECT_GT(asym::heavy_fences(), before_retires)
            << "retire-triggered scans must issue heavy fences";
    }
}

// ------------------------------------------------------ mode-parity churn

// The RetireChurn workload from test_retire_paths, run explicitly under each
// safe fence strategy: short-lived threads hammer a shared root while
// displaced nodes retire through the full engine; the alloc tracker must
// prove zero leaks and no double destroys in every mode. (Under TSan the
// membarrier request degrades to fence — the parity claim still holds, it is
// just fence-vs-fence there.)
class AsymFenceModeParity : public ::testing::TestWithParam<Mode> {};

struct Node : orc_base, TrackedObject {
    std::uint64_t value;
    orc_atomic<Node*> next{nullptr};
    explicit Node(std::uint64_t v = 0) : value(v) {}
};

TEST_P(AsymFenceModeParity, ChurnLeavesNoLeaksOrDoubleFrees) {
    ScopedMode scoped(GetParam());
    auto& counters = AllocCounters::instance();
    auto& engine = OrcDomain::global();
    const auto live_before = settled_live_count(engine);
    const auto doubles_before = counters.double_destroys();
    {
        orc_atomic<Node*> root;
        {
            orc_ptr<Node*> first = make_orc<Node>(0);
            root.store(first);
        }
        const int rounds = stress_iters(12);
        constexpr int kWave = 6;
        for (int round = 0; round < rounds; ++round) {
            std::vector<std::thread> wave;
            wave.reserve(kWave);
            for (int w = 0; w < kWave; ++w) {
                wave.emplace_back([&root, round, w] {
                    Xoshiro256 rng(1 + round * kWave + w);
                    for (int i = 0; i < 40; ++i) {
                        orc_ptr<Node*> cur = root.load();
                        if (cur != nullptr && !cur->check_alive()) return;
                        if (rng.next_bounded(4) == 0) {
                            orc_ptr<Node*> fresh = make_orc<Node>(i);
                            root.store(fresh);  // displaced node retires here
                        }
                    }
                });
            }
            for (auto& t : wave) t.join();
        }
        root.store(nullptr);
    }
    EXPECT_EQ(engine.handover_count(), 0u);
    // Exited threads settled their buffers; this thread's last unlink may
    // still be buffered.
    EXPECT_TRUE(settles(engine, live_count, live_before));
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

TEST_P(AsymFenceModeParity, DeepCascadeDestroysEveryNodeExactlyOnce) {
    ScopedMode scoped(GetParam());
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    const auto doubles_before = counters.double_destroys();
    const int depth = stress_iters(800);
    {
        orc_atomic<Node*> root;
        {
            orc_ptr<Node*> head = make_orc<Node>(0);
            orc_ptr<Node*> cur = head;
            for (int i = 1; i < depth; ++i) {
                orc_ptr<Node*> nxt = make_orc<Node>(i);
                cur->next.store(nxt);
                cur = nxt;
            }
            root.store(head);
        }
        root.store(nullptr);  // head retires into the deferral buffer
        EXPECT_EQ(counters.live_count(), live_before + depth);
        OrcDomain::global().flush();  // the buffer walk: the chain cascades
        EXPECT_EQ(counters.live_count(), live_before);
    }
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

INSTANTIATE_TEST_SUITE_P(Modes, AsymFenceModeParity,
                         ::testing::Values(Mode::kMembarrier, Mode::kFence),
                         [](const ::testing::TestParamInfo<Mode>& param_info) {
                             return std::string(asym::mode_name(param_info.param));
                         });

}  // namespace
}  // namespace orcgc
