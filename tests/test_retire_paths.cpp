// Targeted coverage for the retire-path machinery: per-thread hp watermarks,
// the generational walk-park scan, handover draining under thread churn, and
// exactly-once destruction through deep recursive cascades.
// Companions: DESIGN.md "Retire-path complexity" and bench_retire_batch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "common/workload.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

struct Node : orc_base, TrackedObject {
    std::uint64_t value;
    orc_atomic<Node*> next{nullptr};
    explicit Node(std::uint64_t v = 0) : value(v) {}
};

struct WideNode : orc_base, TrackedObject {
    static constexpr int kChildren = 32;
    orc_atomic<WideNode*> child[kChildren];
};

// ----------------------------------------------------------- thread churn

// Many short-lived threads hammer a shared root, then exit. Every exit runs
// the registry hook (DESIGN.md deviation 3) which must drain that thread's
// handover slots even as its tid is immediately reused by the next wave —
// at quiescence nothing may stay parked and nothing may leak.
TEST(RetireChurn, ShortLivedThreadsLeaveNoParkedHandovers) {
    auto& counters = AllocCounters::instance();
    auto& engine = OrcDomain::global();
    const auto live_before = counters.live_count();
    const auto doubles_before = counters.double_destroys();
    {
        orc_atomic<Node*> root;
        {
            orc_ptr<Node*> first = make_orc<Node>(0);
            root.store(first);
        }
        const int rounds = stress_iters(30);
        constexpr int kWave = 8;
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
                    // Thread exits with protections published until the very
                    // last orc_ptr destructor — the exit hook must cope.
                });
            }
            for (auto& t : wave) t.join();
        }
        root.store(nullptr);
    }
    EXPECT_EQ(engine.handover_count(), 0u)
        << "exited threads left objects parked in handover slots";
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// ------------------------------------------------------------ deep cascades

// A long singly linked chain whose head drop cascades one node per
// generation through recursive_list: every generation has size 1, so this
// pins the size-1 walk (the paper's per-object Algorithm 6 scan) inside the
// generational loop — one walk per chain node. Every node must be destroyed
// exactly once and none may be left behind. A private domain keeps the walk
// count free of other tests' parked handovers.
TEST(RetireCascade, DeepChainDestroysEveryNodeExactlyOnce) {
    auto& counters = AllocCounters::instance();
    OrcDomain engine;
    ScopedDomain scope(engine);
    const auto live_before = counters.live_count();
    const auto doubles_before = counters.double_destroys();
    const int depth = stress_iters(2000);
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
            EXPECT_EQ(counters.live_count(), live_before + depth);
        }
        root.store(nullptr);  // head retires; the chain cascades
        EXPECT_EQ(counters.live_count(), live_before);
    }
    EXPECT_EQ(counters.double_destroys(), doubles_before);
    if (telemetry::kTelemetryEnabled) {
        EXPECT_EQ(engine.metrics().snapshot().snapshots, static_cast<std::uint64_t>(depth))
            << "every chain node is its own size-1 generation: one walk each";
    }
}

// A wide fanout cascade: dropping the root retires it (generation 1) and its
// destructor pushes all children at once (generation 2, one shared walk).
// Exactly-once destruction again.
TEST(RetireCascade, WideFanoutDestroysEveryNodeExactlyOnce) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    const auto doubles_before = counters.double_destroys();
    const int reps = stress_iters(50);
    for (int r = 0; r < reps; ++r) {
        orc_ptr<WideNode*> root = make_orc<WideNode>();
        for (int i = 0; i < WideNode::kChildren; ++i) {
            orc_ptr<WideNode*> c = make_orc<WideNode>();
            root->child[i].store(c);
        }
        root = nullptr;  // two generations: root, then all children at once
        EXPECT_EQ(counters.live_count(), live_before);
    }
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// The acceptance bound is checkable directly from the always-on telemetry: a
// fanout cascade costs exactly 2 full-HP walks, one per generation (the
// size-1 root, then all children at once), and every node is freed by a walk.
// Runs in a private domain so no other test's parked handover can drain in.
TEST(RetireCascade, FanoutUsesAtMostTwoSnapshotsPerCascade) {
    if (!telemetry::kTelemetryEnabled) {
        GTEST_SKIP() << "snapshot counters compiled out (-DORCGC_TELEMETRY=OFF)";
    }
    OrcDomain engine;
    ScopedDomain scope(engine);
    constexpr int kCascades = 64;
    for (int r = 0; r < kCascades; ++r) {
        orc_ptr<WideNode*> root = make_orc<WideNode>();
        for (int i = 0; i < WideNode::kChildren; ++i) {
            orc_ptr<WideNode*> c = make_orc<WideNode>();
            root->child[i].store(c);
        }
        root = nullptr;
    }
    const OrcMetrics::Snapshot s = engine.metrics().snapshot();
    EXPECT_EQ(s.snapshots, static_cast<std::uint64_t>(2 * kCascades));
    EXPECT_EQ(s.freed_batch, s.retired) << "every retired node is freed by a generation walk";
    EXPECT_EQ(s.retired, static_cast<std::uint64_t>(kCascades * (WideNode::kChildren + 1)));
}

// Both cascade shapes again, under each safe fence strategy explicitly: the
// retire scans' asym::heavy() must keep the exactly-once guarantee whether it
// is a process-wide barrier or the two-sided fallback. (The *_fencemode ctest
// leg additionally reruns this whole suite with ORC_ASYM_FENCE=fence.)
TEST(RetireCascade, CascadesAreExactlyOnceUnderBothFenceModes) {
    auto& counters = AllocCounters::instance();
    for (const asym::Mode mode : {asym::Mode::kMembarrier, asym::Mode::kFence}) {
        asym::testing::ScopedMode scoped(mode);
        const auto live_before = counters.live_count();
        const auto doubles_before = counters.double_destroys();
        const int depth = stress_iters(500);
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
            root.store(nullptr);
            EXPECT_EQ(counters.live_count(), live_before)
                << "leak under mode " << asym::mode_name(mode);
        }
        {
            orc_ptr<WideNode*> root = make_orc<WideNode>();
            for (int i = 0; i < WideNode::kChildren; ++i) {
                orc_ptr<WideNode*> c = make_orc<WideNode>();
                root->child[i].store(c);
            }
            root = nullptr;  // fanout: one walk for all children
            EXPECT_EQ(counters.live_count(), live_before)
                << "leak under mode " << asym::mode_name(mode);
        }
        EXPECT_EQ(counters.double_destroys(), doubles_before)
            << "double destroy under mode " << asym::mode_name(mode);
    }
}

// -------------------------------------------------------------- watermarks

// The published per-thread scan bound must track the highest claimed hp
// index: raised while orc_ptrs are held, tightened once they are released.
// The lowering has one slot of hysteresis (it only moves when it can drop by
// >= 2) so a claim/release cycle at the bound costs no seq_cst stores —
// hence the <= floor+1 assertions below. hp_watermark() (the peak) stays
// monotonic — it bounds handover draining, not scanning.
TEST(Watermark, TightensWhenIndicesAreReleased) {
    auto& engine = OrcDomain::global();
    EXPECT_EQ(engine.used_idx_count(), 0) << "test requires a quiescent thread";
    EXPECT_LE(engine.hp_watermark_self(), 2);
    constexpr int kHeld = 24;
    {
        std::vector<orc_ptr<Node*>> held;
        held.reserve(kHeld);
        for (int i = 0; i < kHeld; ++i) held.push_back(make_orc<Node>(i));
        EXPECT_GE(engine.hp_watermark_self(), kHeld + 1);
        EXPECT_LE(engine.hp_watermark_self(), OrcDomain::kMaxHPs);
        EXPECT_GE(engine.hp_watermark(), engine.hp_watermark_self());
        // Releasing from the middle must not lower the bound below a still
        // claimed higher index.
        held.erase(held.begin() + 2);
        EXPECT_GE(engine.hp_watermark_self(), kHeld);
    }
    EXPECT_LE(engine.hp_watermark_self(), 2);
    EXPECT_GE(engine.hp_watermark(), kHeld + 1);  // the peak never lowers
}

// Other threads' retires only scan [0, hp_wm) of each thread; a thread that
// held many pointers once must not keep taxing every retire in the process
// afterwards. Observable cheaply through used_idx_count on this thread plus
// the engine-wide invariant tests above; here we just pin the introspection
// unification: both counters use the same per-thread bounds.
TEST(Watermark, IntrospectionAgreesOnBounds) {
    auto& engine = OrcDomain::global();
    {
        orc_ptr<Node*> a = make_orc<Node>(1);
        orc_ptr<Node*> b = make_orc<Node>(2);
        EXPECT_EQ(engine.used_idx_count(), 2);
        EXPECT_GE(engine.hp_watermark_self(), 3);
    }
    EXPECT_EQ(engine.used_idx_count(), 0);
    EXPECT_LE(engine.hp_watermark_self(), 2);
}

}  // namespace
}  // namespace orcgc
