// Targeted coverage for the retire-path machinery: per-thread hp watermarks,
// the generational walk-park scan, handover draining under thread churn,
// exactly-once destruction through deep recursive cascades, and the
// deferral buffer's flush points (DESIGN.md §1.3f).
// Companions: DESIGN.md "Retire-path complexity" and bench_retire_batch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "common/workload.hpp"
#include "core/orc.hpp"
#include "deferred_retire.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "ds/orc/nm_tree_orc.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;

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
    const auto live_before = settled_live_count(engine);
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
    // Exited threads settled their own buffers; only this thread's last
    // unlink may still be buffered.
    EXPECT_TRUE(settles(engine, live_count, live_before));
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// ------------------------------------------------------------ deep cascades

// A long singly linked chain whose head drop cascades one node per
// generation through recursive_list: every generation has size 1, so this
// pins the size-1 walk (the paper's per-object Algorithm 6 scan) inside the
// generational loop — one walk per chain node. Every node must be destroyed
// exactly once and none may be left behind. A private domain keeps the walk
// count free of other tests' parked handovers. The head's retire is
// buffered, so the chain stays whole until flush() walks the buffer.
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
        root.store(nullptr);  // head retires into the deferral buffer
        EXPECT_EQ(counters.live_count(), live_before + depth) << "a buffered retire frees nothing";
        engine.flush();  // the buffer walk: the chain cascades
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
// Exactly-once destruction again. The root's retire is buffered until the
// flush.
TEST(RetireCascade, WideFanoutDestroysEveryNodeExactlyOnce) {
    auto& counters = AllocCounters::instance();
    auto& engine = OrcDomain::global();
    const auto live_before = settled_live_count(engine);
    const auto doubles_before = counters.double_destroys();
    const int reps = stress_iters(50);
    for (int r = 0; r < reps; ++r) {
        orc_ptr<WideNode*> root = make_orc<WideNode>();
        for (int i = 0; i < WideNode::kChildren; ++i) {
            orc_ptr<WideNode*> c = make_orc<WideNode>();
            root->child[i].store(c);
        }
        root = nullptr;  // the root joins the deferral buffer
        EXPECT_EQ(counters.live_count(), live_before + 1 + WideNode::kChildren);
        engine.flush();  // two generations: root, then all children at once
        EXPECT_EQ(counters.live_count(), live_before);
    }
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// The acceptance bound is checkable directly from the always-on telemetry: a
// fanout cascade costs exactly 2 full-HP walks, one per generation (the
// size-1 root, then all children at once), and every node is freed by a walk.
// Runs in a private domain so no other test's parked handover can drain in.
// Each cascade is settled by flush(); buffered retires walk nothing.
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
        EXPECT_EQ(engine.metrics().snapshot().snapshots, static_cast<std::uint64_t>(2 * r));
        engine.flush();
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
    auto& engine = OrcDomain::global();
    for (const asym::Mode mode : {asym::Mode::kMembarrier, asym::Mode::kFence}) {
        asym::testing::ScopedMode scoped(mode);
        const auto live_before = settled_live_count(engine);
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
            EXPECT_EQ(counters.live_count(), live_before + depth);  // head buffered
            engine.flush();
            EXPECT_EQ(counters.live_count(), live_before)
                << "leak under mode " << asym::mode_name(mode);
        }
        {
            orc_ptr<WideNode*> root = make_orc<WideNode>();
            for (int i = 0; i < WideNode::kChildren; ++i) {
                orc_ptr<WideNode*> c = make_orc<WideNode>();
                root->child[i].store(c);
            }
            root = nullptr;  // buffered; at the flush, one walk for all children
            EXPECT_EQ(counters.live_count(), live_before + 1 + WideNode::kChildren);
            engine.flush();
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

// ------------------------------------------------------ deferral buffer

/// Spin-waits (test-only) until `flag` is set.
void await_flag(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

// The amortization itself: R root retires on one thread cost exactly one
// heavy fence and one walk, issued by the R-th retire; the first R-1 only
// buffer. A private domain and a single thread keep both counts exact.
TEST(DeferralBuffer, OneHeavyFenceAndOneWalkPerRRetires) {
    OrcDomain dom;
    constexpr int kR = OrcDomain::kRetireBuffer;
    constexpr int kBuffers = 3;
    const std::uint64_t heavy0 = asym::heavy_fences();
    for (int b = 0; b < kBuffers; ++b) {
        for (int i = 0; i < kR; ++i) {
            orc_ptr<Node*> p = make_orc_in<Node>(dom, i);
            p = nullptr;  // zero links: retired into the buffer
            const std::uint64_t walks = i + 1 == kR ? b + 1 : b;
            EXPECT_EQ(asym::heavy_fences() - heavy0, walks) << "buffer " << b << " retire " << i;
            if (telemetry::kTelemetryEnabled) {
                EXPECT_EQ(dom.metrics().snapshot().snapshots, walks);
            }
        }
        EXPECT_EQ(dom.object_count(), 0) << "the R-th retire walked and freed the whole buffer";
    }
}

// A thread that exits with a partly filled buffer settles it in the exit
// drain: nothing it retired outlives it.
TEST(DeferralBuffer, ExitingThreadSettlesItsBuffer) {
    auto& counters = AllocCounters::instance();
    const auto doubles_before = counters.double_destroys();
    OrcDomain dom;
    std::thread worker([&] {
        for (int i = 0; i < OrcDomain::kRetireBuffer / 2; ++i) {
            orc_ptr<Node*> p = make_orc_in<Node>(dom, i);
        }
        EXPECT_EQ(dom.object_count(), OrcDomain::kRetireBuffer / 2) << "all still buffered";
    });
    worker.join();
    EXPECT_EQ(dom.object_count(), 0);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// Destroying a domain walks every thread's buffer, a live thread's included
// (the destructor's precondition only forbids concurrent use): no fatal(),
// and every buffered object is freed.
TEST(DeferralBuffer, DomainDestructionSettlesALiveThreadsBuffer) {
    const auto live_before = settled_live_count();
    auto dom = std::make_unique<OrcDomain>();
    std::atomic<bool> buffered{false};
    std::atomic<bool> destroyed{false};
    std::thread worker([&] {
        for (int i = 0; i < OrcDomain::kRetireBuffer - 1; ++i) {
            orc_ptr<Node*> p = make_orc_in<Node>(*dom, i);
        }
        buffered.store(true, std::memory_order_release);
        await_flag(destroyed);  // stays alive, buffer untouched, while the domain dies
    });
    await_flag(buffered);
    EXPECT_EQ(dom->object_count(), OrcDomain::kRetireBuffer - 1);
    dom.reset();  // would fatal() on any object left over
    EXPECT_EQ(live_count(), live_before);
    destroyed.store(true, std::memory_order_release);
    worker.join();
}

// perfbench's teardown shape: removes leave retired nodes in the buffer, then
// the structure's destructor runs. Its head link's ~orc_atomic flushes, so
// the domain is back to its baseline the moment the destructor returns.
TEST(DeferralBuffer, StructureDestructorFlushesTheBuffer) {
    OrcDomain dom;
    const std::int64_t baseline = dom.object_count();
    {
        MichaelListOrc<std::uint64_t> list(&dom);
        for (std::uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(list.insert(k));
        for (std::uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(list.remove(k));
        // 8 < R removed nodes sit in the buffer, still counted.
        EXPECT_GT(dom.object_count(), baseline + 56);
    }
    EXPECT_EQ(dom.object_count(), baseline);
}

// Structure operations never drop a link outside a cascade, so they never
// flush: on one thread every cascade is a buffer-full walk, at most one per
// R retires (a flush per operation would cost a cascade per remove). Only
// the structure's destructor flushes, and it leaves the domain empty. Both
// structures perfbench drives: the Michael list and the NM tree.
template <typename Set>
void expect_operations_never_flush() {
    if (!telemetry::kTelemetryEnabled) {
        GTEST_SKIP() << "cascade counters compiled out (-DORCGC_TELEMETRY=OFF)";
    }
    OrcDomain dom;
    {
        Set set(&dom);
        Xoshiro256 rng(5);
        const OrcMetrics::Snapshot before = dom.metrics().snapshot();
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t key = rng.next_bounded(256);
            switch (rng.next_bounded(3)) {
                case 0: set.insert(key); break;
                case 1: set.remove(key); break;
                default: set.contains(key); break;
            }
        }
        const OrcMetrics::Snapshot after = dom.metrics().snapshot();
        const std::uint64_t retired = after.retired - before.retired;
        const std::uint64_t cascades = after.cascades - before.cascades;
        EXPECT_GT(cascades, 0u);
        EXPECT_LE(cascades, retired / OrcDomain::kRetireBuffer);
    }
    EXPECT_EQ(dom.object_count(), 0);
}

TEST(DeferralBuffer, StructureOperationsNeverFlush) {
    expect_operations_never_flush<MichaelListOrc<std::uint64_t>>();
    expect_operations_never_flush<NMTreeOrc<std::uint64_t>>();
}

// A thread that stops retiring with a partly filled buffer does not keep it
// (and what it links to) alive: a buffer walk that finds the owner retired
// nothing since the previous walk's look adopts it. The first walk only
// looks — a running thread walks its own buffer — and the second adopts.
TEST(DeferralBuffer, BufferWalkAdoptsAStalledThreadsBuffer) {
    OrcDomain dom;
    constexpr int kR = OrcDomain::kRetireBuffer;
    constexpr int kStalled = 5;
    std::atomic<bool> buffered{false};
    std::atomic<bool> done{false};
    std::thread stalled([&] {
        for (int i = 0; i < kStalled; ++i) {
            orc_ptr<Node*> p = make_orc_in<Node>(dom, i);
        }
        buffered.store(true, std::memory_order_release);
        await_flag(done);
    });
    await_flag(buffered);
    for (int i = 0; i < kR; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(dom, i);
    }
    EXPECT_EQ(dom.object_count(), kStalled) << "first walk: the owner had just retired";
    for (int i = 0; i < kR; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(dom, i);
    }
    EXPECT_EQ(dom.object_count(), 0) << "second walk: the stalled buffer was adopted";
    done.store(true, std::memory_order_release);
    stalled.join();
}

// Resurrection while buffered: the object is re-linked between its retire
// and the walk. The walk's pre-read sees the counter off zero and drops the
// token; the object survives intact, and the next unlink retires it afresh
// and frees it exactly once.
TEST(DeferralBuffer, ObjectRelinkedBeforeTheWalkSurvivesAndIsFreedOnce) {
    auto& counters = AllocCounters::instance();
    const auto doubles_before = counters.double_destroys();
    OrcDomain dom;
    ScopedDomain scope(dom);
    orc_atomic<Node*> root;
    {
        orc_ptr<Node*> a = make_orc<Node>(7);
        root.store(a);
        root.store(nullptr);  // zero links: token taken, object buffered
        root.store(a);        // re-linked while still buffered
    }
    dom.flush();  // the walk drops the token instead of freeing
    EXPECT_EQ(dom.object_count(), 1);
    {
        orc_ptr<Node*> check = root.load();
        ASSERT_TRUE(static_cast<bool>(check));
        EXPECT_TRUE(check->check_alive());
        EXPECT_EQ(check->value, 7u);
        EXPECT_FALSE(orc::is_zero_retired(check->_orc.load(std::memory_order_relaxed)));
    }
    root.store(nullptr);  // retired afresh
    dom.flush();
    EXPECT_EQ(dom.object_count(), 0);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
    if (telemetry::kTelemetryEnabled) {
        const OrcMetrics::Snapshot s = dom.metrics().snapshot();
        EXPECT_EQ(s.resurrected, 1u);
        EXPECT_EQ(s.freed_batch, 1u);
        EXPECT_EQ(s.retired, s.freed_batch + s.resurrected);
    }
}

}  // namespace
}  // namespace orcgc
