// White-box tests for the manual reclamation schemes: the protect/retire
// contract (a protected object is never freed; retired objects are
// eventually freed), scheme-specific mechanics (PTP handover, HP scan,
// PTB handoff), and the memory-bound property that is PTP's headline claim
// (Table 1: O(H·t) vs O(H·t²)).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/barrier.hpp"
#include "common/thread_registry.hpp"
#include "core/orc_domain.hpp"
#include "reclamation/reclamation.hpp"
#include "common/workload.hpp"

namespace orcgc {
namespace {

struct TestNode : ReclaimableBase, TrackedObject {
    std::uint64_t value;
    explicit TestNode(std::uint64_t v = 0) : value(v) {}
};

template <typename ReclaimerT>
class ReclaimerContractTest : public ::testing::Test {};

using Reclaimers =
    ::testing::Types<HazardPointers<TestNode, 4>, PassTheBuck<TestNode, 4>,
                     EpochBasedReclaimer<TestNode, 4>, HazardEras<TestNode, 4>,
                     IntervalBasedReclaimer<TestNode, 4>, PassThePointer<TestNode, 4>,
                     Hyaline<TestNode, 4>, Debra<TestNode, 4>>;
TYPED_TEST_SUITE(ReclaimerContractTest, Reclaimers);

TYPED_TEST(ReclaimerContractTest, RetiredObjectsEventuallyFreed) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    {
        TypeParam gc;
        std::atomic<TestNode*> link{nullptr};
        // Churn enough to trip every scheme's scan threshold repeatedly.
        for (int i = 0; i < 5000; ++i) {
            gc.begin_op();
            TestNode* node = new TestNode(i);
            link.store(node, std::memory_order_seq_cst);
            TestNode* seen = gc.get_protected(link, 0);
            EXPECT_EQ(seen, node);
            EXPECT_TRUE(seen->check_alive());
            link.store(nullptr, std::memory_order_seq_cst);
            gc.end_op();
            gc.retire(node);
        }
        // Everything is quiescent now; whatever is still buffered is freed by
        // the reclaimer's destructor.
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

TYPED_TEST(ReclaimerContractTest, ProtectedObjectSurvivesConcurrentRetire) {
    auto& counters = AllocCounters::instance();
    {
        TypeParam gc;
        const int kRounds = stress_iters(300);
        std::atomic<TestNode*> link{nullptr};
        std::atomic<bool> stop{false};
        SpinBarrier barrier(2);

        std::thread protector([&] {
            barrier.arrive_and_wait();
            while (!stop.load(std::memory_order_acquire)) {
                gc.begin_op();
                TestNode* node = gc.get_protected(link, 0);
                if (node != nullptr) {
                    // The retirer may retire the node at any time; protection
                    // must keep the canary alive through these reads.
                    for (int i = 0; i < 50; ++i) {
                        ASSERT_TRUE(node->check_alive());
                    }
                }
                gc.end_op();
            }
        });
        std::thread retirer([&] {
            barrier.arrive_and_wait();
            for (int i = 0; i < kRounds; ++i) {
                TestNode* node = new TestNode(i);
                link.store(node, std::memory_order_seq_cst);
                std::this_thread::yield();
                TestNode* expected = node;
                if (link.compare_exchange_strong(expected, nullptr)) {
                    gc.begin_op();
                    gc.retire(node);
                    gc.end_op();
                }
            }
            stop.store(true, std::memory_order_release);
        });
        protector.join();
        retirer.join();
    }
    EXPECT_EQ(counters.dead_accesses(), 0);
    EXPECT_EQ(counters.double_destroys(), 0);
}

// The concurrent protect-vs-retire race of ProtectedObjectSurvivesConcurrentRetire,
// run explicitly under each safe fence strategy: the scheme scans' asym::heavy()
// must uphold the no-UAF guarantee whether it is the process-wide barrier or
// the two-sided fallback. (The *_fencemode ctest leg additionally reruns the
// whole suite with ORC_ASYM_FENCE=fence from the environment.)
TYPED_TEST(ReclaimerContractTest, ProtectionHoldsUnderBothFenceModes) {
    auto& counters = AllocCounters::instance();
    for (const asym::Mode mode : {asym::Mode::kMembarrier, asym::Mode::kFence}) {
        asym::testing::ScopedMode scoped(mode);
        {
            TypeParam gc;
            const int kRounds = stress_iters(120);
            std::atomic<TestNode*> link{nullptr};
            std::atomic<bool> stop{false};
            SpinBarrier barrier(2);
            std::thread protector([&] {
                barrier.arrive_and_wait();
                while (!stop.load(std::memory_order_acquire)) {
                    gc.begin_op();
                    TestNode* node = gc.get_protected(link, 0);
                    if (node != nullptr) {
                        for (int i = 0; i < 50; ++i) {
                            ASSERT_TRUE(node->check_alive());
                        }
                    }
                    gc.end_op();
                }
            });
            std::thread retirer([&] {
                barrier.arrive_and_wait();
                for (int i = 0; i < kRounds; ++i) {
                    TestNode* node = new TestNode(i);
                    link.store(node, std::memory_order_seq_cst);
                    std::this_thread::yield();
                    TestNode* expected = node;
                    if (link.compare_exchange_strong(expected, nullptr)) {
                        gc.begin_op();
                        gc.retire(node);
                        gc.end_op();
                    }
                }
                stop.store(true, std::memory_order_release);
            });
            protector.join();
            retirer.join();
        }
        EXPECT_EQ(counters.dead_accesses(), 0) << "UAF under mode " << asym::mode_name(mode);
        EXPECT_EQ(counters.double_destroys(), 0)
            << "double destroy under mode " << asym::mode_name(mode);
    }
}

TYPED_TEST(ReclaimerContractTest, UnreclaimedCountDrainsToZeroAfterQuiescence) {
    TypeParam gc;
    std::atomic<TestNode*> dummy{nullptr};
    for (int i = 0; i < 2000; ++i) {
        gc.begin_op();
        (void)gc.get_protected(dummy, 0);
        gc.end_op();
        gc.retire(new TestNode(i));
    }
    // With no protections held, further retirements must be able to flush the
    // backlog (schemes scan on retire).
    for (int i = 0; i < 2000; ++i) gc.retire(new TestNode(i));
    EXPECT_LT(gc.unreclaimed_count(), 2000u);
}

// ---------------------------------------------------------------- PTP-only

TEST(PassThePointer, RetireOfUnprotectedObjectFreesImmediately) {
    auto& counters = AllocCounters::instance();
    PassThePointer<TestNode, 4> gc;
    const auto live_before = counters.live_count();
    gc.retire(new TestNode(1));
    // No thread protects it: handover_or_delete must delete on the spot.
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(gc.unreclaimed_count(), 0u);
}

TEST(PassThePointer, HandoverParksAtProtectorAndClearFrees) {
    auto& counters = AllocCounters::instance();
    PassThePointer<TestNode, 4> gc;
    std::atomic<TestNode*> link{new TestNode(7)};
    const auto live_before = counters.live_count();

    // This thread protects the node...
    TestNode* node = gc.get_protected(link, 2);
    ASSERT_NE(node, nullptr);
    link.store(nullptr);

    // ...while another thread retires it: the retire must hand the node over
    // to us (parked, not freed).
    std::thread([&] { gc.retire(node); }).join();
    EXPECT_EQ(counters.live_count(), live_before);  // still alive
    EXPECT_TRUE(node->check_alive());
    // unreclaimed_count is retired-minus-freed from the telemetry counters,
    // which the overhead-baseline build compiles out.
    if (telemetry::kTelemetryEnabled) {
        EXPECT_EQ(gc.unreclaimed_count(), 1u);  // parked in our handover slot
    }

    // Clearing the hazard pointer drains the handover and frees it.
    gc.clear_one(2);
    EXPECT_EQ(counters.live_count(), live_before - 1);
    if (telemetry::kTelemetryEnabled) {
        EXPECT_EQ(gc.unreclaimed_count(), 0u);
    }
}

TEST(PassThePointer, LinearMemoryBoundUnderChurn) {
    // The paper's headline property (§3.1): at most t*(H+1) retired but
    // undeleted objects at any time — measured here as the peak of
    // unreclaimed_count() + 1 in-flight object per thread.
    constexpr int kThreads = 6;
    constexpr int kHPs = 3;
    PassThePointer<TestNode, kHPs> gc;
    std::atomic<TestNode*> links[kThreads];
    for (auto& l : links) l.store(new TestNode());
    std::atomic<std::size_t> peak{0};
    std::atomic<bool> stop{false};
    SpinBarrier barrier(kThreads + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            barrier.arrive_and_wait();
            const int ops_each = stress_iters(3000);
            for (int i = 0; i < ops_each; ++i) {
                // Protect a random link, replace the node, retire the old one.
                auto& link = links[(t + i) % kThreads];
                TestNode* old = gc.get_protected(link, i % kHPs);
                TestNode* fresh = new TestNode(i);
                TestNode* expected = old;
                if (old != nullptr && link.compare_exchange_strong(expected, fresh)) {
                    gc.retire(old);
                } else {
                    delete fresh;
                }
                if (i % 64 == 0) {
                    for (int h = 0; h < kHPs; ++h) gc.clear_one(h);
                }
            }
            for (int h = 0; h < kHPs; ++h) gc.clear_one(h);
        });
    }
    std::thread monitor([&] {
        barrier.arrive_and_wait();
        while (!stop.load(std::memory_order_acquire)) {
            const std::size_t count = gc.unreclaimed_count();
            std::size_t prev = peak.load();
            while (prev < count && !peak.compare_exchange_weak(prev, count)) {
            }
            std::this_thread::yield();
        }
    });
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_release);
    monitor.join();
    for (auto& l : links) {
        if (TestNode* n = l.exchange(nullptr)) gc.retire(n);
    }
    // Linear bound with the paper's constant: t*(H+1), measured against every
    // registered thread slot to be conservative.
    const std::size_t bound =
        static_cast<std::size_t>(thread_id_watermark()) * (kHPs + 1);
    EXPECT_LE(peak.load(), bound);
}

// -------------------------------------------------------------- EBR-only

TEST(EpochBased, StalledReaderBlocksReclamation) {
    // The ∞-bound of Table 1: a reader parked inside a critical section pins
    // every epoch, so nothing retired after its epoch can be freed.
    EpochBasedReclaimer<TestNode, 4> gc;
    auto& counters = AllocCounters::instance();
    SpinBarrier entered(2), release(2);
    std::thread reader([&] {
        gc.begin_op();
        entered.arrive_and_wait();
        release.arrive_and_wait();  // stall inside the critical section
        gc.end_op();
    });
    entered.arrive_and_wait();
    const auto live_before = counters.live_count();
    for (int i = 0; i < 500; ++i) gc.retire(new TestNode(i));
    // The stalled reader prevents the epoch from advancing twice: nothing of
    // consequence can have been freed.
    EXPECT_GE(counters.live_count(), live_before + 400);
    release.arrive_and_wait();
    reader.join();
    // After the reader leaves, continued retiring drains the backlog.
    for (int i = 0; i < 200; ++i) gc.retire(new TestNode(i));
    EXPECT_LT(gc.unreclaimed_count(), 700u);
}

// ---------------------------------------------------------- OrcGC engine

TEST(OrcEngineIntrospection, HandoverCountIsBounded) {
    auto& engine = OrcDomain::global();
    // No structure in flight on this thread: nothing parked, scratch free.
    EXPECT_LE(engine.handover_count(),
              static_cast<std::size_t>(thread_id_watermark()) * OrcDomain::kMaxHPs);
    EXPECT_GE(engine.hp_watermark(), 1);
}

}  // namespace
}  // namespace orcgc
