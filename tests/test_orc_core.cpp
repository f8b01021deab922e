// Unit tests for the OrcGC core: _orc bit-field arithmetic, orc_ptr/orc_atomic
// lifecycle semantics, reclamation soundness on simple object graphs, and the
// Michael–Scott queue of the paper's Algorithm 1.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/barrier.hpp"
#include "core/orc.hpp"
#include "ds/orc/ms_queue_orc.hpp"
#include "common/workload.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;

// ---------------------------------------------------------------- bit field

TEST(OrcBits, InitialValueIsZeroUnretired) {
    EXPECT_TRUE(orc::is_zero_unretired(orc::kOrcZero));
    EXPECT_FALSE(orc::is_zero_retired(orc::kOrcZero));
    EXPECT_EQ(orc::link_count(orc::kOrcZero), 0);
    EXPECT_EQ(orc::seq(orc::kOrcZero), 0u);
}

TEST(OrcBits, IncrementAddsLinkAndBumpsSeq) {
    const std::uint64_t v = orc::kOrcZero + orc::kSeqInc + 1;
    EXPECT_EQ(orc::link_count(v), 1);
    EXPECT_EQ(orc::seq(v), 1u);
    EXPECT_FALSE(orc::is_zero_unretired(v));
}

TEST(OrcBits, DecrementBelowBiasGoesNegative) {
    // CAS increments after publication, so a racing unlink can decrement
    // first: counter dips below the bias.
    const std::uint64_t v = orc::kOrcZero + orc::kSeqInc - 1;
    EXPECT_EQ(orc::link_count(v), -1);
    EXPECT_EQ(orc::seq(v), 1u);
    // ...and the matching increment brings it back to zero.
    const std::uint64_t w = v + orc::kSeqInc + 1;
    EXPECT_EQ(orc::link_count(w), 0);
    EXPECT_TRUE(orc::is_zero_unretired(w));
}

TEST(OrcBits, RetiredBitDistinguishesStates) {
    const std::uint64_t v = orc::kOrcZero | orc::kBRetired;
    EXPECT_TRUE(orc::is_zero_retired(v));
    EXPECT_FALSE(orc::is_zero_unretired(v));
    EXPECT_EQ(orc::ocnt(v), orc::kBRetired | orc::kOrcZero);
}

TEST(OrcBits, SeqDoesNotBleedIntoCounter) {
    const std::uint64_t v = orc::kOrcZero + 1000 * orc::kSeqInc;
    EXPECT_TRUE(orc::is_zero_unretired(v));
    EXPECT_EQ(orc::seq(v), 1000u);
}

// ------------------------------------------------------------- object model

struct TestNode : orc_base, TrackedObject {
    std::uint64_t value;
    orc_atomic<TestNode*> next{nullptr};
    explicit TestNode(std::uint64_t v = 0) : value(v) {}
};

std::uint64_t orc_word(const orc_ptr<TestNode*>& p) {
    return p->_orc.load(std::memory_order_relaxed);
}

/// The global domain's quiescent-point check (deferred_retire.hpp).
::testing::AssertionResult global_settles(std::int64_t exact) {
    return settles(OrcDomain::global(), live_count, exact);
}

TEST(OrcLifecycle, UnlinkedObjectIsFreedWhenLastPtrDies) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        orc_ptr<TestNode*> p = make_orc<TestNode>(7);
        EXPECT_EQ(p->value, 7u);
        EXPECT_EQ(counters.live_count(), live_before + 1);
    }
    EXPECT_TRUE(global_settles(live_before));
    EXPECT_EQ(counters.double_destroys(), 0);
}

TEST(OrcLifecycle, HardLinkKeepsObjectAliveAfterLocalRefDies) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    orc_atomic<TestNode*> root;
    {
        orc_ptr<TestNode*> p = make_orc<TestNode>(1);
        root.store(p);
        EXPECT_EQ(orc::link_count(orc_word(p)), 1);
    }
    EXPECT_EQ(counters.live_count(), live_before + 1);  // held by the hard link
    root.store(nullptr);
    EXPECT_TRUE(global_settles(live_before));
}

TEST(OrcLifecycle, StoreDisplacesAndReclaimsOldTarget) {
    const auto live_before = settled_live_count();
    orc_atomic<TestNode*> root;
    {
        orc_ptr<TestNode*> a = make_orc<TestNode>(1);
        root.store(a);
    }
    {
        orc_ptr<TestNode*> b = make_orc<TestNode>(2);
        root.store(b);  // displaces a, which now has no refs at all
        EXPECT_TRUE(global_settles(live_before + 1));
        orc_ptr<TestNode*> check = root.load();
        EXPECT_EQ(check->value, 2u);
    }
    root.store(nullptr);
    EXPECT_TRUE(global_settles(live_before));
}

TEST(OrcLifecycle, CasAdjustsBothCounters) {
    orc_atomic<TestNode*> root;
    orc_ptr<TestNode*> a = make_orc<TestNode>(1);
    orc_ptr<TestNode*> b = make_orc<TestNode>(2);
    root.store(a);
    EXPECT_EQ(orc::link_count(orc_word(a)), 1);
    EXPECT_TRUE(root.cas(a, b));
    EXPECT_EQ(orc::link_count(orc_word(a)), 0);
    EXPECT_EQ(orc::link_count(orc_word(b)), 1);
    EXPECT_FALSE(root.cas(a, b));  // expected no longer matches
    root.store(nullptr);
}

TEST(OrcLifecycle, FailedCasChangesNothing) {
    orc_atomic<TestNode*> root;
    orc_ptr<TestNode*> a = make_orc<TestNode>(1);
    orc_ptr<TestNode*> b = make_orc<TestNode>(2);
    root.store(a);
    const std::uint64_t word_a = orc_word(a);
    const std::uint64_t word_b = orc_word(b);
    EXPECT_FALSE(root.cas(b, b));
    EXPECT_EQ(orc_word(a), word_a);
    EXPECT_EQ(orc_word(b), word_b);
    root.store(nullptr);
}

TEST(OrcLifecycle, ExchangeReturnsProtectedOldValue) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    orc_atomic<TestNode*> root;
    {
        orc_ptr<TestNode*> a = make_orc<TestNode>(1);
        root.store(a);
    }
    {
        orc_ptr<TestNode*> old = root.exchange(nullptr);
        ASSERT_TRUE(static_cast<bool>(old));
        EXPECT_EQ(old->value, 1u);
        EXPECT_TRUE(old->check_alive());
        EXPECT_EQ(counters.live_count(), live_before + 1);  // kept alive by orc_ptr
    }
    EXPECT_TRUE(global_settles(live_before));
}

TEST(OrcLifecycle, ChainCascadesOnRootDrop) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    constexpr int kChain = 1000;  // long enough to catch stack-overflow regressions
    {
        orc_atomic<TestNode*> root;
        {
            orc_ptr<TestNode*> head = make_orc<TestNode>(0);
            orc_ptr<TestNode*> cur = head;
            for (int i = 1; i < kChain; ++i) {
                orc_ptr<TestNode*> next = make_orc<TestNode>(i);
                cur->next.store(next);
                cur = next;
            }
            root.store(head);
        }
        EXPECT_EQ(counters.live_count(), live_before + kChain);
        // root's destructor drops the head and flushes; the whole chain
        // must cascade via the recursion-flattening list, not the program
        // stack — and be gone before the destructor returns (exact check).
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

TEST(OrcLifecycle, ReinsertionResurrectsRetiredObject) {
    // Obstacle 3 of §2: an object taken out of a structure and re-inserted
    // must not be freed in between, because a local reference still exists.
    // Deterministic in a private domain: the unlink's buffer walk parks the
    // object on our own hp, the re-link makes its counter non-zero, and
    // releasing `a` drains the park into the next walk's resurrection
    // branch (the flushes run those walks at these points).
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    OrcDomain dom;
    ScopedDomain scope(dom);
    orc_atomic<TestNode*> root;
    {
        orc_ptr<TestNode*> a = make_orc<TestNode>(42);
        root.store(a);
        root.store(nullptr);  // unlink: counter drops to zero, retire buffered
        dom.flush();          // the walk finds `a`'s hp and parks the object
        EXPECT_TRUE(a->check_alive());  // `a` still protects it
        EXPECT_EQ(dom.handover_count(), 1u);
        root.store(a);  // re-insert: the object is resurrected
        EXPECT_EQ(counters.live_count(), live_before + 1);
    }
    dom.flush();  // the drained park meets the non-zero counter: token dropped
    EXPECT_EQ(counters.live_count(), live_before + 1);
    EXPECT_EQ(dom.handover_count(), 0u);
    orc_ptr<TestNode*> check = root.load();
    ASSERT_TRUE(static_cast<bool>(check));
    EXPECT_EQ(check->value, 42u);
    EXPECT_TRUE(check->check_alive());
    check = nullptr;
    root.store(nullptr);
    EXPECT_TRUE(settles(dom, [&] { return dom.object_count(); }, 0));
    EXPECT_EQ(counters.live_count(), live_before);
    if (telemetry::kTelemetryEnabled) {
        const OrcMetrics::Snapshot s = dom.metrics().snapshot();
        EXPECT_EQ(s.resurrected, 1u);
        EXPECT_EQ(s.retired, s.freed_batch + s.resurrected);
    }
}

// ------------------------------------------------------------------ orc_ptr

TEST(OrcPtr, CopySharesIndex) {
    orc_ptr<TestNode*> a = make_orc<TestNode>(1);
    orc_ptr<TestNode*> b = a;
    EXPECT_EQ(a.index(), b.index());
    EXPECT_EQ(a.get(), b.get());
}

TEST(OrcPtr, MoveTransfersOwnership) {
    orc_ptr<TestNode*> a = make_orc<TestNode>(1);
    const int idx = a.index();
    orc_ptr<TestNode*> b = std::move(a);
    EXPECT_EQ(b.index(), idx);
    EXPECT_EQ(a.index(), -1);
    EXPECT_EQ(a.get(), nullptr);
}

TEST(OrcPtr, SelfAssignmentIsSafe) {
    orc_ptr<TestNode*> a = make_orc<TestNode>(1);
    auto& alias = a;
    a = alias;
    EXPECT_EQ(a->value, 1u);
}

TEST(OrcPtr, AssignmentReleasesOldIndex) {
    auto& engine = OrcDomain::global();
    const int used_before = engine.used_idx_count();
    {
        orc_ptr<TestNode*> a = make_orc<TestNode>(1);
        orc_ptr<TestNode*> b = make_orc<TestNode>(2);
        EXPECT_EQ(engine.used_idx_count(), used_before + 2);
        a = b;  // a's old slot must be released
        EXPECT_EQ(engine.used_idx_count(), used_before + 1);
    }
    EXPECT_EQ(engine.used_idx_count(), used_before);
}

TEST(OrcPtr, NoIndexLeakOverManyLoads) {
    auto& engine = OrcDomain::global();
    orc_atomic<TestNode*> root;
    {
        orc_ptr<TestNode*> a = make_orc<TestNode>(1);
        root.store(a);
    }
    const int used_before = engine.used_idx_count();
    for (int i = 0; i < 10000; ++i) {
        orc_ptr<TestNode*> p = root.load();
        EXPECT_EQ(p->value, 1u);
    }
    EXPECT_EQ(engine.used_idx_count(), used_before);
    root.store(nullptr);
}

TEST(OrcPtr, MarkBitsDoNotConfuseProtection) {
    orc_ptr<TestNode*> a = make_orc<TestNode>(5);
    orc_ptr<TestNode*> m = a;
    // Simulate Harris-style traversal metadata on the local copy.
    EXPECT_FALSE(m.is_marked());
    EXPECT_EQ(m.unmarked(), a.get());
    m.unmark();
    EXPECT_EQ(m.get(), a.get());
}

// ------------------------------------------------------- MS queue (Alg. 1)

TEST(MSQueueOrc, SequentialFifo) {
    MSQueueOrc<std::uint64_t> queue;
    EXPECT_TRUE(queue.empty());
    for (std::uint64_t i = 0; i < 100; ++i) queue.enqueue(i);
    EXPECT_FALSE(queue.empty());
    for (std::uint64_t i = 0; i < 100; ++i) {
        auto v = queue.dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(queue.dequeue().has_value());
    EXPECT_TRUE(queue.empty());
}

TEST(MSQueueOrc, DequeueFromEmptyReturnsNullopt) {
    MSQueueOrc<int> queue;
    EXPECT_FALSE(queue.dequeue().has_value());
    queue.enqueue(1);
    EXPECT_EQ(queue.dequeue().value(), 1);
    EXPECT_FALSE(queue.dequeue().has_value());
}

TEST(MSQueueOrc, DestructorReclaimsRemainingNodes) {
    auto& counters = AllocCounters::instance();
    struct Item : TrackedObject {
        int v;
        explicit Item(int x) : v(x) {}
    };
    const auto live_before = settled_live_count();
    {
        MSQueueOrc<std::shared_ptr<Item>> queue;
        for (int i = 0; i < 50; ++i) queue.enqueue(std::make_shared<Item>(i));
        // drop the queue with 50 items still inside
    }
    EXPECT_EQ(counters.live_count(), live_before);
}

TEST(MSQueueOrc, ConcurrentTransferNoLossNoDuplication) {
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr std::uint64_t kPerProducer = 20000;
    MSQueueOrc<std::uint64_t> queue;
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::uint8_t> seen(kProducers * kPerProducer, 0);
    std::atomic<bool> producers_done{false};
    SpinBarrier barrier(kProducers + kConsumers);

    std::vector<std::thread> threads;
    std::atomic<int> producers_left{kProducers};
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            barrier.arrive_and_wait();
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                queue.enqueue(p * kPerProducer + i);
            }
            if (producers_left.fetch_sub(1) == 1) producers_done.store(true);
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            barrier.arrive_and_wait();
            while (true) {
                auto v = queue.dequeue();
                if (!v.has_value()) {
                    if (!producers_done.load()) continue;
                    v = queue.dequeue();  // re-check after observing "done"
                    if (!v.has_value()) break;
                }
                // Each value must be seen exactly once.
                ASSERT_EQ(seen[*v]++, 0);
                consumed.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
    EXPECT_TRUE(queue.empty());
}

TEST(MSQueueOrc, PerProducerOrderPreserved) {
    constexpr int kProducers = 3;
    constexpr std::uint64_t kPerProducer = 10000;
    MSQueueOrc<std::uint64_t> queue;  // value = producer * 2^32 + seq
    SpinBarrier barrier(kProducers + 1);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            barrier.arrive_and_wait();
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                queue.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
            }
        });
    }
    std::uint64_t last_seq[kProducers];
    for (auto& v : last_seq) v = ~0ULL;
    std::uint64_t drained = 0;
    std::thread consumer([&] {
        barrier.arrive_and_wait();
        while (drained < kProducers * kPerProducer) {
            auto v = queue.dequeue();
            if (!v.has_value()) continue;
            const int p = static_cast<int>(*v >> 32);
            const std::uint64_t seq = *v & 0xFFFFFFFFu;
            // FIFO per producer: sequence numbers strictly increase.
            EXPECT_EQ(seq, last_seq[p] + 1);
            last_seq[p] = seq;
            ++drained;
        }
    });
    for (auto& t : producers) t.join();
    consumer.join();
    EXPECT_EQ(drained, kProducers * kPerProducer);
}

TEST(MSQueueOrc, NoLeaksUnderConcurrentChurn) {
    auto& counters = AllocCounters::instance();
    struct Item : TrackedObject {
        std::uint64_t v;
        explicit Item(std::uint64_t x) : v(x) {}
    };
    const auto live_before = settled_live_count();
    const auto dead_before = counters.dead_accesses();
    {
        MSQueueOrc<std::shared_ptr<Item>> queue;
        constexpr int kThreads = 6;
        const int kOpsEach = stress_iters(5000);
        SpinBarrier barrier(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                barrier.arrive_and_wait();
                for (int i = 0; i < kOpsEach; ++i) {
                    queue.enqueue(std::make_shared<Item>(t * kOpsEach + i));
                    auto v = queue.dequeue();
                    if (v.has_value()) {
                        EXPECT_TRUE((*v)->check_alive());
                    }
                }
            });
        }
        for (auto& t : threads) t.join();
        while (queue.dequeue().has_value()) {
        }
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.dead_accesses(), dead_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

}  // namespace
}  // namespace orcgc
