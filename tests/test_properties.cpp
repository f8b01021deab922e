// Parameterized property sweeps (TEST_P): set linearizability witnesses and
// leak-freedom across thread-count × op-mix grids (for the OrcGC list and
// for the Hyaline/DEBRA manual schemes), the PTP linear-bound property
// across thread counts, queue transfer invariants across thread counts, and
// engine edge-case behaviors (index churn, thread-exit drain).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "common/workload.hpp"
#include "ds/michael_list.hpp"
#include "ds/orc/lcrq_orc.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "ds/orc/ms_queue_orc.hpp"
#include "reclamation/debra.hpp"
#include "reclamation/hyaline.hpp"
#include "reclamation/pass_the_pointer.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;

using Key = std::uint64_t;

// ------------------------------------------------ set churn property sweep

class SetChurnProperty
    : public ::testing::TestWithParam<std::tuple<int /*threads*/, int /*mix index*/>> {};

TEST_P(SetChurnProperty, OrcListKeepsSetSemanticsAndLeaksNothing) {
    const int threads = std::get<0>(GetParam());
    const OpMix& mix = kAllMixes[std::get<1>(GetParam())];
    constexpr Key kKeyRange = 24;
    const int kOpsEach = stress_iters(2500);

    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        MichaelListOrc<Key> list;
        std::atomic<std::int64_t> ins[kKeyRange] = {};
        std::atomic<std::int64_t> rem[kKeyRange] = {};
        SpinBarrier barrier(threads);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                Xoshiro256 rng(9000 + 13 * t);
                barrier.arrive_and_wait();
                for (int i = 0; i < kOpsEach; ++i) {
                    const Key k = next_key(rng, kKeyRange);
                    switch (next_op(rng, mix)) {
                        case SetOp::kInsert:
                            if (list.insert(k)) ins[k].fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SetOp::kRemove:
                            if (list.remove(k)) rem[k].fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SetOp::kContains:
                            list.contains(k);
                            break;
                    }
                }
            });
        }
        for (auto& w : workers) w.join();
        for (Key k = 0; k < kKeyRange; ++k) {
            const auto balance = ins[k].load() - rem[k].load();
            ASSERT_GE(balance, 0) << "key " << k;
            ASSERT_LE(balance, 1) << "key " << k;
            EXPECT_EQ(list.contains(k), balance == 1) << "key " << k;
        }
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
    EXPECT_EQ(counters.dead_accesses(), 0);
}

INSTANTIATE_TEST_SUITE_P(ThreadsByMix, SetChurnProperty,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 1, 2)),
                         [](const auto& param_info) {
                             return "t" + std::to_string(std::get<0>(param_info.param)) +
                                    "_mix" + std::to_string(std::get<1>(param_info.param));
                         });

// ----------------------------------------- manual-scheme churn (same grid)

// The same churn property over the two newest manual schemes, so Hyaline's
// batch refcounting and DEBRA's bag rotation face the same thread × mix grid
// — and the same leak/double-free/dead-access accounting — as the OrcGC list.
template <typename List>
void run_manual_churn(int threads, const OpMix& mix) {
    constexpr Key kKeyRange = 24;
    const int kOpsEach = stress_iters(1500);

    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    {
        List list;
        std::atomic<std::int64_t> ins[kKeyRange] = {};
        std::atomic<std::int64_t> rem[kKeyRange] = {};
        SpinBarrier barrier(threads);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                Xoshiro256 rng(7000 + 17 * t);
                barrier.arrive_and_wait();
                for (int i = 0; i < kOpsEach; ++i) {
                    const Key k = next_key(rng, kKeyRange);
                    switch (next_op(rng, mix)) {
                        case SetOp::kInsert:
                            if (list.insert(k)) ins[k].fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SetOp::kRemove:
                            if (list.remove(k)) rem[k].fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SetOp::kContains:
                            list.contains(k);
                            break;
                    }
                }
            });
        }
        for (auto& w : workers) w.join();
        for (Key k = 0; k < kKeyRange; ++k) {
            const auto balance = ins[k].load() - rem[k].load();
            ASSERT_GE(balance, 0) << "key " << k;
            ASSERT_LE(balance, 1) << "key " << k;
            EXPECT_EQ(list.contains(k), balance == 1) << "key " << k;
        }
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
    EXPECT_EQ(counters.dead_accesses(), 0);
}

class ManualSchemeChurnProperty
    : public ::testing::TestWithParam<std::tuple<int /*threads*/, int /*mix index*/>> {};

TEST_P(ManualSchemeChurnProperty, HyalineListKeepsSetSemanticsAndLeaksNothing) {
    run_manual_churn<MichaelList<Key, Hyaline>>(std::get<0>(GetParam()),
                                               kAllMixes[std::get<1>(GetParam())]);
}

TEST_P(ManualSchemeChurnProperty, DebraListKeepsSetSemanticsAndLeaksNothing) {
    run_manual_churn<MichaelList<Key, Debra>>(std::get<0>(GetParam()),
                                             kAllMixes[std::get<1>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(ThreadsByMix, ManualSchemeChurnProperty,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 1, 2)),
                         [](const auto& param_info) {
                             return "t" + std::to_string(std::get<0>(param_info.param)) +
                                    "_mix" + std::to_string(std::get<1>(param_info.param));
                         });

// ---------------------------------------------------- PTP bound vs threads

class PtpBoundProperty : public ::testing::TestWithParam<int /*threads*/> {};

TEST_P(PtpBoundProperty, PeakUnreclaimedIsLinearInThreads) {
    const int threads = GetParam();
    constexpr int kHPs = 2;
    struct Node : ReclaimableBase, TrackedObject {};
    PassThePointer<Node, kHPs> gc;
    std::vector<std::atomic<Node*>> links(threads);
    for (auto& l : links) l.store(new Node());
    std::atomic<std::size_t> peak{0};
    std::atomic<bool> stop{false};
    SpinBarrier barrier(threads + 1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Xoshiro256 rng(t);
            barrier.arrive_and_wait();
            const int ops_each = stress_iters(2000);
            for (int i = 0; i < ops_each; ++i) {
                auto& link = links[rng.next_bounded(threads)];
                Node* old = gc.get_protected(link, i % kHPs);
                Node* fresh = new Node();
                Node* expected = old;
                if (old != nullptr && link.compare_exchange_strong(expected, fresh)) {
                    gc.retire(old);
                } else {
                    delete fresh;
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
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_release);
    monitor.join();
    for (auto& l : links) {
        if (Node* n = l.exchange(nullptr)) gc.retire(n);
    }
    EXPECT_LE(peak.load(), static_cast<std::size_t>(thread_id_watermark()) * (kHPs + 1));
}

INSTANTIATE_TEST_SUITE_P(Threads, PtpBoundProperty, ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) { return "t" + std::to_string(param_info.param); });

// -------------------------------------------------- queue transfer sweep

template <typename Queue>
void run_transfer(int pairs, std::uint64_t per_producer) {
    Queue queue;
    std::vector<std::atomic<std::uint8_t>> seen(pairs * per_producer);
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<int> producers_left{pairs};
    SpinBarrier barrier(2 * pairs);
    std::vector<std::thread> threads;
    for (int p = 0; p < pairs; ++p) {
        threads.emplace_back([&, p] {
            barrier.arrive_and_wait();
            for (std::uint64_t i = 0; i < per_producer; ++i) queue.enqueue(p * per_producer + i);
            producers_left.fetch_sub(1);
        });
        threads.emplace_back([&] {
            barrier.arrive_and_wait();
            while (true) {
                auto v = queue.dequeue();
                if (!v.has_value()) {
                    if (producers_left.load() != 0) continue;
                    v = queue.dequeue();
                    if (!v.has_value()) break;
                }
                ASSERT_EQ(seen[*v].fetch_add(1), 0);
                consumed.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(consumed.load(), pairs * per_producer);
}

class QueueTransferProperty : public ::testing::TestWithParam<int /*producer/consumer pairs*/> {
};

TEST_P(QueueTransferProperty, MSQueueOrc) { run_transfer<MSQueueOrc<Key>>(GetParam(), 4000); }
TEST_P(QueueTransferProperty, LCRQOrcSmallRing) {
    run_transfer<LCRQOrc<Key, 5>>(GetParam(), 4000);  // 32-slot rings: heavy segment churn
}

INSTANTIATE_TEST_SUITE_P(Pairs, QueueTransferProperty, ::testing::Values(1, 2, 4),
                         [](const auto& param_info) { return "p" + std::to_string(param_info.param); });

// ------------------------------------------------------ engine edge cases

struct EngNode : orc_base, TrackedObject {
    orc_atomic<EngNode*> next{nullptr};
};

TEST(OrcEngineEdge, DeepOrcPtrNestingStaysWithinIndexBudget) {
    // kMaxHPs-2 live orc_ptrs on one thread must be fine (1 scratch slot,
    // and each live orc_ptr owns one index).
    orc_ptr<EngNode*> holders[OrcDomain::kMaxHPs - 2];
    for (auto& h : holders) h = make_orc<EngNode>();
    for (auto& h : holders) EXPECT_TRUE(static_cast<bool>(h));
    // Copies share indices, so they are free.
    orc_ptr<EngNode*> copies[OrcDomain::kMaxHPs - 2];
    for (std::size_t i = 0; i < std::size(holders); ++i) copies[i] = holders[i];
    for (std::size_t i = 0; i < std::size(holders); ++i) {
        EXPECT_EQ(copies[i].index(), holders[i].index());
    }
}

TEST(OrcEngineEdge, ObjectParkedAtExitingThreadIsReclaimed) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        orc_atomic<EngNode*> root;
        {
            orc_ptr<EngNode*> node = make_orc<EngNode>();
            root.store(node);
        }
        SpinBarrier holding(2), released(2);
        std::thread holder([&] {
            orc_ptr<EngNode*> mine = root.load();  // protect on the worker
            holding.arrive_and_wait();
            released.arrive_and_wait();  // main retires while we protect
            // mine drops here; then the thread exits and its slots drain
        });
        holding.arrive_and_wait();
        root.store(nullptr);          // retire (buffered)
        OrcDomain::global().flush();  // the walk parks it at the holder
        EXPECT_EQ(OrcDomain::global().handover_count(), 1u);
        released.arrive_and_wait();
        holder.join();
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

TEST(OrcEngineEdge, ExceptionSafetyNoLeakOnThrowingUse) {
    const auto live_before = settled_live_count();
    try {
        orc_ptr<EngNode*> node = make_orc<EngNode>();
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    // RAII released + retired (buffered until the flush)
    EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_before));
}

TEST(OrcEngineEdge, SelfReferencingNodeIsNotLeakedWhenBroken) {
    // Cycles must be broken before becoming unreachable (§4 requirement);
    // breaking the self-link makes the node collectable.
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        orc_ptr<EngNode*> node = make_orc<EngNode>();
        node->next.store(node);              // self-cycle: _orc = 1
        EXPECT_EQ(counters.live_count(), live_before + 1);
        node->next.store(nullptr);           // break the cycle
    }
    EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_before));
}

TEST(OrcEngineEdge, LongChainTeardownDoesNotOverflowStack) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    constexpr int kChain = 200000;  // would blow the stack if retire recursed
    {
        orc_atomic<EngNode*> root;
        {
            orc_ptr<EngNode*> head = make_orc<EngNode>();
            orc_ptr<EngNode*> cur = head;
            for (int i = 1; i < kChain; ++i) {
                orc_ptr<EngNode*> next = make_orc<EngNode>();
                cur->next.store(next);
                cur = next;
            }
            root.store(head);
        }
    }  // root's destructor drops the head and flushes: the chain is gone
    EXPECT_EQ(counters.live_count(), live_before);
}

}  // namespace
}  // namespace orcgc
