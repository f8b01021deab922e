// Typed tests for the two OrcGC skip lists: the ported Herlihy–Shavit skip
// list and the paper's CRF-skip. Covers set semantics, concurrent
// linearizability witnesses, reclamation soundness, and the CRF-specific
// isolation property (poisoned nodes hold no hard links).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "ds/orc/crf_skiplist_orc.hpp"
#include "ds/orc/hs_skiplist_orc.hpp"
#include "common/workload.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;
using Key = std::uint64_t;

template <typename SkipListT>
class SkipListTest : public ::testing::Test {};

using SkipListTypes = ::testing::Types<HSSkipListOrc<Key>, CRFSkipListOrc<Key>>;
TYPED_TEST_SUITE(SkipListTest, SkipListTypes);

TYPED_TEST(SkipListTest, EmptyList) {
    TypeParam sl;
    EXPECT_FALSE(sl.contains(0));
    EXPECT_FALSE(sl.contains(123));
    EXPECT_FALSE(sl.remove(123));
}

TYPED_TEST(SkipListTest, InsertContainsRemove) {
    TypeParam sl;
    EXPECT_TRUE(sl.insert(42));
    EXPECT_TRUE(sl.contains(42));
    EXPECT_FALSE(sl.insert(42));
    EXPECT_TRUE(sl.remove(42));
    EXPECT_FALSE(sl.contains(42));
    EXPECT_FALSE(sl.remove(42));
}

TYPED_TEST(SkipListTest, KeyZeroAndLargeKeys) {
    TypeParam sl;
    EXPECT_TRUE(sl.insert(0));
    EXPECT_TRUE(sl.insert(~Key{0}));
    EXPECT_TRUE(sl.contains(0));
    EXPECT_TRUE(sl.contains(~Key{0}));
    EXPECT_TRUE(sl.remove(0));
    EXPECT_FALSE(sl.contains(0));
    EXPECT_TRUE(sl.contains(~Key{0}));
}

TYPED_TEST(SkipListTest, RandomizedAgainstReferenceSet) {
    TypeParam sl;
    std::vector<bool> reference(256, false);
    Xoshiro256 rng(7771);
    for (int i = 0; i < 20000; ++i) {
        const Key k = rng.next_bounded(256);
        switch (rng.next_bounded(3)) {
            case 0:
                EXPECT_EQ(sl.insert(k), !reference[k]) << "key " << k;
                reference[k] = true;
                break;
            case 1:
                EXPECT_EQ(sl.remove(k), reference[k]) << "key " << k;
                reference[k] = false;
                break;
            default:
                EXPECT_EQ(sl.contains(k), static_cast<bool>(reference[k])) << "key " << k;
        }
    }
}

TYPED_TEST(SkipListTest, ManySequentialKeys) {
    TypeParam sl;
    for (Key k = 0; k < 1000; ++k) EXPECT_TRUE(sl.insert(k));
    for (Key k = 0; k < 1000; ++k) EXPECT_TRUE(sl.contains(k));
    for (Key k = 0; k < 1000; k += 2) EXPECT_TRUE(sl.remove(k));
    for (Key k = 0; k < 1000; ++k) EXPECT_EQ(sl.contains(k), k % 2 == 1);
}

TYPED_TEST(SkipListTest, NoLeaksAfterChurnAndDestruction) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        TypeParam sl;
        Xoshiro256 rng(31337);
        for (int i = 0; i < 8000; ++i) {
            const Key k = rng.next_bounded(128);
            if (rng.next_bounded(2) == 0) {
                sl.insert(k);
            } else {
                sl.remove(k);
            }
        }
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

TYPED_TEST(SkipListTest, ConcurrentDisjointKeyRanges) {
    constexpr int kThreads = 4;
    constexpr Key kPerThread = 250;
    TypeParam sl;
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            barrier.arrive_and_wait();
            for (Key i = 0; i < kPerThread; ++i) {
                const Key k = i * kThreads + t;
                ASSERT_TRUE(sl.insert(k));
                ASSERT_TRUE(sl.contains(k));
            }
            for (Key i = 0; i < kPerThread; i += 2) {
                ASSERT_TRUE(sl.remove(i * kThreads + t));
            }
        });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
        for (Key i = 0; i < kPerThread; ++i) {
            EXPECT_EQ(sl.contains(i * kThreads + t), i % 2 == 1);
        }
    }
}

TYPED_TEST(SkipListTest, ConcurrentContestedKeysLinearizable) {
    constexpr int kThreads = 6;
    constexpr Key kKeyRange = 10;
    const int kOpsEach = stress_iters(3000);
    TypeParam sl;
    std::atomic<std::int64_t> ins[kKeyRange] = {};
    std::atomic<std::int64_t> rem[kKeyRange] = {};
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Xoshiro256 rng(808 + t);
            barrier.arrive_and_wait();
            for (int i = 0; i < kOpsEach; ++i) {
                const Key k = rng.next_bounded(kKeyRange);
                if (rng.next_bounded(2) == 0) {
                    if (sl.insert(k)) ins[k].fetch_add(1, std::memory_order_relaxed);
                } else {
                    if (sl.remove(k)) rem[k].fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    for (Key k = 0; k < kKeyRange; ++k) {
        const auto balance = ins[k].load() - rem[k].load();
        ASSERT_GE(balance, 0) << "key " << k;
        ASSERT_LE(balance, 1) << "key " << k;
        EXPECT_EQ(sl.contains(k), balance == 1) << "key " << k;
    }
}

TYPED_TEST(SkipListTest, ReinsertionChurnSingleKey) {
    // Obstacle 3 stressor: threads insert/remove the same key continuously,
    // exercising the half-inserted-node removal + re-link path.
    constexpr int kThreads = 4;
    const int kOpsEach = stress_iters(5000);
    TypeParam sl;
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            barrier.arrive_and_wait();
            for (int i = 0; i < kOpsEach; ++i) {
                if ((i + t) % 2 == 0) {
                    sl.insert(5);
                } else {
                    sl.remove(5);
                }
                sl.contains(5);
            }
        });
    }
    for (auto& th : threads) th.join();
    // The list must still be a coherent set for this key.
    if (sl.contains(5)) {
        EXPECT_TRUE(sl.remove(5));
    }
    EXPECT_FALSE(sl.contains(5));
    EXPECT_TRUE(sl.insert(5));
    EXPECT_TRUE(sl.contains(5));
}

TYPED_TEST(SkipListTest, NoLeaksUnderConcurrentChurn) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        TypeParam sl;
        constexpr int kThreads = 4;
        SpinBarrier barrier(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                Xoshiro256 rng(4242 * (t + 1));
                barrier.arrive_and_wait();
                const int ops_each = stress_iters(2500);
                for (int i = 0; i < ops_each; ++i) {
                    const Key k = rng.next_bounded(40);
                    if (rng.next_bounded(2) == 0) {
                        sl.insert(k);
                    } else {
                        sl.remove(k);
                    }
                }
            });
        }
        for (auto& th : threads) th.join();
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), 0);
}

// ---- CRF-specific: isolation of removed nodes -------------------------

TEST(CRFSkipList, PoisonValueIsInert) {
    using SL = CRFSkipListOrc<Key>;
    EXPECT_TRUE(SL::is_poison(SL::poison()));
    EXPECT_EQ(get_unmarked(SL::poison()), nullptr);  // orc machinery sees null
    EXPECT_FALSE(is_marked(SL::poison()));           // and it is not a delete mark
}

TEST(CRFSkipList, SequentialRemovalReclaimsImmediately) {
    // With CRF, once remove() returns (single-threaded), the victim has been
    // detached and poisoned, so nothing but this thread's deferral buffers
    // may hold it: live count after insert+remove of N keys settles to the
    // empty-structure baseline.
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    {
        CRFSkipListOrc<Key> sl;
        const auto live_empty = counters.live_count();
        for (Key k = 0; k < 200; ++k) ASSERT_TRUE(sl.insert(k));
        for (Key k = 0; k < 200; ++k) ASSERT_TRUE(sl.remove(k));
        EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_empty));  // zero stragglers
    }
    EXPECT_EQ(counters.live_count(), live_before);
}

}  // namespace
}  // namespace orcgc
