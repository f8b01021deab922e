// Differential and edge-case tests:
//   * equivalence — every set implementation must produce identical results
//     for the same randomized operation tape (catching semantic drift
//     between the manual and OrcGC variants of the same algorithm);
//   * LCRQ ring edges — full-ring closure, tiny rings, value-range limits;
//   * orc_atomic::exchange – displaced-value protection semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/rng.hpp"
#include "ds/michael_list.hpp"
#include "ds/nm_tree.hpp"
#include "ds/orc/crf_skiplist_orc.hpp"
#include "ds/orc/harris_list_orc.hpp"
#include "ds/orc/hash_map_orc.hpp"
#include "ds/orc/hs_list_orc.hpp"
#include "ds/orc/hs_skiplist_orc.hpp"
#include "ds/orc/lcrq_orc.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "ds/orc/nm_tree_orc.hpp"
#include "reclamation/reclamation.hpp"
#include "common/workload.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;
using Key = std::uint64_t;

// ------------------------------------------------------- differential sets

struct TapeEntry {
    int op;  // 0 insert, 1 remove, 2 contains
    Key key;
};

std::vector<TapeEntry> make_tape(std::uint64_t seed, int length, Key key_range) {
    std::vector<TapeEntry> tape;
    tape.reserve(length);
    Xoshiro256 rng(seed);
    for (int i = 0; i < length; ++i) {
        tape.push_back({static_cast<int>(rng.next_bounded(3)), rng.next_bounded(key_range)});
    }
    return tape;
}

template <typename Set>
std::vector<bool> run_tape(const std::vector<TapeEntry>& tape) {
    Set set;
    std::vector<bool> results;
    results.reserve(tape.size());
    for (const auto& entry : tape) {
        switch (entry.op) {
            case 0: results.push_back(set.insert(entry.key)); break;
            case 1: results.push_back(set.remove(entry.key)); break;
            default: results.push_back(set.contains(entry.key)); break;
        }
    }
    return results;
}

TEST(Differential, AllSetImplementationsAgreeOnRandomTapes) {
    for (std::uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
        const auto tape = make_tape(seed, stress_iters(6000), 96);
        const auto reference = run_tape<MichaelList<Key, HazardPointers>>(tape);
        EXPECT_EQ((run_tape<MichaelList<Key, PassThePointer>>(tape)), reference) << seed;
        EXPECT_EQ((run_tape<MichaelList<Key, Hyaline>>(tape)), reference) << seed;
        EXPECT_EQ((run_tape<MichaelList<Key, Debra>>(tape)), reference) << seed;
        EXPECT_EQ(run_tape<MichaelListOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ(run_tape<HarrisListOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ(run_tape<HSListOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ((run_tape<NMTree<Key, EpochBasedReclaimer>>(tape)), reference) << seed;
        EXPECT_EQ(run_tape<NMTreeOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ(run_tape<HSSkipListOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ(run_tape<CRFSkipListOrc<Key>>(tape), reference) << seed;
        EXPECT_EQ(run_tape<HashMapOrc<Key>>(tape), reference) << seed;
    }
}

// --------------------------------------------------------- LCRQ ring edges

TEST(LCRQEdge, FullRingClosesAndChainsSegments) {
    // Ring of 8 cells: the 9th enqueue without dequeues must close the ring
    // and chain a fresh one — FIFO must survive the seam.
    LCRQOrc<Key, 3> queue;
    for (Key i = 0; i < 100; ++i) queue.enqueue(i);
    for (Key i = 0; i < 100; ++i) {
        auto v = queue.dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(queue.dequeue().has_value());
}

TEST(LCRQEdge, AlternatingNeverChainsUnnecessarily) {
    auto& counters = AllocCounters::instance();
    LCRQOrc<Key, 3> queue;
    const auto live_start = counters.live_count();
    for (Key i = 0; i < 10000; ++i) {
        queue.enqueue(i);
        EXPECT_EQ(queue.dequeue().value(), i);
    }
    // Steady alternation fits in one ring: no segment churn, no node growth.
    EXPECT_LE(counters.live_count(), live_start + 1);
}

TEST(LCRQEdge, ZeroAndMaxEncodableValues) {
    LCRQOrc<Key> queue;
    queue.enqueue(0);
    queue.enqueue(~Key{0} - 1);  // encoding adds 1; max-1 is the largest safe value
    EXPECT_EQ(queue.dequeue().value(), 0u);
    EXPECT_EQ(queue.dequeue().value(), ~Key{0} - 1);
}

TEST(LCRQEdge, EmptyAfterDrainAcrossSegments) {
    LCRQOrc<Key, 3> queue;
    for (int round = 0; round < 5; ++round) {
        EXPECT_TRUE(queue.empty());
        for (Key i = 0; i < 50; ++i) queue.enqueue(i);
        EXPECT_FALSE(queue.empty());
        for (Key i = 0; i < 50; ++i) EXPECT_TRUE(queue.dequeue().has_value());
        EXPECT_FALSE(queue.dequeue().has_value());
    }
}

// ------------------------------------------------- orc_atomic::exchange

struct XNode : orc_base, TrackedObject {
    int v;
    explicit XNode(int x) : v(x) {}
};

TEST(OrcExchange, DisplacedValueStaysProtected) {
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    orc_atomic<XNode*> link;
    {
        orc_ptr<XNode*> a = make_orc<XNode>(1);
        link.store(a);
    }
    {
        orc_ptr<XNode*> b = make_orc<XNode>(2);
        orc_ptr<XNode*> old = link.exchange(b.get());
        ASSERT_TRUE(static_cast<bool>(old));
        EXPECT_EQ(old->v, 1);
        EXPECT_TRUE(old->check_alive());
        // old has no hard links left; it must survive exactly as long as the
        // returned orc_ptr does.
        EXPECT_EQ(counters.live_count(), live_before + 2);
    }
    // only b remains (linked) once the buffered `old` is settled
    EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_before + 1));
    link.store(nullptr);
    EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_before));
}

TEST(OrcExchange, ExchangeWithNullReturnsEmpty) {
    orc_atomic<XNode*> link;
    orc_ptr<XNode*> old = link.exchange(nullptr);
    EXPECT_FALSE(static_cast<bool>(old));
}

}  // namespace
}  // namespace orcgc
