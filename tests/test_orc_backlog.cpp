// Diagnostics for OrcGC's transient unreclaimed population on an
// oversubscribed machine: under churn, the excess-live population (nodes
// beyond the set's key capacity) must (a) decompose into explainable parts
// (parked handovers, marked-but-not-yet-unlinked nodes, speculative insert
// nodes, in-flight protected nodes) and (b) collapse to zero the moment the
// mutators stop — i.e. it is reclamation *lag*, not a leak or an unbounded
// backlog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "deferred_retire.hpp"

namespace orcgc {
namespace {

using test_support::live_count;
using test_support::settled_live_count;
using test_support::settles;
using Key = std::uint64_t;

TEST(OrcBacklog, ExcessCollapsesAtQuiescence) {
    auto& counters = AllocCounters::instance();
    constexpr Key kKeys = 128;
    constexpr int kThreads = 4;
    const auto live_before = settled_live_count();
    {
        MichaelListOrc<Key> list;
        Xoshiro256 prefill(1);
        for (Key k = 0; k < kKeys; ++k) {
            if (prefill.next_bounded(2) == 0) list.insert(k);
        }
        std::atomic<bool> stop{false};
        std::atomic<std::int64_t> peak_excess{0};
        SpinBarrier barrier(kThreads + 1);
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                Xoshiro256 rng(77 + t);
                barrier.arrive_and_wait();
                while (!stop.load(std::memory_order_acquire)) {
                    const Key k = rng.next_bounded(kKeys);
                    if (rng.next_bounded(2) == 0) {
                        list.insert(k);
                    } else {
                        list.remove(k);
                    }
                }
            });
        }
        barrier.arrive_and_wait();
        for (int i = 0; i < 200; ++i) {
            const std::int64_t excess =
                counters.live_count() - live_before - static_cast<std::int64_t>(kKeys);
            std::int64_t prev = peak_excess.load();
            while (prev < excess && !peak_excess.compare_exchange_weak(prev, excess)) {
            }
            std::this_thread::yield();
        }
        stop.store(true, std::memory_order_release);
        for (auto& w : workers) w.join();

        // Quiescent now. Whatever the churn piled up must already be gone,
        // minus objects parked in handover slots (drained lazily); run one
        // sweep of operations to drain any such slots on this thread, then
        // the live population must be exactly the set content.
        std::int64_t in_set = 0;
        for (Key k = 0; k < kKeys; ++k) in_set += list.contains(k) ? 1 : 0;
        const auto live_now = counters.live_count() - live_before;
        const auto parked = static_cast<std::int64_t>(OrcDomain::global().handover_count());
        // live = set content + nodes parked at (now idle) worker slots.
        EXPECT_LE(live_now, in_set + parked + 1)
            << "peak excess during churn was " << peak_excess.load();
        // And the peak itself must be bounded: parked slots are capped by
        // t*maxHPs, deferral buffers by t*R (DESIGN.md §1.3f), everything
        // else is O(t). Allow a generous linear margin.
        EXPECT_LT(peak_excess.load(),
                  static_cast<std::int64_t>(thread_id_watermark()) *
                      (OrcDomain::kMaxHPs + OrcDomain::kRetireBuffer));
    }
    EXPECT_EQ(counters.live_count(), live_before);  // full drain on destruction
}

TEST(OrcBacklog, HandoverPopulationIsDrainedByOwnerActivity) {
    // A node parked at a busy thread's handover slot must be handed back to
    // that thread's retire path as soon as it cycles its orc_ptrs — and be
    // freed by that thread's next flush, not wait for thread exit.
    auto& counters = AllocCounters::instance();
    const auto live_before = settled_live_count();
    orc_atomic<MichaelListOrc<Key>::Node*> root;
    {
        {
            // Only the owner may protect the node: a protection of ours
            // would catch the park instead.
            orc_ptr<MichaelListOrc<Key>::Node*> node =
                make_orc<MichaelListOrc<Key>::Node>(Key{1});
            root.store(node);
        }
        SpinBarrier ready(2), parked(2), cycled(2);
        std::thread owner([&] {
            orc_ptr<MichaelListOrc<Key>::Node*> mine = root.load();
            ready.arrive_and_wait();
            parked.arrive_and_wait();  // main's walk parked the node on us
            mine = nullptr;            // cycling the orc_ptr drains our slot
            EXPECT_EQ(OrcDomain::global().handover_count(), 0u);
            EXPECT_TRUE(settles(OrcDomain::global(), live_count, live_before));
            cycled.arrive_and_wait();
        });
        ready.arrive_and_wait();
        root.store(nullptr);          // retire (buffered)
        OrcDomain::global().flush();  // owner protects -> the walk parks it
        EXPECT_EQ(OrcDomain::global().handover_count(), 1u);
        parked.arrive_and_wait();
        cycled.arrive_and_wait();
        owner.join();
    }
    EXPECT_EQ(counters.live_count(), live_before);
}

}  // namespace
}  // namespace orcgc
