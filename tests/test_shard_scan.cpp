// Scan-side coverage for the retire loop (core/orc_domain.hpp): what a
// scan does with an object it cannot free, and the walk-park generation
// scan run by many threads at once.
//
// The contract under test:
//   * A scan that parks an object in a handover slot already holding an
//     earlier park takes the displaced occupant back into its OWN cascade
//     and re-scans it (Algorithm 6), so at most one object waits per hp
//     slot — the paper's O(H·t) bound on unreclaimed objects.
//   * A thread that exits with an index still published and an object
//     parked on it is unpublished and drained by the exit hook, before its
//     registry slot is recycled.
//   * Concurrent batched generations (scan_generation + settle_item) free
//     every object exactly once.
//
// Displacement is driven DETERMINISTICALLY through the raw protection API
// (get_new_idx / protect_ptr / release_idx — the same calls orc_ptr makes):
// republishing a new pointer on a held index without releasing it is
// exactly what get_protected's retry loop does, and leaves the previous
// park in the handover slot for the next park to displace. A retire outside
// a cascade is only buffered (DESIGN.md §1.3f), so each one is followed by
// flush(), which runs its walk at that point.
// Companions: test_retire_paths (watermarks, deep cascades) and
// bench_shard_scan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

struct Node : orc_base, TrackedObject {
    std::uint64_t value = 0;
};

struct WideNode : orc_base, TrackedObject {
    static constexpr int kChildren = 32;
    orc_atomic<WideNode*> child[kChildren];
};

/// Spin-waits (test-only) until `p` reaches `v`.
void await(const std::atomic<int>& p, int v) {
    while (p.load(std::memory_order_acquire) < v) std::this_thread::yield();
}

void advance(std::atomic<int>& p) { p.fetch_add(1, std::memory_order_acq_rel); }

// ------------------------------------------------------------- displacement

// Algorithm 6's retire loop: a scan that parks an object in a handover slot
// already holding an earlier park takes the displaced occupant back into its
// OWN loop and re-scans it. One reader holds one hp index and republishes on
// command; the main thread retires what it protects, so every park — and
// the displacement — is forced, not raced. Nothing else may hold garbage:
// handover_count() stays within the reader's single parked slot throughout.
TEST(RetireHandover, DisplacedOccupantIsRescannedByTheDisplacingThread) {
    auto dom = std::make_unique<OrcDomain>();
    orc_ptr<Node*> px = make_orc_in<Node>(*dom);
    orc_ptr<Node*> py = make_orc_in<Node>(*dom);
    orc_base* xr = px.get();
    orc_base* yr = py.get();

    std::atomic<int> phase{0};
    std::thread reader([&] {
        const int idx = dom->get_new_idx();
        dom->protect_ptr(xr, idx);
        advance(phase);  // 1: X protected
        await(phase, 2);
        dom->protect_ptr(yr, idx);  // republish, NO drain — X's park stays
        advance(phase);             // 3: Y protected on the same index
        await(phase, 4);
        dom->release_idx(idx, nullptr);  // drains Y's park
        advance(phase);                  // 5
    });

    await(phase, 1);
    px = nullptr;  // retire X: buffered, nothing walked yet
    EXPECT_EQ(dom->handover_count(), 0u);
    dom->flush();  // the walk finds the reader's hp and parks X
    EXPECT_EQ(dom->handover_count(), 1u);
    EXPECT_EQ(dom->object_count(), 2);
    advance(phase);  // 2
    await(phase, 3);
    py = nullptr;  // retire Y (buffered)
    dom->flush();  // parks Y and displaces X, which we re-scan
    EXPECT_EQ(dom->handover_count(), 1u) << "only Y may be parked";
    EXPECT_EQ(dom->object_count(), 1) << "X is unprotected: its re-scan frees it";
    advance(phase);  // 4
    await(phase, 5);
    reader.join();  // the reader's drained Y was settled by its exit

    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// Thread churn with one forced displacement per round: each worker exits
// with its index still published and an object parked on it. The exit hook
// must unpublish and drain before the registry slot is recycled, so at
// every round's join nothing stays parked or allocated.
TEST(RetireHandover, ThreadChurnWithDisplacementLeavesNothingParked) {
    auto dom = std::make_unique<OrcDomain>();
    constexpr int kChurn = 24;  // < kMaxHPs: each abandoned index is gone for good
    for (int i = 0; i < kChurn; ++i) {
        orc_ptr<Node*> px = make_orc_in<Node>(*dom);
        orc_ptr<Node*> py = make_orc_in<Node>(*dom);
        orc_base* xr = px.get();
        orc_base* yr = py.get();
        std::atomic<int> phase{0};
        std::thread worker([&] {
            const int idx = dom->get_new_idx();
            dom->protect_ptr(xr, idx);
            advance(phase);
            await(phase, 2);
            dom->protect_ptr(yr, idx);
            advance(phase);  // 3
            await(phase, 4);
            // Exit abandoning the index: hp published, handover parked (Y).
            // The exit hook must unpublish and drain both.
        });
        await(phase, 1);
        px = nullptr;
        dom->flush();  // park X at the worker
        advance(phase);
        await(phase, 3);
        py = nullptr;
        dom->flush();  // park Y, displace X back to us (freed by the re-scan)
        EXPECT_EQ(dom->handover_count(), 1u) << "churn round " << i;
        EXPECT_EQ(dom->object_count(), 1) << "churn round " << i;
        advance(phase);
        worker.join();  // exit hook: unpublish, drain the handover
        EXPECT_EQ(dom->handover_count(), 0u) << "churn round " << i;
        EXPECT_EQ(dom->object_count(), 0) << "churn round " << i;
    }
}

// ------------------------------------------------------ concurrent batches

// Several threads run wide cascades in one domain at once, so their batched
// generations walk and settle concurrently. Every object must be freed
// exactly once — object_count catches a lost object, the double-destroy
// counter and the build's sanitizer (ASan / TSan / OrcSan) a double free or
// a racing settle.
TEST(RetireCascade, ConcurrentWideCascadesFreeEveryNodeExactlyOnce) {
    auto& counters = AllocCounters::instance();
    const auto doubles_before = counters.double_destroys();
    auto dom = std::make_unique<OrcDomain>();
    constexpr int kThreads = 4;
    constexpr int kIters = 300;
    std::atomic<int> go{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            await(go, 1);
            for (int i = 0; i < kIters; ++i) {
                orc_ptr<WideNode*> root = make_orc_in<WideNode>(*dom);
                for (int j = 0; j < WideNode::kChildren; ++j) {
                    orc_ptr<WideNode*> c = make_orc_in<WideNode>(*dom);
                    root->child[j].store(c);
                }
                // Dropping root cascades kChildren+1 nodes, the children as
                // one batched generation.
            }
        });
    }
    advance(go);
    for (auto& t : ts) t.join();
    EXPECT_EQ(dom->object_count(), 0);
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

}  // namespace
}  // namespace orcgc
