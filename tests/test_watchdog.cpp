// Stalled-reader watchdog true positive (DESIGN.md §1.8).
//
// The scenario the watchdog exists for: a reader publishes protections
// mid-traversal and then stops making progress — descheduled, blocked on I/O,
// or wedged — while writers keep retiring the nodes it protects. Every such
// retire parks against the reader's handover slots, so the garbage attributed
// to the frozen slot GROWS. The watchdog must flag exactly that slot, report
// the pinned total, and clear the flag once the reader resumes and drains.
//
// Determinism: the test drives watchdog_sample() directly (the cascade-end
// subsampling is a production cadence, not a contract) and builds the
// suspect state one retire at a time. With kStallPinnedMin = 2 and the
// 2-sample streak requirement, the sample sequence is forced:
//
//   sample 1   pinned=0   latches the frozen heartbeat, not qualifying
//   retire n1, sample 2   pinned=1   below kStallPinnedMin, streak stays 0
//   retire n2, sample 3   pinned=2   qualifying, streak 1 — still silent
//   retire n3, sample 4   pinned=3   qualifying, streak 2 — FLAGGED
//
// The reader stalls between protection calls (an atomic spin — equivalent to
// a descheduled thread: what the sampler sees frozen is the published-hp
// fingerprint and the slot-transition heartbeat, and both only move when the
// reader touches its protection set, not because of how the thread is
// parked). Retires are walked synchronously on the main thread (flush()),
// so every park is visible before the next sample; no sleeps, no schedule
// dependence — the ASan/TSan legs run this unchanged.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/telemetry.hpp"
#include "common/thread_registry.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

struct Node : orc_base {
    std::uint64_t value = 0;
};

static_assert(telemetry::kTelemetryEnabled,
              "the watchdog suite does not support -DORCGC_TELEMETRY=OFF builds");

TEST(StalledReaderWatchdogTest, FlagsAStalledReaderPinningGrowingGarbage) {
    auto domain = std::make_unique<OrcDomain>();
    orc_ptr<Node*> n1 = make_orc_in<Node>(*domain);
    orc_ptr<Node*> n2 = make_orc_in<Node>(*domain);
    orc_ptr<Node*> n3 = make_orc_in<Node>(*domain);
    orc_base* r1 = n1.get();
    orc_base* r2 = n2.get();
    orc_base* r3 = n3.get();

    std::atomic<int> phase{0};
    std::atomic<int> reader_tid{-1};
    std::thread reader([&] {
        reader_tid.store(thread_id(), std::memory_order_release);
        const int i1 = domain->get_new_idx();
        const int i2 = domain->get_new_idx();
        const int i3 = domain->get_new_idx();
        domain->protect_ptr(r1, i1);
        domain->protect_ptr(r2, i2);
        domain->protect_ptr(r3, i3);
        phase.store(1, std::memory_order_release);
        // Stalled mid-traversal: no protection calls, heartbeat frozen.
        while (phase.load(std::memory_order_acquire) < 2) std::this_thread::yield();
        domain->release_idx(i3, nullptr);
        domain->release_idx(i2, nullptr);
        domain->release_idx(i1, nullptr);
    });
    while (phase.load(std::memory_order_acquire) < 1) std::this_thread::yield();
    const int tid = reader_tid.load(std::memory_order_acquire);
    ASSERT_GE(tid, 0);

    // Sample 1: latches the frozen heartbeat. Published but pinning nothing —
    // an idle reader is not a suspect.
    domain->watchdog_sample();
    EXPECT_FALSE(domain->stall_suspect(tid));
    EXPECT_EQ(domain->stall_suspects(), 0u);

    // Each drop retires a node the reader protects; the flush's buffer walk
    // parks it against the reader's slot synchronously, before the next
    // sample.
    n1 = nullptr;
    domain->flush();
    domain->watchdog_sample();  // pinned=1 < kStallPinnedMin: still silent
    EXPECT_FALSE(domain->stall_suspect(tid));

    n2 = nullptr;
    domain->flush();
    domain->watchdog_sample();  // pinned=2, first qualifying sample (streak 1)
    EXPECT_FALSE(domain->stall_suspect(tid)) << "one qualifying sample must not flag";

    n3 = nullptr;
    domain->flush();
    domain->watchdog_sample();  // pinned=3, streak 2: flagged
    EXPECT_TRUE(domain->stall_suspect(tid));
    EXPECT_EQ(domain->stall_suspects(), 1u);
    EXPECT_GE(domain->stall_pinned(), 3u) << "all three parked nodes attributed";

    // The gauges ride the domain's telemetry source.
    const std::string json = telemetry::export_json();
    EXPECT_NE(json.find("\"stall_suspects\": 1"), std::string::npos) << json;

    // Resume: the releases bump the heartbeat and drain the handovers, so
    // the next pass exonerates the slot.
    phase.store(2, std::memory_order_release);
    reader.join();
    domain->watchdog_sample();
    EXPECT_FALSE(domain->stall_suspect(tid));
    EXPECT_EQ(domain->stall_suspects(), 0u);
    EXPECT_EQ(domain->stall_pinned(), 0u);
}

TEST(StalledReaderWatchdogTest, ActiveReaderIsNeverFlagged) {
    auto domain = std::make_unique<OrcDomain>();
    orc_ptr<Node*> a = make_orc_in<Node>(*domain);
    orc_ptr<Node*> b = make_orc_in<Node>(*domain);
    orc_base* ra = a.get();
    orc_base* rb = b.get();

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        const int idx = domain->get_new_idx();
        // A live traversal publishes a CHANGING sequence of hazards — that
        // moving published-value fingerprint is how the sampler sees
        // progress without the publish fast paths carrying any watchdog
        // code. (The protect fast paths deliberately do not tick the
        // heartbeat; see watchdog_sample.)
        bool flip = false;
        while (!stop.load(std::memory_order_acquire)) {
            domain->protect_ptr(flip ? ra : rb, idx);
            flip = !flip;
        }
        domain->release_idx(idx, nullptr);
    });
    for (int i = 0; i < 16; ++i) {
        domain->watchdog_sample();
        EXPECT_EQ(domain->stall_suspects(), 0u);
        std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    reader.join();
}

}  // namespace
}  // namespace orcgc
