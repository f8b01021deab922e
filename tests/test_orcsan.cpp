// OrcSan sanitizer tests (src/common/orcsan.hpp, DESIGN.md §1.9).
//
// True-positive coverage: death tests drive the deliberately-buggy list in
// orcsan_buggy_list.hpp (and two engine-level misuses) into each of the four
// violation classes and assert the report NAMES the violated invariant —
// the message, not just the abort, is the contract. False-positive coverage
// is the rest of the suite running green under -DORCGC_ORCSAN=ON (the
// build this file is gated on; see tests/CMakeLists.txt).
//
// The shadow tests pin the state machine itself: Live → Retired (parked) →
// Quarantined (diverted) → gone (evicted), and conservation — every object
// a domain allocates is Freed by the time the domain is destroyed.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <new>
#include <string>

#include "common/alloc_tracker.hpp"
#include "common/orcsan.hpp"
#include "common/telemetry.hpp"
#include "core/orc.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "orcsan_buggy_list.hpp"

namespace orcgc {
namespace {

using orcsan_fixture::BuggyMichaelList;

struct Node : orc_base, TrackedObject {
    std::uint64_t value = 0;
    orc_atomic<Node*> next{nullptr};
    Node() = default;
    explicit Node(std::uint64_t v) : value(v) {}
};

/// Raw storage an orc_ptr is placement-new'd into and never destroyed —
/// models a protection abandoned by a crashed/exited scope (same idiom as
/// test_domains.cpp).
struct AbandonedSlot {
    alignas(orc_ptr<Node*>) unsigned char raw[sizeof(orc_ptr<Node*>)];
};

/// Allocates a node in `dom`, links it from `root`, abandons the protecting
/// orc_ptr, then unlinks — the retire scan finds the abandoned hp and PARKS
/// the node: it stays Retired, not reclaimed.
Node* park_one(OrcDomain& dom, orc_atomic<Node*>& root, AbandonedSlot& storage) {
    orc_ptr<Node*> p = make_orc_in<Node>(dom, 42);
    Node* raw = p.get();
    root.store(p);
    ::new (storage.raw) orc_ptr<Node*>(std::move(p));
    root.store(nullptr);  // retired into the deferral buffer
    dom.flush();          // the walk finds the abandoned hp and parks it
    return raw;
}

/// Restores the default abort-on-violation mode even when a test fails.
struct ScopedNoAbort {
    ScopedNoAbort() { orcsan::testing::set_abort(false); }
    ~ScopedNoAbort() { orcsan::testing::set_abort(true); }
};

// ---- death tests: the four violation classes, named in the report ---------

TEST(OrcSanDeath, DoubleRetireIsCaughtAndNamed) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            OrcDomain dom;
            BuggyMichaelList list(dom);
            list.push_front(1);
            // Unlink retires automatically; the fixture's manual retire on
            // top of it is the second token.
            list.pop_front_with_manual_retire();
        },
        "orcsan: double_retire: object");
}

TEST(OrcSanDeath, DerefWithProtectRemovedIsCaughtAndNamed) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            OrcDomain dom;
            BuggyMichaelList list(dom);
            list.push_front(7);
            BuggyMichaelList::Node* snapshot = list.begin_unprotected();
            list.pop_front();  // node reclaimed (quarantined) under the reader
            list.read_unprotected(snapshot);
        },
        "orcsan: unprotected_deref: object");
}

TEST(OrcSanDeath, DerefAfterEarlyClearIsCaughtAndNamed) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            OrcDomain dom;
            BuggyMichaelList list(dom);
            list.push_front(3);
            // Protection taken, then the published slot is cleared while the
            // orc_ptr is still in use; the pop then reclaims the node.
            orc_ptr<BuggyMichaelList::Node*> p = list.front_with_early_clear();
            list.pop_front();
            (void)p->key;
        },
        "orcsan: unprotected_deref: object");
}

TEST(OrcSanDeath, CrossDomainRetireIsCaughtAndNamed) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            OrcDomain a;
            OrcDomain b;
            orc_atomic<Node*> root;
            {
                orc_ptr<Node*> p = make_orc_in<Node>(a, 1);
                root.store(p);
            }
            // Bypassed domain_of routing: the last-link decrement runs in b,
            // so the retire scan would walk b's hp slots — where a's
            // protections can never be found.
            b.decrement_orc(OrcDomain::to_base(root.load_unsafe()));
        },
        "orcsan: cross_domain_retire: object");
}

TEST(OrcSanDeath, QuarantineWriteIsCaughtAtEviction) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            auto dom = std::make_unique<OrcDomain>();
            std::uint64_t* stale = nullptr;
            {
                orc_ptr<Node*> p = make_orc_in<Node>(*dom, 5);
                stale = &p->value;
            }  // last protection dropped, zero links: retired (buffered)
            dom->flush();  // the buffer walk destroys + quarantines it
            // Use-after-free WRITE through a raw pointer — uninstrumented,
            // invisible to the deref checks. The 0xDD poison it tears is
            // verified when the domain's quarantine flushes.
            *stale = 0xBEEF;
            dom.reset();
        },
        "orcsan: poison_torn: object");
}

// ---- shadow state machine --------------------------------------------------

TEST(OrcSanShadow, StateFollowsTheObjectLifecycle) {
    auto dom = std::make_unique<OrcDomain>();
    orc_base* base = nullptr;
    {
        orc_ptr<Node*> p = make_orc_in<Node>(*dom, 9);
        base = OrcDomain::to_base(p.get());
        EXPECT_EQ(orcsan::state_of(base), orcsan::State::kLive);
    }
    // Retired: the token is taken and the object waits in the deferral
    // buffer until a walk.
    EXPECT_EQ(orcsan::state_of(base), orcsan::State::kRetired);
    dom->flush();
    // Reclaimed: under OrcSan the free path diverts into the quarantine, so
    // the shadow entry survives (and the memory stays poisoned, not reused).
    EXPECT_EQ(orcsan::state_of(base), orcsan::State::kQuarantined);
    dom.reset();  // quarantine flush: verified, freed, entry erased
    EXPECT_EQ(orcsan::state_of(base), orcsan::State::kUnknown);
}

TEST(OrcSanShadow, ParkedObjectReadsRetired) {
    auto dom = std::make_unique<OrcDomain>();
    orc_atomic<Node*> root;
    AbandonedSlot abandoned;
    Node* raw = park_one(*dom, root, abandoned);
    ASSERT_EQ(dom->object_count(), 1) << "node should be parked, not freed";
    EXPECT_EQ(orcsan::state_of(OrcDomain::to_base(raw)), orcsan::State::kRetired);
    dom.reset();  // destruction drains the handover and reclaims the node
    EXPECT_EQ(orcsan::state_of(OrcDomain::to_base(raw)), orcsan::State::kUnknown);
}

TEST(OrcSanShadow, ListChurnConservesShadowEntries) {
    const orcsan::Stats before = orcsan::stats();
    const std::size_t entries_before = orcsan::live_entries();
    {
        OrcDomain dom;
        MichaelListOrc<int> list(&dom);
        for (int i = 0; i < 200; ++i) ASSERT_TRUE(list.insert(i));
        for (int i = 0; i < 200; i += 2) ASSERT_TRUE(list.remove(i));
    }  // list cascade + domain destruction (quarantine flush)
    const orcsan::Stats after = orcsan::stats();
    EXPECT_EQ(after.allocated - before.allocated, 200u);
    // Conservation: every object the domain allocated ended Freed.
    EXPECT_EQ(after.freed - before.freed, after.allocated - before.allocated);
    EXPECT_EQ(orcsan::live_entries(), entries_before);
    EXPECT_EQ(after.quarantine_occupancy, before.quarantine_occupancy);
}

// ---- quarantine ------------------------------------------------------------

TEST(OrcSanQuarantine, RingIsBoundedAndFlushedAtDomainDeath) {
    const orcsan::Stats before = orcsan::stats();
    auto dom = std::make_unique<OrcDomain>();
    for (int i = 0; i < 100; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*dom, i);
    }  // every R-th drop walks the buffer: all but the last partial buffer reclaimed
    EXPECT_GE(orcsan::stats().quarantined - before.quarantined,
              static_cast<std::uint64_t>(100 - OrcDomain::kRetireBuffer));
    dom->flush();  // the rest: 100 quarantine insertions in all
    const orcsan::Stats mid = orcsan::stats();
    EXPECT_EQ(mid.quarantined - before.quarantined, 100u);
    // Bounded ring: whatever is not held is already verified + freed.
    EXPECT_EQ((mid.freed - before.freed) +
                  (mid.quarantine_occupancy - before.quarantine_occupancy),
              100u);
    EXPECT_GT(mid.quarantine_peak, 0u);
    dom.reset();
    const orcsan::Stats after = orcsan::stats();
    EXPECT_EQ(after.freed - before.freed, 100u);
    EXPECT_EQ(after.quarantine_occupancy, before.quarantine_occupancy);
}

// ---- non-abort mode and telemetry ------------------------------------------

TEST(OrcSanReporting, NonAbortModeCountsViolationsAndContinues) {
    ScopedNoAbort no_abort;
    const orcsan::Stats before = orcsan::stats();
    {
        auto dom = std::make_unique<OrcDomain>();
        orc_atomic<Node*> root;
        AbandonedSlot abandoned;
        orc_ptr<Node*> p = make_orc_in<Node>(*dom, 1);
        root.store(p);
        dom->protect_ptr(nullptr, p.index());  // the early-clear bug
        root.store(nullptr);  // unlink: retired into the deferral buffer
        dom->flush();         // the walk finds no protection, so reclaims it
        EXPECT_EQ(orcsan::state_of(OrcDomain::to_base(p.get())),
                  orcsan::State::kQuarantined);
        // Instrumented deref of a quarantined object. operator-> alone runs
        // the orcsan check; completing the member access would additionally
        // be real UB on the poisoned block (UBSan's vptr check fires), and
        // non-abort mode keeps the process running into it.
        (void)p.operator->();
        // Abandon p: its slot no longer matches what the release protocol
        // expects (the test lied to the engine on purpose).
        ::new (abandoned.raw) orc_ptr<Node*>(std::move(p));
        dom.reset();
    }
    const orcsan::Stats after = orcsan::stats();
    EXPECT_EQ(after.unprotected_deref - before.unprotected_deref, 1u);
}

TEST(OrcSanReporting, TelemetryExportsTheOrcsanSource) {
    if (!telemetry::kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
    const std::string json = telemetry::export_json();
    EXPECT_NE(json.find("\"orcsan\""), std::string::npos) << json;
    EXPECT_NE(json.find("double_retire"), std::string::npos) << json;
    EXPECT_NE(json.find("quarantine_occupancy"), std::string::npos) << json;
}

}  // namespace
}  // namespace orcgc
