// Lifecycle and isolation tests for instance-scoped reclamation domains
// (core/orc_domain.hpp).
//
// The contract under test: objects are tagged with their owning domain at
// allocation and every counter update / retire routes to that domain, while
// protection uses the ambient domain (ScopedDomain). A domain's retire scans
// see only its own hp slots, so activity in one domain can neither free nor
// delay objects of another; destroying a domain drains everything it parked
// and dies loudly if objects provably outlive it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "core/orc.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "ds/orc/ms_queue_orc.hpp"
#include "deferred_retire.hpp"

#if defined(__SANITIZE_THREAD__)
#define ORCGC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ORCGC_TEST_TSAN 1
#endif
#endif
#ifndef ORCGC_TEST_TSAN
#define ORCGC_TEST_TSAN 0
#endif

namespace orcgc {
namespace {

using test_support::settles;

struct Node : orc_base, TrackedObject {
    std::uint64_t value = 0;
    orc_atomic<Node*> next{nullptr};
    Node() = default;
    explicit Node(std::uint64_t v) : value(v) {}
};

/// Raw storage an orc_ptr is placement-new'd into and never destroyed —
/// models a protection abandoned by a crashed/exited scope: the hp slot
/// stays published with no live orc_ptr object behind it.
struct AbandonedSlot {
    alignas(orc_ptr<Node*>) unsigned char raw[sizeof(orc_ptr<Node*>)];
};

/// Allocates a node in `dom`, links it from `root`, then abandons the
/// protecting orc_ptr (placement-new; the destructor never runs) so its hp
/// slot stays published. Unlinking from `root` afterwards retires the node
/// into the deferral buffer, and the flush's walk — finding the abandoned hp
/// — must PARK it in `dom`'s handover slot instead of freeing it. Returns
/// the raw node for identity checks only.
Node* park_one(OrcDomain& dom, orc_atomic<Node*>& root, AbandonedSlot& storage) {
    orc_ptr<Node*> p = make_orc_in<Node>(dom, 42);
    Node* raw = p.get();
    root.store(p);                                     // +1 hard link
    ::new (storage.raw) orc_ptr<Node*>(std::move(p));  // abandon the protection
    root.store(nullptr);                               // unlink -> retire (buffered)
    dom.flush();                                       // walk -> park
    return raw;
}

TEST(OrcDomainBasics, MakeOrcInTagsAndCounts) {
    auto domain = std::make_unique<OrcDomain>();
    EXPECT_FALSE(domain->is_global());
    EXPECT_EQ(domain->object_count(), 0);
    {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, 7);
        EXPECT_EQ(p->value, 7u);
        EXPECT_EQ(p.domain(), domain.get());
        EXPECT_EQ(domain->object_count(), 1);
        // The global domain must not have adopted it.
        EXPECT_EQ(&domain_of(OrcDomain::to_base(p.get())), domain.get());
    }
    // Dropping the only protection with zero hard links reclaims in-domain.
    EXPECT_TRUE(settles(*domain, [&] { return domain->object_count(); }, 0));
}

TEST(OrcDomainBasics, MakeOrcDefaultsToAmbientDomain) {
    auto domain = std::make_unique<OrcDomain>();
    {
        ScopedDomain guard(*domain);
        orc_ptr<Node*> p = make_orc<Node>(9);
        EXPECT_EQ(p.domain(), domain.get());
        EXPECT_EQ(domain->object_count(), 1);
    }
    EXPECT_TRUE(settles(*domain, [&] { return domain->object_count(); }, 0));
}

TEST(OrcDomainBasics, ScopedDomainNestsAndRestores) {
    OrcDomain a;
    OrcDomain b;
    EXPECT_EQ(&current_domain(), &OrcDomain::global());
    {
        ScopedDomain ga(a);
        EXPECT_EQ(&current_domain(), &a);
        {
            ScopedDomain gb(b);
            EXPECT_EQ(&current_domain(), &b);
        }
        EXPECT_EQ(&current_domain(), &a);
    }
    EXPECT_EQ(&current_domain(), &OrcDomain::global());
}

TEST(OrcDomainIsolation, RetireChurnInOneDomainNeverFreesAnothersParkedObject) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    auto a = std::make_unique<OrcDomain>();
    auto b = std::make_unique<OrcDomain>();
    {
        // Park one object in A behind an abandoned protection.
        orc_atomic<Node*> root;
        AbandonedSlot abandoned;
        park_one(*a, root, abandoned);
        ASSERT_EQ(a->object_count(), 1) << "node should be parked, not freed";
        ASSERT_EQ(counters.live_count(), live_before + 1);

        // Heavy allocate/retire churn in B: thousands of retire scans, every
        // one of which walks only B's hp slots. A's parked object must be
        // untouched — B's scans cannot see (let alone free) it.
        for (int i = 0; i < 5000; ++i) {
            orc_ptr<Node*> p = make_orc_in<Node>(*b, i);
        }
        EXPECT_TRUE(settles(*b, [&] { return b->object_count(); }, 0));
        EXPECT_EQ(a->object_count(), 1);
        EXPECT_EQ(counters.live_count(), live_before + 1);
    }
    // Destroying A drains its handover and frees the parked object.
    a.reset();
    EXPECT_EQ(counters.live_count(), live_before);
    b.reset();
}

TEST(OrcDomainLifecycle, DestructionDrainsHandoversWithZeroLeaks) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    const auto doubles_before = counters.double_destroys();
    auto domain = std::make_unique<OrcDomain>();
    {
        orc_atomic<Node*> root;
        AbandonedSlot abandoned;
        park_one(*domain, root, abandoned);
        ASSERT_EQ(domain->object_count(), 1);
        ASSERT_GE(domain->handover_count(), 1u);
        domain.reset();  // must drain, free exactly once, and not fatal()
    }
    EXPECT_EQ(counters.live_count(), live_before);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

TEST(OrcDomainLifecycle, ThreadExitHookDrainsEveryLiveDomain) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    auto a = std::make_unique<OrcDomain>();
    auto b = std::make_unique<OrcDomain>();
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    std::thread worker([&] {
        // Park one object in EACH domain behind abandoned protections, then
        // exit while both are still parked. The single registry-level exit
        // hook must drain this thread's slots in every live domain.
        orc_atomic<Node*> root_a;
        orc_atomic<Node*> root_b;
        AbandonedSlot s1;
        AbandonedSlot s2;
        park_one(*a, root_a, s1);
        park_one(*b, root_b, s2);
        EXPECT_EQ(a->object_count(), 1);
        EXPECT_EQ(b->object_count(), 1);
        parked.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    });
    while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
    release.store(true, std::memory_order_release);
    worker.join();
    // The exit hook ran before join() returned: both domains are empty.
    EXPECT_EQ(a->object_count(), 0);
    EXPECT_EQ(b->object_count(), 0);
    EXPECT_EQ(counters.live_count(), live_before);
    a.reset();
    b.reset();
}

TEST(OrcDomainStructures, StructureBoundToPrivateDomainReclaimsThere) {
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    auto domain = std::make_unique<OrcDomain>();
    {
        MichaelListOrc<std::uint64_t> list(domain.get());
        EXPECT_EQ(&list.domain(), domain.get());
        for (std::uint64_t k = 0; k < 128; ++k) EXPECT_TRUE(list.insert(k));
        EXPECT_GT(domain->object_count(), 0);
        EXPECT_EQ(OrcDomain::global().is_global(), true);
        for (std::uint64_t k = 0; k < 128; k += 2) EXPECT_TRUE(list.remove(k));
        for (std::uint64_t k = 1; k < 128; k += 2) EXPECT_TRUE(list.contains(k));
    }
    // List destroyed: the cascade freed every node inside the domain.
    EXPECT_EQ(domain->object_count(), 0);
    EXPECT_EQ(counters.live_count(), live_before);
    domain.reset();  // trivially quiescent
}

TEST(OrcDomainStructures, MultiThreadStressAcrossPrivateAndSharedDomains) {
    constexpr int kThreads = 4;
    constexpr int kOps = 4000;
    auto& counters = AllocCounters::instance();
    const auto live_before = counters.live_count();
    auto shared_domain = std::make_unique<OrcDomain>();
    {
        MSQueueOrc<std::uint64_t> shared_queue(shared_domain.get());
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Each worker churns a queue in its own private domain while
                // also hammering the shared-domain queue.
                OrcDomain private_domain;
                {
                    MSQueueOrc<std::uint64_t> mine(&private_domain);
                    for (int i = 0; i < kOps; ++i) {
                        mine.enqueue(static_cast<std::uint64_t>(i));
                        shared_queue.enqueue(static_cast<std::uint64_t>(t * kOps + i));
                        if ((i & 3) == 0) {
                            (void)mine.dequeue();
                            (void)shared_queue.dequeue();
                        }
                    }
                    while (mine.dequeue()) {
                    }
                }
                // Nodes may remain parked in this thread's handover slots
                // until the domain drains; anything beyond that is a leak.
                EXPECT_LE(private_domain.object_count(),
                          static_cast<std::int64_t>(private_domain.handover_count()));
                // ~OrcDomain runs here, on a live registered thread, with the
                // queue already gone — the strictest in-process teardown. It
                // drains the parked remainder and fatal()s on any real leak.
            });
        }
        for (auto& t : threads) t.join();
        while (shared_queue.dequeue()) {
        }
    }
    // Everything not parked on this (still registered) thread is freed; the
    // domain destructor drains the parked rest, and the allocation counters
    // must balance exactly afterwards.
    EXPECT_LE(shared_domain->object_count(),
              static_cast<std::int64_t>(shared_domain->handover_count()));
    shared_domain.reset();
    EXPECT_EQ(counters.live_count(), live_before);
}

TEST(OrcDomainStats, CountersAreDomainLocal) {
    if (!telemetry::kTelemetryEnabled) {
        GTEST_SKIP() << "retire-path counters compiled out (-DORCGC_TELEMETRY=OFF)";
    }
    auto a = std::make_unique<OrcDomain>();
    auto b = std::make_unique<OrcDomain>();
    a->metrics().reset();
    b->metrics().reset();
    for (int i = 0; i < 256; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*a, i);
    }
    const OrcMetrics::Snapshot sa = a->metrics().snapshot();
    const OrcMetrics::Snapshot sb = b->metrics().snapshot();
    EXPECT_EQ(sa.retired, 256u);
    EXPECT_EQ(sa.snapshots, 256u / OrcDomain::kRetireBuffer)
        << "churn in A must be visible in A: one walk per buffer of R retires";
    EXPECT_EQ(sb.snapshots, 0u) << "A's churn must not leak into B's counters";
    EXPECT_EQ(sb.slots_scanned, 0u);
    EXPECT_EQ(sb.retired, 0u);
    a.reset();
    b.reset();
}

#if !ORCGC_TEST_TSAN
TEST(OrcDomainDeathTest, DestroyingADomainWithLiveObjectsIsFatal) {
    // An object still hard-linked when its domain dies is a protocol
    // violation: the domain must abort with an actionable message, not free
    // memory a surviving structure still points into.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            auto* root = new orc_atomic<Node*>();  // never destroyed: keeps the link
            auto* domain = new OrcDomain();
            {
                orc_ptr<Node*> p = make_orc_in<Node>(*domain, 1);
                root->store(p);
            }
            delete domain;  // object_count() == 1 -> fatal()
        },
        "unreclaimed");
}
#else
TEST(OrcDomainDeathTest, DestroyingADomainWithLiveObjectsIsFatal) {
    GTEST_SKIP() << "death-test forks are not reliable under TSan";
}
#endif

}  // namespace
}  // namespace orcgc
