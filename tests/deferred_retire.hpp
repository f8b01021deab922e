// Quiescent-point checks under deferred retire (DESIGN.md §1.3f).
//
// Outside a cascade a retire only joins the calling thread's deferral
// buffer, which is walked once it holds R = OrcDomain::kRetireBuffer
// objects. So at a quiescent point a live thread may still hold up to R
// retired objects unfreed; OrcDomain::flush() walks every thread's buffer.
// Threads that exited already settled theirs (thread-exit drain). (The
// blocks a walk freed may wait for the thread's next allocations, but
// their objects are destroyed: no live count sees them.)
//
// settles() checks both halves of that contract at one quiescent point:
// the bounded state before the flush and the exact state after it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "common/alloc_tracker.hpp"
#include "core/orc.hpp"

namespace orcgc::test_support {

/// Unfreed retired objects one live thread may hold at a quiescent point.
inline constexpr std::int64_t kThreadSlack = OrcDomain::kRetireBuffer;

/// `count()` is a live-object count whose exact quiescent value is `exact`.
/// Succeeds iff, before `dom.flush()` on the calling thread, the count lies
/// in [exact, exact + live_threads * R], and after it equals `exact`.
template <typename Count>
::testing::AssertionResult settles(OrcDomain& dom, Count count, std::int64_t exact,
                                   int live_threads = 1) {
    const std::int64_t before = static_cast<std::int64_t>(count());
    dom.flush();
    const std::int64_t after = static_cast<std::int64_t>(count());
    if (before < exact || before > exact + live_threads * kThreadSlack) {
        return ::testing::AssertionFailure()
               << "before flush(): " << before << " live, allowed [" << exact << ", "
               << exact + live_threads * kThreadSlack << "]";
    }
    if (after != exact) {
        return ::testing::AssertionFailure()
               << "after flush(): " << after << " live, expected exactly " << exact;
    }
    return ::testing::AssertionSuccess();
}

/// Live TrackedObjects process-wide (the allocation tracker's count).
inline std::int64_t live_count() { return AllocCounters::instance().live_count(); }

/// An exact live-count baseline: settles the calling thread's buffers in
/// `dom` first, so earlier work cannot drain below the baseline later.
inline std::int64_t settled_live_count(OrcDomain& dom = OrcDomain::global()) {
    dom.flush();
    return live_count();
}

}  // namespace orcgc::test_support
