// ThreadSanitizer happens-before annotations for reclamation handover edges.
//
// Every scheme in this library proves "no thread can still touch p" by
// *scanning* published protections (hazard pointers, guards, eras) rather
// than by a release/acquire pair on a single location. TSan cannot see those
// protocol-level edges: a reader's plain access to a node followed by a
// scanner's delete looks like a data race even though the scan proved the
// reader had unpublished first (or was parked past). These annotations spell
// out the two halves of the invisible edge:
//
//   ORC_ANNOTATE_HAPPENS_BEFORE(p)  reader side — "all my accesses to p are
//                                   done" — placed where a protection slot is
//                                   cleared or overwritten.
//   ORC_ANNOTATE_HAPPENS_AFTER(p)   reclaimer side — placed immediately
//                                   before delete, after the scan proved no
//                                   protection covers p.
//
// Era-/epoch-based schemes (EBR, HE, IBR) cannot name the individual objects
// a reservation covered, so they annotate coarsely on the shared era clock:
// release on reservation change, acquire before each delete batch.
//
// The macros compile to nothing unless TSan is active (auto-detected, or
// forced by the ORCGC_TSAN_BUILD definition that -DORCGC_TSAN=ON sets), so
// regular and ASan builds are byte-identical to an unannotated tree.
#pragma once

#include <atomic>

#if defined(ORCGC_TSAN_BUILD) || defined(__SANITIZE_THREAD__)
#define ORCGC_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ORCGC_TSAN_ACTIVE 1
#endif
#endif
#ifndef ORCGC_TSAN_ACTIVE
#define ORCGC_TSAN_ACTIVE 0
#endif

#if ORCGC_TSAN_ACTIVE
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#define ORC_ANNOTATE_HAPPENS_BEFORE(addr) __tsan_release((void*)(addr))
#define ORC_ANNOTATE_HAPPENS_AFTER(addr) __tsan_acquire((void*)(addr))
#else
#define ORC_ANNOTATE_HAPPENS_BEFORE(addr) ((void)0)
#define ORC_ANNOTATE_HAPPENS_AFTER(addr) ((void)0)
#endif

namespace orcgc {

/// Reader-side release for a protection slot that is about to be cleared or
/// overwritten: announces that all accesses to the currently protected object
/// are complete. No-op (not even a load) outside TSan builds.
template <typename T>
inline void tsan_release_protection(const std::atomic<T>& slot) noexcept {
#if ORCGC_TSAN_ACTIVE
    if (T ptr = slot.load(std::memory_order_relaxed)) ORC_ANNOTATE_HAPPENS_BEFORE(ptr);
#else
    (void)slot;
#endif
}

/// Reclaimer-side acquire immediately before deleting `obj`: pairs with the
/// tsan_release_protection() of whichever reader most recently announced it
/// was done with obj. Shared by every OrcGC delete site — the protocol
/// evidence differs (a generation walk with sequence revalidation, or a
/// quiescent domain teardown) but the invisible edge TSan needs is
/// identical.
inline void tsan_acquire_for_delete(const void* obj) noexcept {
    ORC_ANNOTATE_HAPPENS_AFTER(obj);
    (void)obj;  // the macro compiles to nothing outside TSan builds
}

}  // namespace orcgc
