// make_orc<T>() / make_orc_in<T>(domain): protected allocation of
// OrcGC-tracked objects (paper Algorithm 3, lines 30–36).
//
// The object is tagged with its owning reclamation domain and published in
// the creating thread's hazardous-pointer array (of that domain) *before*
// being returned, so it cannot be reclaimed between construction and first
// use. A freshly made object has zero hard links; if the returned orc_ptr
// is dropped without ever linking the object into a structure, the release
// path retires and deletes it — no leak on early-return/exception paths.
//
// make_orc() allocates into the calling thread's ambient domain (the global
// domain unless a ScopedDomain guard is active — data-structure methods
// install one, so nodes land in their structure's domain automatically).
// make_orc_in() names the domain explicitly.
#pragma once

#include <type_traits>
#include <utility>

#include "common/orcsan.hpp"
#include "core/orc_base.hpp"
#include "core/orc_domain.hpp"
#include "core/orc_ptr.hpp"

namespace orcgc {

template <typename T, typename... Args>
orc_ptr<T*> make_orc_in(OrcDomain& domain, Args&&... args) {
    static_assert(std::is_base_of_v<orc_base, T>, "make_orc<T>: T must extend orc_base");
    OrcDomain::pace_free();  // release one block a buffer walk freed: reuse it
    T* ptr = new T(std::forward<Args>(args)...);
    orc_base* base = static_cast<orc_base*>(ptr);
    // Tag before the hp publish below: once published (a seq_cst store), the
    // object can be found by other threads, and _orc_dom must already be set.
    base->_orc_dom = &domain;
    domain.note_tracked_allocation();
#ifdef ORCGC_ORCSAN
    // Shadow registration: state Live, extent sizeof(T), canary stamped for
    // the eventual quarantine verification (orcsan.hpp).
    orcsan::on_alloc(base, sizeof(T), alignof(T), &domain);
#endif
    const int idx = domain.get_new_idx();
    domain.protect_ptr(base, idx);
    return orc_ptr<T*>(ptr, idx, &domain);
}

template <typename T, typename... Args>
orc_ptr<T*> make_orc(Args&&... args) {
    return make_orc_in<T>(current_domain(), std::forward<Args>(args)...);
}

}  // namespace orcgc
