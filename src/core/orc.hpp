// OrcGC — automatic lock-free memory reclamation (Correia, Ramalhete,
// Felber; PPoPP 2021). Single umbrella header, mirroring the paper's
// "implemented as a single C++ header" packaging.
//
// Methodology to deploy OrcGC on a data structure (§4.1.1):
//   1. Make all dynamic types (nodes) extend orcgc::orc_base.
//   2. Create instances with orcgc::make_orc<T>() instead of new.
//   3. Replace std::atomic<T*> with orcgc::orc_atomic<T*>.
//   4. Hold values returned by orc_atomic::load() / make_orc() in
//      orcgc::orc_ptr<T*> locals (and pass them across functions as such).
//
// Reclamation domains (orc_domain.hpp): every step above also has a
// domain-scoped form — construct an OrcDomain, allocate with
// make_orc_in(domain, ...) (or pass the domain to a data structure's
// constructor), and that domain's retire scans stay independent of every
// other domain's hazardous pointers. Code that never names a domain uses
// OrcDomain::global() implicitly and behaves exactly like the paper's
// process-wide engine.
#pragma once

#include "core/make_orc.hpp"
#include "core/orc_atomic.hpp"
#include "core/orc_base.hpp"
#include "core/orc_domain.hpp"
#include "core/orc_ptr.hpp"
