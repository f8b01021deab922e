// Empirical counterpart of Table 1's "bound on memory usage" column: run the
// Michael–Harris list under a write-heavy mix and record the *peak* number of
// retired-but-unreclaimed objects each scheme accumulates, next to its
// theoretical bound. PTP's peak should stay around t*(H+1) — linear in
// threads — while HP/PTB grow with their scan thresholds (the quadratic
// family) and EBR is limited only by how fast epochs turn.
//
// For OrcGC (which has no retired lists at all) we report the peak number of
// nodes alive beyond the key-range capacity of the set — i.e. unlinked nodes
// not yet handed back to the allocator. That peak is a gate: the process
// exits non-zero if, at any thread count t, the median over ORC_BENCH_RUNS
// runs exceeds kMaxHPs·t. Retired objects stay within that (at most R - 1
// buffered and H parked per thread), but the peak also counts the removed
// nodes that buffered ones still link to, and that chain garbage depends on
// the workload (DESIGN.md §1.3f, "Bounds"). The median keeps one run's
// host-preemption tail from deciding it; every run's peak is printed.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/barrier.hpp"
#include "common/bench_harness.hpp"
#include "common/rng.hpp"
#include "ds/michael_list.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "reclamation/reclamation.hpp"

namespace orcgc {
namespace {

using Key = std::uint64_t;
constexpr std::uint64_t kKeys = 128;
constexpr int kListHPs = 3;  // H for the Michael list

/// Runs 50i/50r churn on `set` with `threads` workers for `run_ms` while a
/// monitor thread records the peak of `sample()`.
template <typename Set>
std::size_t churn_peak(Set& set, int threads, int run_ms,
                       const std::function<std::size_t()>& sample) {
    Xoshiro256 prefill(1);
    for (Key k = 0; k < kKeys; ++k) {
        if (prefill.next_bounded(2) == 0) set.insert(k);
    }
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> peak{0};
    SpinBarrier barrier(threads + 2);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Xoshiro256 rng(77 + t);
            barrier.arrive_and_wait();
            while (!stop.load(std::memory_order_acquire)) {
                const Key k = rng.next_bounded(kKeys);
                if (rng.next_bounded(2) == 0) {
                    set.insert(k);
                } else {
                    set.remove(k);
                }
            }
        });
    }
    std::thread monitor([&] {
        barrier.arrive_and_wait();
        while (!stop.load(std::memory_order_acquire)) {
            const std::size_t count = sample();
            std::size_t prev = peak.load();
            while (prev < count && !peak.compare_exchange_weak(prev, count)) {
            }
            std::this_thread::yield();
        }
    });
    barrier.arrive_and_wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    stop.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    monitor.join();
    return peak.load();
}

template <template <class, int> class ReclaimerTmpl>
void run_manual(const char* name, const char* bound, const BenchConfig& cfg) {
    using Set = MichaelList<Key, ReclaimerTmpl>;
    for (int threads : cfg.thread_counts) {
        std::size_t peak;
        {
            Set set;
            peak = churn_peak(set, threads, cfg.run_ms,
                              [&set] { return set.reclaimer().unreclaimed_count(); });
        }
        std::printf("memory-bound(tab1)     %-6s t=%-3d H=%d  peak_unreclaimed=%-8zu bound=%s\n",
                    name, threads, kListHPs, peak, bound);
        std::fflush(stdout);
        // JSON row: mean carries the peak; the theoretical bound rides the
        // mix column so the artifact is self-describing.
        BenchJsonRecorder::instance().record("memory-bound(tab1)", name, bound, threads,
                                             RunStats{static_cast<double>(peak), 0.0}, -1.0);
    }
}

/// Returns false if a thread count's median peak breaks the gate.
bool run_orc(const BenchConfig& cfg) {
    auto& counters = AllocCounters::instance();
    bool ok = true;
    for (int threads : cfg.thread_counts) {
        std::vector<std::size_t> peaks;
        for (int run = 0; run < std::max(1, cfg.runs); ++run) {
            const auto live_before = counters.live_count();
            MichaelListOrc<Key> set;
            peaks.push_back(churn_peak(set, threads, cfg.run_ms, [&counters, live_before] {
                const auto live = counters.live_count() - live_before;
                return live > static_cast<std::int64_t>(kKeys)
                           ? static_cast<std::size_t>(live - kKeys)
                           : std::size_t{0};
            }));
        }
        std::vector<std::size_t> sorted = peaks;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t peak = sorted[sorted.size() / 2];
        const std::size_t bound = static_cast<std::size_t>(OrcDomain::kMaxHPs) * threads;
        const bool pass = peak <= bound;
        ok = ok && pass;
        std::printf(
            "memory-bound(tab1)     %-6s t=%-3d H=*  peak_unreclaimed=%-8zu bound=O(Ht) "
            "gate=%zu %s runs=",
            "OrcGC", threads, peak, bound, pass ? "ok" : "FAIL");
        for (std::size_t p : peaks) std::printf("%zu ", p);
        std::printf("\n");
        std::fflush(stdout);
        BenchJsonRecorder::instance().record("memory-bound(tab1)", "OrcGC", "O(Ht)", threads,
                                             RunStats{static_cast<double>(peak), 0.0}, -1.0);
    }
    return ok;
}

}  // namespace
}  // namespace orcgc

int main(int argc, char** argv) {
    using namespace orcgc;
    bench_json_init(argc, argv);
    const BenchConfig cfg = BenchConfig::from_env();
    std::printf("# Peak unreclaimed objects under 50i/50r churn, %llu keys (Table 1 bounds)\n",
                static_cast<unsigned long long>(kKeys));
    run_manual<HazardPointers>("HP", "O(Ht^2)", cfg);
    run_manual<PassTheBuck>("PTB", "O(Ht^2)", cfg);
    run_manual<EpochBasedReclaimer>("EBR", "unbounded", cfg);
    run_manual<HazardEras>("HE", "O(#L*Ht^2)", cfg);
    run_manual<IntervalBasedReclaimer>("IBR", "O(#L*Ht^2)", cfg);
    run_manual<PassThePointer>("PTP", "O(Ht)", cfg);
    // Batches only detach once a slot-count of cells is pushed, so Hyaline's
    // robust variant inherits the era family's bound; DEBRA, like any
    // neutralization-free epoch scheme, is stalled-thread-unbounded.
    run_manual<Hyaline>("Hyaline", "O(#L*Ht^2)", cfg);
    run_manual<Debra>("DEBRA", "unbounded", cfg);
    const bool orc_ok = run_orc(cfg);
    BenchJsonRecorder::instance().flush();
    if (!orc_ok) {
        std::fprintf(stderr, "memory-bound: OrcGC median peak above kMaxHPs*t\n");
        return 1;
    }
    return 0;
}
