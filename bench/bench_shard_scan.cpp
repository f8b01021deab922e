// Walk-park generation-scan bench (the batched retire path's headline
// numbers; BENCH_shard_scan.json is the committed artifact).
//
// The shape that isolates the batched retire path is a WIDE cascade: one
// root holding kWide orc_atomic children whose targets are bare orc_base
// leaves. Dropping the root retires kWide+1 nodes in two generations, and
// the second generation settles under ONE asym::heavy() + hp walk — the
// direction-swapped scan sorts the generation and probes each published hp
// into it, parking covered members in place instead of re-scanning them.
// Leaves carry no orc_atomic members, so per-node cost is the engine floor:
// allocation + the _orc token RMWs + the generation's share of the walk.
//
//   wide/N       the headline series (nodes retired per second).
//   fanout/32    the exact bench_retire_batch shape, for apples-to-apples
//                comparison against BENCH_retire_batch.json (the t=1 row is
//                the no-regression gate).
//   contended/N  every thread cascades simultaneously while protecting a
//                shared node another thread is likely to retire — the
//                handover- and displacement-heavy case.
//
// Mixes mirror bench_retire_batch: `bare` first, then `hoard48` (the main
// thread parks 48 live orc_ptrs, so every walk must prove those slots do
// not cover the generation).
//
// Ops are counted in nodes retired. JSON: --json <path> or ORC_BENCH_JSON;
// the artifact's "telemetry" key carries the domain's retire counters.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/bench_harness.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

constexpr int kWide = 96;
constexpr int kFanout = 32;
constexpr int kHoardPtrs = 48;

struct Leaf : orc_base {};

struct WideNode : orc_base {
    orc_atomic<Leaf*> child[kWide];
};

struct FanNode : orc_base {
    orc_atomic<FanNode*> child[kFanout];
};

struct ChainNode : orc_base {
    orc_atomic<ChainNode*> next{nullptr};
};

/// One wide build-and-drop: returns the number of nodes retired.
std::uint64_t wide_cascade() {
    {
        orc_ptr<WideNode*> root = make_orc<WideNode>();
        for (int i = 0; i < kWide; ++i) {
            orc_ptr<Leaf*> c = make_orc<Leaf>();
            root->child[i].store(c);
        }
    }
    // Dropping the never-linked root retires it (generation 1); its
    // destructor pushes all kWide leaves at once (generation 2).
    return static_cast<std::uint64_t>(kWide) + 1;
}

/// The bench_retire_batch fanout shape, bit for bit (parity series).
std::uint64_t fanout_cascade() {
    {
        orc_ptr<FanNode*> root = make_orc<FanNode>();
        for (int i = 0; i < kFanout; ++i) {
            orc_ptr<FanNode*> c = make_orc<FanNode>();
            root->child[i].store(c);
        }
    }
    return static_cast<std::uint64_t>(kFanout) + 1;
}

using Body = std::function<std::uint64_t(int, const std::atomic<bool>&)>;

void run_series(const char* series, const char* mix, const BenchConfig& cfg, const Body& body) {
    for (int threads : cfg.thread_counts) {
        // Delta the domain's retire→free age histogram around the run so the
        // row carries this series' own latency percentiles (coarse ticks).
        const telemetry::HistogramSnapshot age_before =
            OrcDomain::global().metrics().snapshot().retire_free_age;
        RunStats stats = timed_run(threads, cfg.run_ms, cfg.runs, body);
        fill_age_percentiles(stats, OrcDomain::global().metrics().snapshot().retire_free_age,
                             age_before);
        print_row("shard_scan", series, mix, threads, stats);
    }
}

constexpr int kSharedSlots = 8;
struct SharedPool {
    orc_atomic<ChainNode*> slot[kSharedSlots];
};
SharedPool g_pool;

/// Contended multi-retirer body: cascade under a protection on a pooled
/// node, then swap the pooled node out (retiring an object other threads
/// often have published — handover + displacement traffic).
std::uint64_t contended_iter(int tid, std::uint64_t i) {
    const int s = static_cast<int>((static_cast<std::uint64_t>(tid) + i) % kSharedSlots);
    orc_ptr<ChainNode*> held = g_pool.slot[s].load();
    std::uint64_t ops = wide_cascade();
    orc_ptr<ChainNode*> fresh = make_orc<ChainNode>();
    g_pool.slot[s].store(fresh);
    return ops + 1;
}

void run_contended(const char* series, const char* mix, const BenchConfig& cfg) {
    for (int i = 0; i < kSharedSlots; ++i) {
        orc_ptr<ChainNode*> n = make_orc<ChainNode>();
        g_pool.slot[i].store(n);
    }
    run_series(series, mix, cfg, [](int tid, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) ops += contended_iter(tid, i++);
        return ops;
    });
    for (int i = 0; i < kSharedSlots; ++i) g_pool.slot[i].store(nullptr);
}

void run_all_shapes(const char* mix, const BenchConfig& cfg) {
    char wide_name[32];
    std::snprintf(wide_name, sizeof(wide_name), "wide/%d", kWide);
    run_series(wide_name, mix, cfg, [](int, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ops += wide_cascade();
        return ops;
    });
    run_series("fanout/32", mix, cfg, [](int, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ops += fanout_cascade();
        return ops;
    });
    char cont_name[32];
    std::snprintf(cont_name, sizeof(cont_name), "contended/%d", kWide);
    run_contended(cont_name, mix, cfg);
}

/// Quiescent instrumented pass: the wide cascade must settle in at most 2
/// full-HP walks per cascade (one per generation of kSnapshotMin+ members —
/// the regression gate for the batched path). Skipped in
/// -DORCGC_TELEMETRY=OFF builds where counters read 0.
bool report_stats() {
    auto& engine = OrcDomain::global();
    constexpr int kCascades = 200;
    // Delta-based (no reset): the process-cumulative counters of the timed
    // series must survive into the artifact's telemetry export at flush.
    const OrcMetrics::Snapshot s0 = engine.metrics().snapshot();
    std::uint64_t nodes = 0;
    for (int i = 0; i < kCascades; ++i) nodes += wide_cascade();
    const OrcMetrics::Snapshot s = engine.metrics().snapshot();
    const double snapshots_per_cascade =
        static_cast<double>(s.snapshots - s0.snapshots) / kCascades;
    const double slots_per_node =
        static_cast<double>(s.slots_scanned - s0.slots_scanned) / static_cast<double>(nodes);
    std::printf("shard_stats  wide/%-3d     snapshots/cascade=%.2f slots/node=%.2f\n", kWide,
                snapshots_per_cascade, slots_per_node);
    RunStats row;
    row.mean_ops_per_sec = snapshots_per_cascade;
    print_row("shard_stats", "wide", "quiescent", 1, row, slots_per_node);
    if (snapshots_per_cascade > 2.0) {
        std::fprintf(stderr,
                     "FAIL: wide cascade used %.2f full-HP walks per cascade (budget: 2)\n",
                     snapshots_per_cascade);
        return false;
    }
    return true;
}

}  // namespace
}  // namespace orcgc

int main(int argc, char** argv) {
    using namespace orcgc;
    bench_json_init(argc, argv);
    const BenchConfig cfg = BenchConfig::from_env();

    run_all_shapes("bare", cfg);
    {
        std::vector<orc_ptr<ChainNode*>> hoard;
        hoard.reserve(kHoardPtrs);
        for (int i = 0; i < kHoardPtrs; ++i) hoard.push_back(make_orc<ChainNode>());
        run_all_shapes("hoard48", cfg);
    }

    bool ok = true;
    if (telemetry::kTelemetryEnabled) ok = report_stats();
    BenchJsonRecorder::instance().flush();
    return ok ? 0 : 1;
}
