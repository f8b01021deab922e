// Retire-path cost vs cascade shape and thread count.
//
// OrcGC's hot reclamation cost is OrcDomain::retire(): every retired object —
// including each node flattened through the recursive-retire list during
// cascading destructor retires — must prove Lemma 1's "no hazardous pointer
// covers me" condition against the published hp arrays. This bench measures
// that cost directly, end to end, for the three shapes that matter:
//
//   single_drop  make_orc + drop: one retire, no cascade (the orc_ptr clear
//                protocol of Algorithm 5 in isolation).
//   chain/D      a D-node singly linked chain whose head drop cascades one
//                node per generation (worst case for batching: generations of
//                size 1).
//   fanout/F     a root holding F orc_atomic children: dropping the root
//                retires F+1 nodes in two generations (1 then F) — the shape
//                the batched snapshot path amortizes.
//
// The two mixes separate the watermark effect from the batching effect:
//
//   bare         workers only; each thread holds a handful of live orc_ptrs.
//   hoard48      the main thread additionally parks 48 live orc_ptrs for the
//                duration of the run. An engine that scans a global
//                max-used-index watermark pays 48+ slots per registered
//                thread on *every* retire; per-thread watermarks confine the
//                cost to the hoarder's own array.
//
// All `bare` rows run before any `hoard48` row on purpose: a global-watermark
// engine can never lower its scan bound again once the hoarder has raised it.
//
// A quiescent instrumented section reports scans, snapshots and slots
// scanned per shape (the counters are always on — OrcDomain::metrics()), and
// fails the process if the fanout cascade needs more than 2 full-HP-array
// snapshots — the regression gate for the batched retire path. The section
// is skipped only in -DORCGC_TELEMETRY=OFF overhead-measurement builds,
// where every counter reads zero.
//
// Ops are counted in *nodes retired* (not cascades), so rows are comparable
// across shapes. JSON mirroring: --json <path> or ORC_BENCH_JSON.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/bench_harness.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

constexpr int kFanout = 32;
constexpr int kHoardPtrs = 48;

struct ChainNode : orc_base {
    orc_atomic<ChainNode*> next{nullptr};
};

struct FanNode : orc_base {
    orc_atomic<FanNode*> child[kFanout];
};

/// One chain build-and-drop: returns the number of nodes retired.
std::uint64_t chain_cascade(int depth) {
    orc_atomic<ChainNode*> root;
    {
        orc_ptr<ChainNode*> head = make_orc<ChainNode>();
        orc_ptr<ChainNode*> cur = head;
        for (int i = 1; i < depth; ++i) {
            orc_ptr<ChainNode*> nxt = make_orc<ChainNode>();
            cur->next.store(nxt);
            cur = nxt;
        }
        root.store(head);
    }
    // root's destructor drops the head; the whole chain cascades through the
    // engine's recursive-retire list, one generation per node.
    return static_cast<std::uint64_t>(depth);
}

/// One fanout build-and-drop: returns the number of nodes retired.
std::uint64_t fanout_cascade() {
    {
        orc_ptr<FanNode*> root = make_orc<FanNode>();
        for (int i = 0; i < kFanout; ++i) {
            orc_ptr<FanNode*> c = make_orc<FanNode>();
            root->child[i].store(c);
        }
    }
    // Dropping the never-linked root retires it (generation 1); its
    // destructor pushes all children at once (generation 2).
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
        print_row("retire_batch", series, mix, threads, stats);
    }
}

/// Contended multi-retirer scenario: every thread cascades simultaneously
/// WHILE holding a protection on a shared node another thread is likely to
/// retire. Each iteration protects one of a small shared pool of nodes, runs
/// a full fanout cascade under that protection, then swaps the pooled node
/// for a fresh one — retiring an object that other threads often have
/// published, which drives the handover/park path and its displacements.
/// Ops count nodes retired, comparable with the other series.
void run_contended(const char* mix, const BenchConfig& cfg) {
    constexpr int kSharedSlots = 8;
    struct SharedPool {
        orc_atomic<ChainNode*> slot[kSharedSlots];
    };
    static SharedPool pool;  // static: series bodies run on many threads
    for (int i = 0; i < kSharedSlots; ++i) {
        orc_ptr<ChainNode*> n = make_orc<ChainNode>();
        pool.slot[i].store(n);
    }
    run_series("contended/32", mix, cfg, [](int tid, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const int s = static_cast<int>((static_cast<std::uint64_t>(tid) + i++) % kSharedSlots);
            orc_ptr<ChainNode*> held = pool.slot[s].load();  // protect a shared node
            ops += fanout_cascade();                         // cascade under protection
            orc_ptr<ChainNode*> fresh = make_orc<ChainNode>();
            pool.slot[s].store(fresh);  // retire the old node (often protected elsewhere)
            ops += 1;
        }
        return ops;
    });
    // Quiesce the pool before the next series (all workers joined by now).
    for (int i = 0; i < kSharedSlots; ++i) pool.slot[i].store(nullptr);
}

void run_all_shapes(const char* mix, const BenchConfig& cfg) {
    run_series("single_drop", mix, cfg, [](int, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) {
            orc_ptr<ChainNode*> n = make_orc<ChainNode>();  // retired+freed at scope exit
            ops += 1;
        }
        return ops;
    });
    for (int depth : {16, 64}) {
        char name[32];
        std::snprintf(name, sizeof(name), "chain/%d", depth);
        run_series(name, mix, cfg, [depth](int, const std::atomic<bool>& stop) {
            std::uint64_t ops = 0;
            while (!stop.load(std::memory_order_acquire)) ops += chain_cascade(depth);
            return ops;
        });
    }
    run_series("fanout/32", mix, cfg, [](int, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ops += fanout_cascade();
        return ops;
    });
    run_contended(mix, cfg);
}

/// Quiescent, single-threaded instrumented pass: per cascade shape, report
/// how many hp-array scans/snapshots the engine performed and how many slots
/// it touched. Returns false if the fanout cascade exceeded the 2-snapshot
/// budget the batched path is designed to meet.
bool report_stats() {
    auto& engine = OrcDomain::global();
    constexpr int kCascades = 200;
    bool ok = true;
    struct Shape {
        const char* name;
        std::uint64_t (*one)();
        bool gated;
    };
    static const Shape kShapes[] = {
        {"chain/16", [] { return chain_cascade(16); }, false},
        {"fanout/32", [] { return fanout_cascade(); }, true},
    };
    for (const Shape& shape : kShapes) {
        engine.reset_stats();
        std::uint64_t nodes = 0;
        for (int i = 0; i < kCascades; ++i) nodes += shape.one();
        const OrcDomain::RetireStats s = engine.stats();
        const double snapshots_per_cascade = static_cast<double>(s.snapshots) / kCascades;
        const double scans_per_node = static_cast<double>(s.scans) / static_cast<double>(nodes);
        const double slots_per_node =
            static_cast<double>(s.slots_scanned) / static_cast<double>(nodes);
        std::printf(
            "retire_stats %-12s snapshots/cascade=%.2f scans/node=%.2f slots/node=%.2f "
            "batch_frees=%llu slow=%llu\n",
            shape.name, snapshots_per_cascade, scans_per_node, slots_per_node,
            static_cast<unsigned long long>(s.batch_frees),
            static_cast<unsigned long long>(s.slow_frees));
        // Mirror into the JSON artifact: mean = snapshots/cascade,
        // normalized = slots scanned per node retired.
        RunStats row;
        row.mean_ops_per_sec = snapshots_per_cascade;
        row.stddev = scans_per_node;
        print_row("retire_stats", shape.name, "quiescent", 1, row, slots_per_node);
        if (shape.gated && snapshots_per_cascade > 2.0) {
            std::fprintf(stderr,
                         "FAIL: fanout cascade used %.2f full-HP snapshots per cascade "
                         "(budget: 2)\n",
                         snapshots_per_cascade);
            ok = false;
        }
    }
    return ok;
}

}  // namespace
}  // namespace orcgc

int main(int argc, char** argv) {
    using namespace orcgc;
    bench_json_init(argc, argv);
    const BenchConfig cfg = BenchConfig::from_env();

    run_all_shapes("bare", cfg);
    {
        // Park kHoardPtrs live orc_ptrs on the main thread for the rest of
        // the process: every retire below must now prove these slots do not
        // cover the object being freed.
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
