// Reclamation-domain isolation: a noisy neighbor must not tax quiet domains.
//
// OrcGC's retire path scans hazardous-pointer slots to prove Lemma 1's "no hp
// covers me" condition. With a single process-wide engine, one thread parking
// many live orc_ptrs (48 here — three quarters of kMaxHPs) raises the scan
// bound for *every* retire in the process. Reclamation domains confine that
// cost: each OrcDomain owns its own hp arrays, so a hoarder only slows
// retires in the domain it actually uses.
//
// Mixes (series chain/16, ops counted in nodes retired):
//
//   solo       t quiet workers, each churning build-and-drop chain cascades
//              in its own private OrcDomain. The baseline.
//   noisy48    same quiet workers, plus a neighbor thread parking 48 live
//              orc_ptrs in its OWN separate domain. The isolation claim:
//              quiet throughput must match solo.
//   shared48   everyone in ONE domain — the same neighbor parks its 48 ptrs
//              where the workers retire. The cost domains eliminate: every
//              quiet retire now walks the hoarder's slots.
//
// The neighbor is deliberately mostly idle (one cascade per millisecond):
// its interference must come from published hp slots, not from stealing CPU,
// or the solo/noisy comparison measures the scheduler instead of the engine.
//
// A quiescent single-threaded section runs FIRST (before any worker thread
// registers, keeping the thread watermark minimal) and gates
// deterministically on slots scanned per node retired in the quiet domain,
// as counted by the always-on per-domain telemetry: noisy must stay within
// 1.25x of solo, and shared must visibly pay for the parked slots —
// otherwise the bench has lost its power and the process exits non-zero.
// The gate is skipped in -DORCGC_TELEMETRY=OFF overhead-measurement builds
// (compiled out) and under ORC_BENCH_SKIP_GATE=1: an A/B overhead run
// (tools/telemetry_overhead.py) must put the timed series behind the same
// preamble on both sides, and the gate's cascades and hoards would otherwise
// hand the telemetry-on binary a different allocator state than the
// telemetry-off one. JSON mirroring: --json <path> or ORC_BENCH_JSON.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/bench_harness.hpp"
#include "core/orc.hpp"

namespace orcgc {
namespace {

constexpr int kChainDepth = 16;
constexpr int kHoardPtrs = 48;

struct ChainNode : orc_base {
    orc_atomic<ChainNode*> next{nullptr};
};

/// One chain build-and-drop inside `dom`: returns the number of nodes
/// retired. Same shape as bench_retire_batch's chain cascade — generations
/// of size 1, the worst case for the retire scan.
std::uint64_t chain_cascade_in(OrcDomain& dom) {
    ScopedDomain guard(dom);
    orc_atomic<ChainNode*> root;
    {
        orc_ptr<ChainNode*> head = make_orc<ChainNode>();
        orc_ptr<ChainNode*> cur = head;
        for (int i = 1; i < kChainDepth; ++i) {
            orc_ptr<ChainNode*> nxt = make_orc<ChainNode>();
            cur->next.store(nxt);
            cur = nxt;
        }
        root.store(head);
    }
    // root's destructor drops the head; the chain cascades one generation
    // per node through dom's recursive-retire list.
    return static_cast<std::uint64_t>(kChainDepth);
}

/// The antagonist: parks kHoardPtrs live orc_ptrs — in `shared` when given,
/// otherwise in a private domain of its own — then idles, trickling one
/// cascade per millisecond so its domain's retire path stays warm without
/// competing for CPU. Construction blocks until the hoard is published.
class NoisyNeighbor {
  public:
    explicit NoisyNeighbor(OrcDomain* shared) : thread_([this, shared] { run(shared); }) {
        while (!ready_.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    ~NoisyNeighbor() {
        stop_.store(true, std::memory_order_release);
        thread_.join();
    }

  private:
    void run(OrcDomain* shared) {
        std::unique_ptr<OrcDomain> own;
        if (shared == nullptr) own = std::make_unique<OrcDomain>();
        OrcDomain& dom = (shared != nullptr) ? *shared : *own;
        {
            ScopedDomain guard(dom);
            std::vector<orc_ptr<ChainNode*>> hoard;
            hoard.reserve(kHoardPtrs);
            for (int i = 0; i < kHoardPtrs; ++i) hoard.push_back(make_orc<ChainNode>());
            ready_.store(true, std::memory_order_release);
            while (!stop_.load(std::memory_order_acquire)) {
                chain_cascade_in(dom);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
        // hoard released above; a private domain drains and dies on return.
    }

    std::atomic<bool> ready_{false};
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

using Body = std::function<std::uint64_t(int, const std::atomic<bool>&)>;

/// Each worker churns in a freshly constructed private domain.
Body private_domain_body() {
    return [](int, const std::atomic<bool>& stop) {
        auto dom = std::make_unique<OrcDomain>();
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ops += chain_cascade_in(*dom);
        return ops;
    };
}

/// Every worker churns in the one domain the hoarder also lives in.
Body shared_domain_body(OrcDomain* dom) {
    return [dom](int, const std::atomic<bool>& stop) {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_acquire)) ops += chain_cascade_in(*dom);
        return ops;
    };
}

void run_series(const char* mix, const BenchConfig& cfg, const Body& body) {
    for (int threads : cfg.thread_counts) {
        const RunStats stats = timed_run(threads, cfg.run_ms, cfg.runs, body);
        print_row("domains", "chain/16", mix, threads, stats);
    }
}

/// Slots scanned per node retired for kCascades quiet cascades in `dom`, as
/// counted by dom's own stats — the deterministic proxy for the retire-path
/// tax the timed section measures in wall-clock.
double slots_per_node(OrcDomain& dom, int cascades) {
    dom.metrics().reset();
    std::uint64_t nodes = 0;
    for (int i = 0; i < cascades; ++i) nodes += chain_cascade_in(dom);
    const OrcMetrics::Snapshot s = dom.metrics().snapshot();
    return static_cast<double>(s.slots_scanned) / static_cast<double>(nodes);
}

void report_gate_row(const char* mix, double slots, double vs_solo) {
    std::printf("domain_stats %-8s slots/node=%.2f vs_solo=%.2fx\n", mix, slots, vs_solo);
    RunStats row;
    row.mean_ops_per_sec = slots;
    print_row("domain_stats", "chain/16", mix, 1, row, vs_solo);
}

/// Single-threaded, quiescent, deterministic: measure the quiet domain's
/// slots-per-free in the three arrangements and enforce the isolation
/// contract. Runs before any worker thread registers so the thread-id
/// watermark — and with it the baseline scan cost — is minimal and stable.
bool isolation_gate() {
    constexpr int kCascades = 256;
    bool ok = true;

    double solo = 0.0;
    {
        auto quiet = std::make_unique<OrcDomain>();
        solo = slots_per_node(*quiet, kCascades);
    }

    double noisy = 0.0;
    {
        auto quiet = std::make_unique<OrcDomain>();
        auto hoarder_home = std::make_unique<OrcDomain>();
        ScopedDomain guard(*hoarder_home);
        std::vector<orc_ptr<ChainNode*>> hoard;
        hoard.reserve(kHoardPtrs);
        for (int i = 0; i < kHoardPtrs; ++i) hoard.push_back(make_orc<ChainNode>());
        noisy = slots_per_node(*quiet, kCascades);
        hoard.clear();
        quiet.reset();  // before hoarder_home: guard still points into it
    }

    double shared = 0.0;
    {
        auto dom = std::make_unique<OrcDomain>();
        {
            ScopedDomain guard(*dom);
            std::vector<orc_ptr<ChainNode*>> hoard;
            hoard.reserve(kHoardPtrs);
            for (int i = 0; i < kHoardPtrs; ++i) hoard.push_back(make_orc<ChainNode>());
            shared = slots_per_node(*dom, kCascades);
        }
    }

    report_gate_row("solo", solo, 1.0);
    report_gate_row("noisy48", noisy, noisy / solo);
    report_gate_row("shared48", shared, shared / solo);

    if (noisy > solo * 1.25 + 0.5) {
        std::fprintf(stderr,
                     "FAIL: 48 hps parked in a FOREIGN domain raised the quiet domain's "
                     "retire scan from %.2f to %.2f slots/node (budget: 1.25x) — "
                     "domain isolation is broken\n",
                     solo, noisy);
        ok = false;
    }
    if (shared < noisy + 8.0) {
        std::fprintf(stderr,
                     "FAIL: 48 hps parked in the SAME domain only moved the scan from "
                     "%.2f to %.2f slots/node — the bench has lost its power to detect "
                     "interference\n",
                     noisy, shared);
        ok = false;
    }
    return ok;
}

}  // namespace
}  // namespace orcgc

int main(int argc, char** argv) {
    using namespace orcgc;
    bench_json_init(argc, argv);
    const BenchConfig cfg = BenchConfig::from_env();

    bool ok = true;
    const char* skip_gate = std::getenv("ORC_BENCH_SKIP_GATE");
    if (telemetry::kTelemetryEnabled && !(skip_gate != nullptr && skip_gate[0] == '1')) {
        ok = isolation_gate();
    }

    run_series("solo", cfg, private_domain_body());
    {
        NoisyNeighbor neighbor(nullptr);
        run_series("noisy48", cfg, private_domain_body());
    }
    {
        auto shared = std::make_unique<OrcDomain>();
        {
            NoisyNeighbor neighbor(shared.get());
            run_series("shared48", cfg, shared_domain_body(shared.get()));
        }
        // neighbor has released its hoard and exited; the domain drains any
        // handovers left by departed workers as it dies here.
    }

    BenchJsonRecorder::instance().flush();
    return ok ? 0 : 1;
}
