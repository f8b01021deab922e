// Closed-loop driver behind the repo benchmark (see perfbench/README.md).
//
// One process: kWorkers worker threads each issue their next set operation
// only after the previous one returned; the main thread sets up, times
// fixed-length windows, reads the program's public counters at quiescent
// points and runs the correctness checks. Nothing here reaches into the
// library's internals: the driver times calls to insert/remove/contains and
// reads OrcDomain::metrics().snapshot(), asym::heavy_fences(),
// telemetry::export_json() and the allocation tracker.
//
// Output is raw facts (windows, per-window latency percentiles, counter
// snapshots, check inputs) in one JSON file; run.py and summary.py turn them
// into metrics. In a traced run the driver times every op of every window
// into a per-thread span ring, and windows alternate with the program's
// tracing on and off, so the driver's own cost is the same on both sides.
// After each traced window, with the workers parked, it keeps the newest
// kSpanRing spans per thread and dumps the program's trace rings, so both
// cover the same stretch at the end of the window.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_registry.hpp"
#include "core/orc.hpp"
#include "ds/michael_list.hpp"
#include "ds/orc/michael_list_orc.hpp"
#include "ds/orc/nm_tree_orc.hpp"
#include "reclamation/pass_the_pointer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Key = std::uint64_t;
using orcgc::Xoshiro256;

constexpr int kWorkers = 3;  // result.json's worker_tids lists exactly three
constexpr int kWindowMs = 250;
constexpr int kWarmupMs = 1000;
/// Untraced runs time one op in every (kSampleMask + 1) per thread.
constexpr std::uint64_t kSampleMask = 7;
/// Driver spans kept per thread per traced window (the newest ones).
constexpr std::size_t kSpanRing = 4096;

enum class Kind { kListOrc, kTreeOrc, kListPtp };
enum Op : std::uint8_t { kInsert = 0, kRemove = 1, kContains = 2 };

struct Workload {
    const char* name;
    Kind kind;
    Key key_range;
    int insert_pct;
    int remove_pct;
    // setup_s is the median of all set-ups of a run. A list set-up takes a
    // few milliseconds, so a stretch of them back to back samples the host's
    // speed at one instant only, and that speed drifts up to 2x over a run:
    // the lists spread theirs over the window edges. A 10^6-key tree set-up
    // takes seconds, and a second tree beside the measured one would double
    // peak RSS: the tree runs its set-ups back to back.
    /// Back-to-back set-ups of the measured structure, half before the
    /// measurement (the last of these is the one measured) and half after.
    int setups;
    /// Set-ups of a second structure, spread evenly over the window edges
    /// while the workers are parked.
    int edge_setups;
};

constexpr Workload kWorkloads[] = {
    {"list-update", Kind::kListOrc, 1000, 50, 50, 1, 40},
    {"list-read", Kind::kListOrc, 1000, 0, 0, 1, 40},
    {"tree-large", Kind::kTreeOrc, 1000000, 5, 5, 3, 0},
    {"list-update-ptp", Kind::kListPtp, 1000, 50, 50, 1, 40},
};

/// Deliberately wrong expectations, one per checker (perfbench/selftest.py).
enum class Inject { kNone, kMembership, kSize, kReclaim, kIdle };

struct Options {
    const Workload* wl = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Inject inject = Inject::kNone;
    std::string out_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --out DIR\n"
                 "       [--trace 0|1]\n"
                 "       [--inject membership|size|reclaim|idle]\n",
                 msg);
    std::exit(2);
}

[[noreturn]] void die(const std::string& what) {
    std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
    std::exit(1);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            for (const Workload& w : kWorkloads) {
                if (v == w.name) o.wl = &w;
            }
            if (o.wl == nullptr) usage(("unknown workload " + v).c_str());
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out_dir = v;
        } else if (a == "--inject") {
            if (v == "membership") o.inject = Inject::kMembership;
            else if (v == "size") o.inject = Inject::kSize;
            else if (v == "reclaim") o.inject = Inject::kReclaim;
            else if (v == "idle") o.inject = Inject::kIdle;
            else usage(("unknown --inject " + v).c_str());
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.wl == nullptr) usage("--workload is required");
    if (!(o.seconds > 0) || o.seconds > 600) usage("--seconds must be in (0, 600]");
    return o;
}

/// Independent stream per (seed, stream): SplitMix-style finalizer so that
/// neighbouring seeds and streams do not correlate.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t current_rss_bytes() {
    long pages = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
        std::fclose(f);
    }
    return static_cast<std::uint64_t>(resident) * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::string cpu_model() {
    std::string model = "unknown";
    if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
        char line[512];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::strncmp(line, "model name", 10) == 0) {
                const char* colon = std::strchr(line, ':');
                if (colon != nullptr) {
                    model = colon + 1;
                    while (!model.empty() && (model.front() == ' ')) model.erase(0, 1);
                    while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
                        model.pop_back();
                    }
                }
                break;
            }
        }
        std::fclose(f);
    }
    return model;
}

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

/// Seeded prefill: each key of the range with probability 1/2, in shuffled
/// order (ordered insertion would degenerate the external BST into a spine).
std::vector<Key> prefill_keys(const Workload& wl, std::uint64_t seed) {
    Xoshiro256 rng(stream_seed(seed, 0));
    std::vector<Key> keys;
    keys.reserve(wl.key_range / 2 + 16);
    for (Key k = 0; k < wl.key_range; ++k) {
        if (rng.next_bounded(2) == 0) keys.push_back(k);
    }
    for (std::size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_bounded(i)]);
    }
    return keys;
}

// ---- subjects: one structure plus what it reclaims into -------------------

/// The program's public counters, read at quiescent points.
struct Counters {
    orcgc::OrcMetrics::Snapshot orc;
    std::uint64_t heavy = 0;
    std::string telemetry;  // telemetry::export_json()
};

template <typename DS>
class OrcSubject {
  public:
    void create() {
        dom_ = std::make_unique<orcgc::OrcDomain>();
        // ORC_TRACE=1 starts every domain traced; only traced windows are.
        dom_->set_tracing(false);
        baseline_ = dom_->object_count();
        ds_ = std::make_unique<DS>(dom_.get());
    }
    DS& ds() { return *ds_; }
    std::int64_t baseline() const { return baseline_; }

    /// Destroys the structure (the OrcGC cascade) and returns the objects
    /// its domain still owns, then destroys the domain.
    std::int64_t destroy() {
        ds_.reset();
        const std::int64_t left = dom_->object_count();
        // A domain that still owns objects aborts on destruction; keep it
        // alive so the reclamation check reports instead.
        if (left != baseline_) (void)dom_.release();
        dom_.reset();
        return left;
    }

    void read(Counters& c) const {
        c.orc = dom_->metrics().snapshot();
        c.heavy = orcgc::asym::heavy_fences();
        c.telemetry = orcgc::telemetry::export_json();
    }
    void set_tracing(bool on) { dom_->set_tracing(on); }
    void dump_rings(std::FILE* f) const { dom_->metrics().dump_trace(f); }

  private:
    std::unique_ptr<orcgc::OrcDomain> dom_;
    std::unique_ptr<DS> ds_;
    std::int64_t baseline_ = 0;
};

/// Michael's list under the paper's manual PTP scheme. Its nodes are
/// TrackedObjects, so the allocation tracker's live count is the object
/// count the reclamation check compares.
class PtpSubject {
  public:
    using DS = orcgc::MichaelList<Key, orcgc::PassThePointer>;
    void create() {
        baseline_ = orcgc::AllocCounters::instance().live_count();
        ds_ = std::make_unique<DS>();
    }
    DS& ds() { return *ds_; }
    std::int64_t baseline() const { return baseline_; }
    std::int64_t destroy() {
        ds_.reset();
        return orcgc::AllocCounters::instance().live_count();
    }
    void read(Counters& c) const {
        c.heavy = orcgc::asym::heavy_fences();
        c.telemetry = orcgc::telemetry::export_json();
    }
    void set_tracing(bool) {}
    void dump_rings(std::FILE*) const {}

  private:
    std::unique_ptr<DS> ds_;
    std::int64_t baseline_ = 0;
};

// ---- workers --------------------------------------------------------------

struct Span {
    std::uint64_t t0;
    std::uint32_t dur;
    std::uint16_t tid;
    std::uint8_t op;
    std::uint8_t ok;
};
static_assert(sizeof(Span) == 16, "spans.bin record layout is <QIHBB");

/// Log-linear latency histogram: exact below 64 ticks, then 64 buckets per
/// power of two (under 1.6% relative width). Each worker keeps one
/// cumulative table; the main thread diffs it at window edges, so the
/// driver's memory does not grow with throughput or run length.
constexpr std::size_t kLatBuckets = 27 << 6;

std::size_t lat_bucket(std::uint32_t ticks) {
    if (ticks < 64) return ticks;
    const int e = std::bit_width(ticks) - 7;
    return 64 + (static_cast<std::size_t>(e) << 6) + ((ticks >> e) - 64);
}

/// Nearest-rank percentile of a histogram, linear inside the bucket.
double lat_percentile(const std::vector<std::uint64_t>& hist, double q) {
    std::uint64_t total = 0;
    for (std::uint64_t n : hist) total += n;
    if (total == 0) return 0;
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total)));
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < hist.size(); ++b) {
        if (hist[b] == 0) continue;
        if (static_cast<double>(before + hist[b]) >= rank) {
            if (b < 64) return static_cast<double>(b);
            const int e = static_cast<int>((b - 64) >> 6);
            const double lo = static_cast<double>(((b - 64) & 63) + 64) * std::ldexp(1.0, e);
            return lo + std::ldexp(1.0, e) * (rank - static_cast<double>(before)) /
                            static_cast<double>(hist[b]);
        }
        before += hist[b];
    }
    return 0;
}

struct alignas(64) WorkerState {
    /// Completed ops; owner-written, read by the main thread at window edges.
    std::atomic<std::uint64_t> ops{0};
    int tid = -1;
    std::uint64_t attempts[3] = {};
    std::uint64_t oks[3] = {};
    std::uint64_t mismatches = 0;
    /// Cumulative sampled-op latency histogram; owner-written, read by the
    /// main thread at window edges.
    std::array<std::atomic<std::uint32_t>, kLatBuckets> lat{};
    /// Ring of this window's newest spans; the main thread harvests it while
    /// the worker is parked.
    std::vector<Span> span_ring = std::vector<Span>(kSpanRing);
    std::uint64_t span_head = 0;
};

struct Control {
    std::atomic<bool> stop{false};
    std::atomic<bool> pause{false};
    std::atomic<int> parked{0};
    /// End of the current window of a traced run (now_tsc() ticks). Workers
    /// stop on their own at it, so the end of a traced window -- the stretch
    /// the program's trace rings still hold -- is not disturbed by the main
    /// thread waking up to pause them.
    std::atomic<std::uint64_t> deadline{~0ull};
};

/// Parked workers sleep, so they take no CPU from an edge set-up.
void park(Control& ctl) {
    ctl.parked.fetch_add(1, std::memory_order_acq_rel);
    while (ctl.pause.load(std::memory_order_acquire)) {
        ctl.pause.wait(true, std::memory_order_acquire);
    }
    ctl.parked.fetch_sub(1, std::memory_order_acq_rel);
}

/// Main-thread side: returns once every worker is parked, so everything the
/// workers wrote (op tallies, span rings, the program's trace rings) is
/// visible and stable.
void pause_workers(Control& ctl) {
    ctl.pause.store(true, std::memory_order_seq_cst);
    while (ctl.parked.load(std::memory_order_acquire) != kWorkers) std::this_thread::yield();
}

void resume_workers(Control& ctl) {
    ctl.pause.store(false, std::memory_order_release);
    ctl.pause.notify_all();
    while (ctl.parked.load(std::memory_order_acquire) != 0) std::this_thread::yield();
}

template <typename DS>
void worker_loop(DS& ds, const Workload& wl, const std::vector<std::uint8_t>* membership,
                 std::uint64_t seed, int index, bool idle, bool trace, WorkerState& st,
                 Control& ctl) {
    st.tid = orcgc::thread_id();
    Xoshiro256 rng(stream_seed(seed, 1 + static_cast<std::uint64_t>(index)));
    const int update_pct = wl.insert_pct + wl.remove_pct;
    std::uint64_t seq = 0;
    while (!ctl.stop.load(std::memory_order_relaxed)) {
        if (ctl.pause.load(std::memory_order_acquire)) {
            park(ctl);
            continue;
        }
        if (idle) {
            std::this_thread::yield();
            continue;
        }
        const Key key = rng.next_bounded(wl.key_range);
        const int roll = static_cast<int>(rng.next_bounded(100));
        const Op op = roll < wl.insert_pct ? kInsert : roll < update_pct ? kRemove : kContains;
        const bool timed = trace || (seq++ & kSampleMask) == 0;
        const std::uint64_t t0 = timed ? orcgc::telemetry::now_tsc() : 0;
        if (trace && t0 >= ctl.deadline.load(std::memory_order_relaxed)) {
            while (!ctl.pause.load(std::memory_order_acquire)) std::this_thread::yield();
            continue;
        }
        bool ok = false;
        switch (op) {
            case kInsert: ok = ds.insert(key); break;
            case kRemove: ok = ds.remove(key); break;
            case kContains: ok = ds.contains(key); break;
        }
        if (timed) {
            const std::uint64_t t1 = orcgc::telemetry::now_tsc();
            const auto ticks = static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, ~0u));
            if (trace) {
                st.span_ring[st.span_head++ % kSpanRing] =
                    Span{t0, ticks, static_cast<std::uint16_t>(st.tid), op,
                         static_cast<std::uint8_t>(ok ? 1 : 0)};
            } else {
                std::atomic<std::uint32_t>& n = st.lat[lat_bucket(ticks)];
                n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
            }
        }
        ++st.attempts[op];
        st.oks[op] += ok ? 1 : 0;
        if (membership != nullptr && ok != ((*membership)[key] != 0)) ++st.mismatches;
        st.ops.store(st.ops.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    }
}

// ---- the run ----------------------------------------------------------------

struct Window {
    bool traced = false;
    double secs = 0;
    std::uint64_t ops = 0;
    std::uint64_t t0_tsc = 0;
    std::uint64_t t1_tsc = 0;
    double p50_ticks = 0;
    double p99_ticks = 0;
    std::size_t samples = 0;
};

std::uint64_t total_ops(const std::vector<std::unique_ptr<WorkerState>>& ws) {
    std::uint64_t n = 0;
    for (const auto& w : ws) n += w->ops.load(std::memory_order_relaxed);
    return n;
}

/// All workers' latency samples since the previous call (prev holds the
/// cumulative tables as last read).
std::vector<std::uint64_t> lat_since(const std::vector<std::unique_ptr<WorkerState>>& ws,
                                     std::vector<std::uint32_t>& prev) {
    std::vector<std::uint64_t> merged(kLatBuckets, 0);
    for (std::size_t i = 0; i < ws.size(); ++i) {
        for (std::size_t b = 0; b < kLatBuckets; ++b) {
            const std::uint32_t now = ws[i]->lat[b].load(std::memory_order_relaxed);
            merged[b] += now - prev[i * kLatBuckets + b];
            prev[i * kLatBuckets + b] = now;
        }
    }
    return merged;
}

void write_counters(std::FILE* f, const Counters& c) {
    const auto& o = c.orc;
    std::fprintf(f,
                 "{\"heavy_fences\": %llu, \"retired\": %llu, \"freed_batch\": %llu, "
                 "\"freed_slow\": %llu, \"scans\": %llu, \"snapshots\": %llu, "
                 "\"slots_scanned\": %llu, \"handovers\": %llu, \"cascades\": %llu, "
                 "\"shard_pushes\": %llu, \"items_stolen\": %llu, \"bg_wakes\": %llu, "
                 "\"peak_unreclaimed\": %llu, \"retire_free_age\": [",
                 (unsigned long long)c.heavy, (unsigned long long)o.retired,
                 (unsigned long long)o.freed_batch, (unsigned long long)o.freed_slow,
                 (unsigned long long)o.scans, (unsigned long long)o.snapshots,
                 (unsigned long long)o.slots_scanned, (unsigned long long)o.handovers,
                 (unsigned long long)o.cascades, (unsigned long long)o.shard_pushes,
                 (unsigned long long)o.items_stolen, (unsigned long long)o.bg_wakes,
                 (unsigned long long)o.peak_unreclaimed);
    for (int b = 0; b < orcgc::telemetry::HistogramSnapshot::kBuckets; ++b) {
        std::fprintf(f, "%s%llu", b == 0 ? "" : ", ",
                     (unsigned long long)o.retire_free_age.buckets[b]);
    }
    std::fprintf(f, "], \"telemetry\": %s}", c.telemetry.c_str());
}

template <typename Subject>
int run(const Options& opt) {
    const Workload& wl = *opt.wl;
    const double cal_s0 = now_s();
    const std::uint64_t cal_t0 = orcgc::telemetry::now_tsc();

    const std::vector<Key> keys = prefill_keys(wl, opt.seed);
    std::vector<std::uint8_t> membership(wl.key_range, 0);
    for (Key k : keys) membership[k] = 1;
    if (opt.inject == Inject::kMembership) membership[opt.seed % wl.key_range] ^= 1;
    const bool read_only = wl.insert_pct + wl.remove_pct == 0;

    // Set-up: domain creation plus prefill.
    Subject subject, edge_subject;
    std::vector<double> setup_s, teardown_s;
    double bytes_per_key = 0;
    std::uint64_t prefill_failed = 0;
    std::uint64_t leaked_setups = 0;
    auto set_up = [&](Subject& target) {
        const double t0 = now_s();
        target.create();
        const std::uint64_t rss0 = current_rss_bytes();
        for (Key k : keys) prefill_failed += target.ds().insert(k) ? 0 : 1;
        setup_s.push_back(now_s() - t0);
        if (setup_s.size() == 1) {
            const std::uint64_t rss1 = current_rss_bytes();
            if (!keys.empty() && rss1 > rss0) {
                bytes_per_key =
                    static_cast<double>(rss1 - rss0) / static_cast<double>(keys.size());
            }
        }
    };
    // Destroys the structure; returns the objects left over.
    auto tear_down = [&](Subject& target) {
        const double t0 = now_s();
        const std::int64_t left = target.destroy();
        teardown_s.push_back(now_s() - t0);
        return left;
    };
    const int setups_before = (wl.setups + 1) / 2;
    for (int s = 0; s < setups_before; ++s) {
        if (s > 0 && tear_down(subject) != subject.baseline()) ++leaked_setups;
        set_up(subject);
    }
    // asym::heavy_fences() counts process-wide; the edge set-ups' fences
    // are kept out of the measured windows' count.
    std::uint64_t edge_heavy_fences = 0;

    Control ctl;
    std::vector<std::unique_ptr<WorkerState>> ws;
    for (int i = 0; i < kWorkers; ++i) ws.push_back(std::make_unique<WorkerState>());
    const int n_windows = std::max(1, static_cast<int>(opt.seconds * 1000.0 / kWindowMs + 0.5));
    std::vector<std::uint32_t> lat_prev(ws.size() * kLatBuckets, 0);

    const std::string dir = opt.out_dir + "/";
    std::FILE* rings = opt.trace ? std::fopen((dir + "rings.jsonl").c_str(), "w") : nullptr;
    if (opt.trace && rings == nullptr) die("cannot write " + dir + "rings.jsonl");

    std::vector<std::thread> threads;
    for (int i = 0; i < kWorkers; ++i) {
        threads.emplace_back(worker_loop<std::remove_reference_t<decltype(subject.ds())>>,
                             std::ref(subject.ds()), std::cref(wl),
                             read_only ? &membership : nullptr, opt.seed, i,
                             opt.inject == Inject::kIdle, opt.trace, std::ref(*ws[i]),
                             std::ref(ctl));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));

    std::vector<Span> spans;

    pause_workers(ctl);
    Counters start;
    subject.read(start);
    const std::uint64_t ops_start = total_ops(ws);

    std::vector<Window> windows(static_cast<std::size_t>(n_windows));
    const double est_ticks_per_ns = static_cast<double>(orcgc::telemetry::now_tsc() - cal_t0) /
                                    ((now_s() - cal_s0) * 1e9);
    for (int i = 0; i < n_windows; ++i) {
        Window& w = windows[static_cast<std::size_t>(i)];
        // Traced runs alternate windows with the program's tracing on and
        // off, so the tracing overhead is a paired comparison inside one
        // process. Both kinds run the same driver code: every op timed into
        // the span ring, workers stopping themselves at the deadline.
        w.traced = opt.trace && i % 2 == 0;
        if (opt.trace) {
            subject.set_tracing(w.traced);
            for (auto& s : ws) s->span_head = 0;
        }
        const std::uint64_t ops0 = total_ops(ws);
        (void)lat_since(ws, lat_prev);
        const double s0 = now_s();
        w.t0_tsc = orcgc::telemetry::now_tsc();
        if (opt.trace) {
            const double ticks = kWindowMs * 1e6 * est_ticks_per_ns;
            w.t1_tsc = w.t0_tsc + static_cast<std::uint64_t>(ticks);
            ctl.deadline.store(w.t1_tsc, std::memory_order_relaxed);
        }
        resume_workers(ctl);
        // In a traced run the workers stop at the deadline; this thread
        // wakes 1 ms later, once they have.
        std::this_thread::sleep_for(
            std::chrono::microseconds(kWindowMs * 1000 + (opt.trace ? 1000 : 0)));
        if (!opt.trace) {
            w.ops = total_ops(ws) - ops0;
            w.t1_tsc = orcgc::telemetry::now_tsc();
            w.secs = now_s() - s0;
            const std::vector<std::uint64_t> lat = lat_since(ws, lat_prev);
            for (std::uint64_t n : lat) w.samples += n;
            w.p50_ticks = lat_percentile(lat, 0.50);
            w.p99_ticks = lat_percentile(lat, 0.99);
        }
        pause_workers(ctl);
        if (opt.trace) {
            w.ops = total_ops(ws) - ops0;
            w.secs = kWindowMs / 1e3;
        }
        if (w.traced) {
            std::fprintf(rings, "{\"window\": %d}\n", i);
            subject.dump_rings(rings);
            for (auto& s : ws) {
                const std::uint64_t n = std::min<std::uint64_t>(s->span_head, kSpanRing);
                for (std::uint64_t k = s->span_head - n; k < s->span_head; ++k) {
                    spans.push_back(s->span_ring[k % kSpanRing]);
                }
            }
        }
        const int edge_setups =
            (i + 1) * wl.edge_setups / n_windows - i * wl.edge_setups / n_windows;
        for (int k = 0; k < edge_setups; ++k) {
            const std::uint64_t heavy0 = orcgc::asym::heavy_fences();
            set_up(edge_subject);
            if (tear_down(edge_subject) != edge_subject.baseline()) ++leaked_setups;
            edge_heavy_fences += orcgc::asym::heavy_fences() - heavy0;
        }
    }
    subject.set_tracing(false);
    Counters end;
    subject.read(end);
    const std::uint64_t ops_end = total_ops(ws);
    ctl.stop.store(true, std::memory_order_relaxed);
    resume_workers(ctl);
    for (auto& t : threads) t.join();
    if (rings != nullptr) std::fclose(rings);

    // Checks. Update workloads: prefill + successful inserts - successful
    // removes must equal the final size, counted by a key-range sweep.
    std::uint64_t attempts[3] = {}, oks[3] = {}, mismatches = 0;
    for (const auto& s : ws) {
        for (int k = 0; k < 3; ++k) {
            attempts[k] += s->attempts[k];
            oks[k] += s->oks[k];
        }
        mismatches += s->mismatches;
    }
    std::int64_t expected_size = static_cast<std::int64_t>(keys.size()) +
                                 static_cast<std::int64_t>(oks[kInsert]) -
                                 static_cast<std::int64_t>(oks[kRemove]);
    if (opt.inject == Inject::kSize) expected_size += 1;
    std::int64_t final_size = 0;
    for (Key k = 0; k < wl.key_range; ++k) final_size += subject.ds().contains(k) ? 1 : 0;

    std::int64_t objects_before = subject.baseline();
    if (opt.inject == Inject::kReclaim) objects_before -= 1;
    const std::int64_t objects_after = tear_down(subject);
    for (int s = setups_before; s < wl.setups; ++s) {
        set_up(subject);
        if (tear_down(subject) != subject.baseline()) ++leaked_setups;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cal_s1 = now_s();
    const std::uint64_t cal_t1 = orcgc::telemetry::now_tsc();
    const double ticks_per_ns = static_cast<double>(cal_t1 - cal_t0) / ((cal_s1 - cal_s0) * 1e9);

    if (opt.trace) {
        std::FILE* f = std::fopen((dir + "spans.bin").c_str(), "wb");
        if (f == nullptr) die("cannot write " + dir + "spans.bin");
        std::fwrite(spans.data(), sizeof(Span), spans.size(), f);
        std::fclose(f);
    }

    std::FILE* f = std::fopen((dir + "result.json").c_str(), "w");
    if (f == nullptr) die("cannot write " + dir + "result.json");
    utsname un{};
    uname(&un);
    std::fprintf(f, "{\n\"config\": {\"workload\": %s, \"seed\": %llu, \"threads\": %d, "
                    "\"seconds\": %g, \"window_ms\": %d, \"warmup_ms\": %d, \"trace\": %s, "
                    "\"asym_mode\": %s, \"telemetry\": %s, \"build_type\": %s, \"nproc\": %ld, "
                    "\"cpu\": %s, \"kernel\": %s, \"sample_every\": %llu, "
                    "\"span_ring\": %zu, \"trace_ring\": %zu, \"worker_tids\": [%d, %d, %d]},\n",
                 json_str(wl.name).c_str(), (unsigned long long)opt.seed, kWorkers, opt.seconds,
                 kWindowMs, kWarmupMs, opt.trace ? "true" : "false",
                 json_str(orcgc::asym::mode_name(orcgc::asym::mode())).c_str(),
                 orcgc::telemetry::kTelemetryEnabled ? "\"ON\"" : "\"OFF\"",
                 json_str(PERFBENCH_BUILD_TYPE).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                 json_str(cpu_model()).c_str(),
                 json_str(std::string(un.sysname) + " " + un.release).c_str(),
                 (unsigned long long)(kSampleMask + 1), kSpanRing,
                 orcgc::OrcMetrics::kTraceCapacity, ws[0]->tid, ws[1]->tid, ws[2]->tid);
    std::fprintf(f, "\"ticks_per_ns\": %.9f, \"edge_heavy_fences\": %llu,\n", ticks_per_ns,
                 (unsigned long long)edge_heavy_fences);
    auto write_list = [f](const char* name, const std::vector<double>& v) {
        std::fprintf(f, "\"%s\": [", name);
        for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, "%s%.9f", i ? ", " : "", v[i]);
        std::fprintf(f, "],\n");
    };
    write_list("setup_s", setup_s);
    write_list("teardown_s", teardown_s);
    std::fprintf(f, "\"prefill_keys\": %zu, \"bytes_per_key\": %.3f, \"peak_rss_kb\": %ld,\n",
                 keys.size(), bytes_per_key, ru.ru_maxrss);
    std::fprintf(f, "\"windows\": [\n");
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const Window& w = windows[i];
        std::fprintf(f,
                     "  {\"traced\": %s, \"secs\": %.9f, \"ops\": %llu, \"t0_tsc\": %llu, "
                     "\"t1_tsc\": %llu, \"p50_ticks\": %.3f, \"p99_ticks\": %.3f, "
                     "\"samples\": %zu}%s\n",
                     w.traced ? "true" : "false", w.secs, (unsigned long long)w.ops,
                     (unsigned long long)w.t0_tsc, (unsigned long long)w.t1_tsc, w.p50_ticks,
                     w.p99_ticks, w.samples, i + 1 < windows.size() ? "," : "");
    }
    std::fprintf(f, "],\n");
    std::fprintf(f,
                 "\"ops\": {\"measured\": %llu, \"insert\": %llu, \"insert_ok\": %llu, "
                 "\"remove\": %llu, \"remove_ok\": %llu, \"contains\": %llu, "
                 "\"contains_ok\": %llu},\n",
                 (unsigned long long)(ops_end - ops_start), (unsigned long long)attempts[kInsert],
                 (unsigned long long)oks[kInsert], (unsigned long long)attempts[kRemove],
                 (unsigned long long)oks[kRemove], (unsigned long long)attempts[kContains],
                 (unsigned long long)oks[kContains]);
    std::fprintf(f,
                 "\"checks\": {\"read_only\": %s, \"membership_mismatches\": %llu, "
                 "\"expected_size\": %lld, \"final_size\": %lld, \"objects_before\": %lld, "
                 "\"objects_after\": %lld, \"leaked_setups\": %llu, \"prefill_failed\": %llu},\n",
                 read_only ? "true" : "false", (unsigned long long)mismatches,
                 (long long)expected_size, (long long)final_size, (long long)objects_before,
                 (long long)objects_after, (unsigned long long)leaked_setups,
                 (unsigned long long)prefill_failed);
    std::fprintf(f, "\"counters_start\": ");
    write_counters(f, start);
    std::fprintf(f, ",\n\"counters_end\": ");
    write_counters(f, end);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    switch (opt.wl->kind) {
        case Kind::kListOrc: return run<OrcSubject<orcgc::MichaelListOrc<Key>>>(opt);
        case Kind::kTreeOrc: return run<OrcSubject<orcgc::NMTreeOrc<Key>>>(opt);
        case Kind::kListPtp: return run<PtpSubject>(opt);
    }
    return 2;
}
