// Always-on reclamation telemetry: the primitives and the process registry.
//
// The paper's whole evaluation (§5) is about internals — peak unreclaimed
// objects, scan cost, handover chains — yet until this layer existed those
// quantities were only visible under a compile-time macro, and only for the
// OrcGC engine. This header provides the building blocks every reclamation
// scheme reports through:
//
//   PerThreadCounters<N>  cacheline-padded per-thread relaxed counters;
//                         writes are a single uncontended fetch_add on the
//                         owner's line, reads aggregate across the thread-id
//                         watermark. Cheap enough to leave on in release
//                         builds (the bench-smoke CI job gates the overhead).
//   LogHistogram          lock-free log2-bucketed histogram: record() is ONE
//                         relaxed fetch_add (bucket index = std::bit_width).
//                         Count is derived from the buckets, so there is no
//                         second shared counter on the record path.
//   TraceRing             per-thread fixed-capacity event ring. Off by
//                         default; when enabled every record is three relaxed
//                         atomic stores, so concurrent readers may see a
//                         record mid-overwrite as a MIX of old and new events
//                         but never a torn field (each field is a single
//                         atomic). Readers are expected to snapshot at
//                         quiescence (exit dump, test join points).
//   MetricProvider        the interface OrcMetrics and SchemeMetrics
//                         implement; a process-wide registry collects every
//                         live provider and folds the counters of destroyed
//                         ones, so short-lived domains and scheme instances
//                         still show up in the exit dump.
//
// Exporters (telemetry.cpp): export_json() emits the "orcgc-telemetry-v1"
// object the bench harness merges into its --json output; export_prometheus()
// emits Prometheus text exposition. Environment:
//
//   ORC_TRACE=1              enable event tracing on every new OrcDomain
//   ORC_TRACE_DUMP=<path>    write the trace rings as JSONL at process exit
//   ORC_TELEMETRY_JSON=<path> write the telemetry JSON at process exit
//   ORC_TELEMETRY_PROM=<path> write Prometheus text at process exit
//   ORC_TELEMETRY_DUMP_MS=<n> additionally rewrite the exit-dump files every
//                            n ms from a background thread (orc_top --watch)
//
// Compile-time off switch: -DORCGC_TELEMETRY_DISABLED (CMake
// -DORCGC_TELEMETRY=OFF) turns every primitive into a no-op and shrinks the
// storage to one block. That build exists ONLY to measure the cost of the
// always-on counters (tools/telemetry_overhead.py); scheme unreclaimed
// counts read as zero there and the test suite does not support it.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "common/thread_registry.hpp"

namespace orcgc {
namespace telemetry {

#ifdef ORCGC_TELEMETRY_DISABLED
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

/// Timestamp source for trace records: raw TSC where available (one
/// instruction, no serialization — events on one thread are ordered, across
/// threads only approximately), steady_clock ticks elsewhere.
inline std::uint64_t now_tsc() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Sanctioned timestamp source for retire→free age stamps in the engine and
/// the manual schemes. orc-lint rule R13 confines raw timing calls (rdtsc,
/// clock_gettime, steady_clock::now) to this header and orc_metrics.hpp, so
/// every age measured anywhere in the tree shares one clock — the same
/// coarse tsc the trace rings timestamp with.
inline std::uint64_t coarse_now() noexcept {
    if constexpr (kTelemetryEnabled) {
        return now_tsc();
    } else {
        return 0;
    }
}

/// Wall-clock monotonic nanoseconds, for coarse pacing decisions (e.g. the
/// stalled-reader watchdog's sampling interval). Unlike now_tsc()/coarse_now()
/// this is comparable across threads and convertible to human time, at the
/// cost of a vDSO call — callers must already be off the per-op fast path.
/// Lives here because R13 confines raw clock reads to the telemetry layer.
inline std::uint64_t monotonic_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Retire→free ages are SAMPLED, not exhaustive: stampers take one
/// coarse_now() reading per (kAgeSampleMask + 1) retires per thread, and
/// only stamped objects record an age at free. Two rdtsc reads per object
/// lifecycle is real money on a sub-microsecond retire/free op (it blew the
/// 2% telemetry budget on the churn benches); a uniform 1-in-64 per-thread
/// sample keeps the percentiles sound — every sampled age is still measured
/// at full clock resolution at both ends — while the unsampled fast path
/// pays a counter increment at retire and a load + predicted branch at free.
inline constexpr std::uint32_t kAgeSampleMask = 63;

/// Sentinel carried instead of an age when the freed object was never
/// stamped (not sampled, telemetry off, or allocated behind the engine's
/// back). Sinks must drop it, NOT record it — folding unsampled frees into
/// bucket 0 would crush the percentiles toward zero.
inline constexpr std::uint64_t kNoAge = ~0ull;

// ---- counters -------------------------------------------------------------

/// N per-thread relaxed counters on a private cache line per thread.
/// add() is owner-thread only; sum()/drain() may run on any thread.
template <int N>
class PerThreadCounters {
  public:
    /// Owner-thread increment. Returns the new per-thread value (callers use
    /// it to subsample expensive derived updates, e.g. peak refresh).
    std::uint64_t add(int c, std::uint64_t n = 1) noexcept {
        if constexpr (kTelemetryEnabled) {
            return tl_[thread_id()].c[c].fetch_add(n, std::memory_order_relaxed) + n;
        } else {
            (void)c;
            return n;
        }
    }

    /// Aggregate across every thread that ever registered. A sum that races
    /// with add() sees each increment either fully or not at all (each is one
    /// relaxed RMW), so reads are monotonic per thread and never torn.
    std::uint64_t sum(int c) const noexcept {
        if constexpr (!kTelemetryEnabled) {
            (void)c;
            return 0;
        }
        std::uint64_t total = 0;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            total += tl_[it].c[c].load(std::memory_order_relaxed);
        }
        return total;
    }

    /// Atomically takes every thread's count, leaving zero behind. Lossless
    /// against concurrent add(): each increment lands either in this drain's
    /// return value or in a later read, never both, never neither.
    std::uint64_t drain(int c) noexcept {
        if constexpr (!kTelemetryEnabled) {
            (void)c;
            return 0;
        }
        std::uint64_t total = 0;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            total += tl_[it].c[c].exchange(0, std::memory_order_relaxed);
        }
        return total;
    }

  private:
    struct alignas(kCacheLineSize) Block {
        std::atomic<std::uint64_t> c[N] = {};
    };
    Block tl_[kTelemetryEnabled ? kMaxThreads : 1];
};

// ---- histograms -----------------------------------------------------------

/// Point-in-time histogram contents, mergeable. Bucket b holds the count of
/// recorded values v with std::bit_width(v) == b: bucket 0 is exactly {0},
/// bucket b >= 1 covers [2^(b-1), 2^b - 1].
struct HistogramSnapshot {
    static constexpr int kBuckets = 65;

    std::uint64_t buckets[kBuckets] = {};

    /// Smallest value a bucket accepts (0 for bucket 0).
    static constexpr std::uint64_t bucket_lower(int b) noexcept {
        return b <= 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /// Largest value a bucket accepts.
    static constexpr std::uint64_t bucket_upper(int b) noexcept {
        if (b <= 0) return 0;
        if (b >= 64) return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    std::uint64_t count() const noexcept {
        std::uint64_t total = 0;
        for (std::uint64_t b : buckets) total += b;
        return total;
    }

    void merge(const HistogramSnapshot& other) noexcept {
        for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
    }

    /// Bucket-wise clamped subtraction: turns two cumulative reads into an
    /// interval delta (bench series isolate their own retire→free ages this
    /// way).
    void subtract(const HistogramSnapshot& other) noexcept {
        for (int b = 0; b < kBuckets; ++b) {
            buckets[b] -= other.buckets[b] < buckets[b] ? other.buckets[b] : buckets[b];
        }
    }

    /// Estimated value at quantile q in [0, 1] (0.5 = p50, 0.999 = p999),
    /// linearly interpolated inside the log2 bucket the rank falls in —
    /// within a bucket, recorded values are assumed uniform over
    /// [lower, upper]. q = 0 reads as the smallest recorded bucket's lower
    /// bound, q = 1 as the largest bucket's upper bound; an empty histogram
    /// returns 0.
    double percentile(double q) const noexcept {
        const std::uint64_t total = count();
        if (total == 0) return 0.0;
        if (q < 0.0) q = 0.0;
        if (q > 1.0) q = 1.0;
        const double rank = q * static_cast<double>(total);
        std::uint64_t cum = 0;
        for (int b = 0; b < kBuckets; ++b) {
            if (buckets[b] == 0) continue;
            const std::uint64_t before = cum;
            cum += buckets[b];
            if (static_cast<double>(cum) < rank) continue;
            const double lower = static_cast<double>(bucket_lower(b));
            const double upper = static_cast<double>(bucket_upper(b));
            const double f =
                (rank - static_cast<double>(before)) / static_cast<double>(buckets[b]);
            return lower + f * (upper - lower);
        }
        return static_cast<double>(bucket_upper(kBuckets - 1));
    }
};

/// Lock-free log2-bucketed histogram. record() is one relaxed fetch_add on
/// the bucket — no shared count/sum cell, so the record path stays a single
/// RMW even under contention. Means reported by the exporters are estimated
/// from bucket midpoints.
class LogHistogram {
  public:
    static constexpr int kBuckets = HistogramSnapshot::kBuckets;

    static constexpr int bucket_of(std::uint64_t v) noexcept { return std::bit_width(v); }

    /// Smallest value a bucket accepts (0 for bucket 0).
    static constexpr std::uint64_t bucket_lower(int b) noexcept {
        return HistogramSnapshot::bucket_lower(b);
    }

    /// Largest value a bucket accepts.
    static constexpr std::uint64_t bucket_upper(int b) noexcept {
        return HistogramSnapshot::bucket_upper(b);
    }

    void record(std::uint64_t v) noexcept {
        if constexpr (kTelemetryEnabled) {
            buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        } else {
            (void)v;
        }
    }

    /// record() for single-writer histograms (e.g. one per ThreadBlock): a
    /// plain load+store instead of a locked RMW. Concurrent record_owner()
    /// calls would lose increments — callers guarantee exclusivity.
    void record_owner(std::uint64_t v) noexcept {
        if constexpr (kTelemetryEnabled) {
            auto& b = buckets_[bucket_of(v)];
            b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        } else {
            (void)v;
        }
    }

    /// Adds the current contents into `out` (relaxed reads; exact once the
    /// writers are quiescent).
    void read_into(HistogramSnapshot& out) const noexcept {
        if constexpr (!kTelemetryEnabled) {
            (void)out;
            return;
        }
        for (int b = 0; b < kBuckets; ++b) {
            out.buckets[b] += buckets_[b].load(std::memory_order_relaxed);
        }
    }

    /// Takes the current contents into `out`, leaving zeros. Lossless against
    /// concurrent record() (per-bucket exchange).
    void drain_into(HistogramSnapshot& out) noexcept {
        if constexpr (!kTelemetryEnabled) {
            (void)out;
            return;
        }
        for (int b = 0; b < kBuckets; ++b) {
            out.buckets[b] += buckets_[b].exchange(0, std::memory_order_relaxed);
        }
    }

  private:
    std::atomic<std::uint64_t> buckets_[kTelemetryEnabled ? kBuckets : 1] = {};
};

// ---- event tracing --------------------------------------------------------

enum class TraceType : std::uint8_t {
    kRetire = 1,    ///< retire token taken for an object
    kScanBegin = 2, ///< per-object hp scan started
    kScanEnd = 3,   ///< per-object hp scan finished (arg = slots visited)
    kHandover = 4,  ///< object parked on another thread's handover slot
    kFree = 5,      ///< object deleted (arg = 1 if proven by a batch snapshot)
    kDrain = 6,     ///< parked object taken out of a handover slot
    kSpanBegin = 9, ///< a TraceSpan opened (arg = SpanKind)
    kSpanEnd = 10,  ///< a TraceSpan closed (arg = SpanKind, obj = items payload)
};

inline const char* trace_type_name(TraceType t) noexcept {
    switch (t) {
        case TraceType::kRetire: return "retire";
        case TraceType::kScanBegin: return "scan_begin";
        case TraceType::kScanEnd: return "scan_end";
        case TraceType::kHandover: return "handover";
        case TraceType::kFree: return "free";
        case TraceType::kDrain: return "drain";
        case TraceType::kSpanBegin: return "span_begin";
        case TraceType::kSpanEnd: return "span_end";
    }
    return "?";
}

/// What a kSpanBegin/kSpanEnd pair timed (the records' arg field). Kept in
/// sync with tools/orc_trace.py, which names the Chrome-trace slices. The
/// values are a wire format (readers decode spans by number), so retired
/// kinds leave gaps rather than renumbering.
enum class SpanKind : std::uint8_t {
    kScanGeneration = 1, ///< one direction-swapped walk-park generation
    kHeavyFence = 5,     ///< one scan-entry asym::heavy() (membarrier) call
};

inline const char* span_kind_name(SpanKind k) noexcept {
    switch (k) {
        case SpanKind::kScanGeneration: return "scan_generation";
        case SpanKind::kHeavyFence: return "heavy_fence";
    }
    return "?";
}

/// One decoded trace event (reader-side representation).
struct TraceRecord {
    std::uint64_t tsc = 0;
    TraceType type = TraceType::kRetire;
    std::uint64_t obj = 0;
    std::uint64_t arg = 0;
};

/// Fixed-capacity single-writer event ring. The owner thread records; any
/// thread may snapshot. Every stored field is an individual relaxed atomic,
/// so records are never torn at the field level; a snapshot that races with
/// a wrap may pair fields from adjacent events (best-effort by design — the
/// supported read points are quiescent). Storage is allocated by reserve()
/// before the tracing flag is raised; record() on an unreserved ring is a
/// no-op.
class TraceRing {
  public:
    /// Allocates capacity once. Callers publish the ring to the owner thread
    /// with a release store of the tracing flag AFTER this returns.
    void reserve(std::size_t capacity) {
        if (capacity == 0 || buf_ != nullptr) return;
        buf_ = std::make_unique<Slot[]>(capacity);
        cap_ = capacity;
    }

    bool reserved() const noexcept { return buf_ != nullptr; }

    /// Owner-thread append. tsc and type share one word (tsc << 8 | type):
    /// one fewer store, and a reader can never pair a type with a timestamp
    /// from a different record.
    void record(TraceType type, const void* obj, std::uint64_t arg) noexcept {
        if (cap_ == 0) return;
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        Slot& s = buf_[h % cap_];
        s.tsc_type.store((now_tsc() << 8) | static_cast<std::uint64_t>(type),
                         std::memory_order_relaxed);
        s.obj.store(reinterpret_cast<std::uint64_t>(obj), std::memory_order_relaxed);
        s.arg.store(arg, std::memory_order_relaxed);
        head_.store(h + 1, std::memory_order_release);
    }

    /// Total records ever written (monotonic).
    std::uint64_t written() const noexcept { return head_.load(std::memory_order_acquire); }

    /// Decodes the last min(written, capacity) records, oldest first.
    std::vector<TraceRecord> snapshot() const {
        std::vector<TraceRecord> out;
        if (cap_ == 0) return out;
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        const std::uint64_t n = h < cap_ ? h : cap_;
        out.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = h - n; i < h; ++i) {
            const Slot& s = buf_[i % cap_];
            const std::uint64_t tt = s.tsc_type.load(std::memory_order_relaxed);
            TraceRecord r;
            r.tsc = tt >> 8;
            r.type = static_cast<TraceType>(tt & 0xff);
            r.obj = s.obj.load(std::memory_order_relaxed);
            r.arg = s.arg.load(std::memory_order_relaxed);
            out.push_back(r);
        }
        return out;
    }

  private:
    struct Slot {
        std::atomic<std::uint64_t> tsc_type{0};
        std::atomic<std::uint64_t> obj{0};
        std::atomic<std::uint64_t> arg{0};
    };

    std::unique_ptr<Slot[]> buf_;
    std::size_t cap_ = 0;
    std::atomic<std::uint64_t> head_{0};
};

/// Scoped begin/end pair in a TraceRing: construction records kSpanBegin,
/// destruction kSpanEnd, both carrying the SpanKind as arg so the exporter
/// can pair them per thread (tools/orc_trace.py turns the pairs into Chrome
/// trace-event B/E slices, one track per tid). A null ring makes the whole
/// object a no-op — callers resolve the ring once through their metrics
/// handle (null while tracing is off), so an idle span costs one pointer
/// test per end.
class TraceSpan {
  public:
    TraceSpan(TraceRing* ring, SpanKind kind) noexcept : ring_(ring), kind_(kind) {
        if (ring_ != nullptr) {
            ring_->record(TraceType::kSpanBegin, nullptr,
                          static_cast<std::uint64_t>(kind_));
        }
    }
    ~TraceSpan() {
        if (ring_ != nullptr) {
            ring_->record(TraceType::kSpanEnd,
                          reinterpret_cast<const void*>(static_cast<std::uintptr_t>(items_)),
                          static_cast<std::uint64_t>(kind_));
        }
    }
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /// Payload for the end record's obj field (objects drained, items
    /// stolen, ... — whatever the span's work unit counts).
    void note_items(std::uint64_t n) noexcept { items_ = n; }

  private:
    TraceRing* const ring_;
    const SpanKind kind_;
    std::uint64_t items_ = 0;
};

// ---- provider interface and registry --------------------------------------

/// The counter subset every reclamation scheme reports, making schemes
/// directly comparable (the quantities Table 1 bounds):
///   retired           objects handed to the scheme for reclamation
///   freed             objects actually deleted
///   peak_unreclaimed  high-water mark of retired-but-not-freed (sampled)
///   scans             reclamation passes over the protection state
struct CommonCounters {
    std::uint64_t retired = 0;
    std::uint64_t freed = 0;
    std::uint64_t peak_unreclaimed = 0;
    std::uint64_t scans = 0;

    void merge(const CommonCounters& other) noexcept {
        retired += other.retired;
        freed += other.freed;
        scans += other.scans;
        if (other.peak_unreclaimed > peak_unreclaimed) {
            peak_unreclaimed = other.peak_unreclaimed;
        }
    }
};

/// Visitor the exporters hand to MetricProvider::visit_extras(). On merge
/// (same-name sources, live + accumulated), counters add, gauges take the
/// max, histograms merge bucket-wise — pick the verb accordingly.
class MetricSink {
  public:
    virtual void counter(const char* name, std::uint64_t value) = 0;
    virtual void gauge(const char* name, std::uint64_t value) = 0;
    virtual void histogram(const char* name, const HistogramSnapshot& h) = 0;

  protected:
    ~MetricSink() = default;
};

/// A telemetry source. Implementations register with the process registry on
/// construction and unregister on destruction; unregistering folds a final
/// dump into per-name accumulated totals so the exit export still covers
/// sources that died mid-run.
class MetricProvider {
  public:
    virtual const char* telemetry_name() const noexcept = 0;
    virtual CommonCounters common_counters() const = 0;
    virtual void visit_extras(MetricSink& sink) const { (void)sink; }
    /// Writes any trace rings as JSONL rows (OrcMetrics overrides this).
    virtual void dump_trace(std::FILE* out) const { (void)out; }

  protected:
    ~MetricProvider() = default;
};

// Registry operations (definitions in telemetry.cpp). The registry is a
// function-local static constructed on first registration, hence destroyed
// after the last provider that registered through it — including the global
// domain's OrcMetrics during static teardown.
void register_provider(MetricProvider* provider);
void unregister_provider(MetricProvider* provider);

/// Forces registry construction NOW. Any object whose destructor exports
/// (export_json/export_prometheus at static-teardown time) must call this in
/// its constructor: the registry is destroyed in reverse construction order,
/// so an exporter constructed before it would outlive it and read a
/// destroyed map (a real bench_publish_ablation teardown use-after-free —
/// see BenchJsonRecorder).
void touch();

/// True when the ORC_TRACE environment variable requests event tracing
/// (consulted by OrcMetrics at domain construction).
bool trace_requested();

/// The full registry state (live + accumulated) as an
/// "orcgc-telemetry-v1" JSON object / Prometheus text exposition.
std::string export_json();
std::string export_prometheus();

// ---- scheme-side provider -------------------------------------------------

/// The MetricProvider for the manual baseline schemes (HP, PTB, EBR, HE,
/// IBR, PTP, None): the common counter subset and nothing else. Embed one
/// per scheme instance and call the note_* hooks from retire/scan/delete
/// sites; unreclaimed() replaces the per-slot ad-hoc atomic counters the
/// schemes used to keep (orc-lint rule R8 now rejects those).
class SchemeMetrics final : public MetricProvider {
  public:
    explicit SchemeMetrics(const char* name) : name_(name) {
        if constexpr (kTelemetryEnabled) register_provider(this);
    }
    ~SchemeMetrics() {
        if constexpr (kTelemetryEnabled) unregister_provider(this);
    }
    SchemeMetrics(const SchemeMetrics&) = delete;
    SchemeMetrics& operator=(const SchemeMetrics&) = delete;

    void note_retired(std::uint64_t n = 1) noexcept {
        const std::uint64_t mine = counters_.add(kRetired, n);
        // Subsampled peak refresh: the aggregate walk costs 2 loads per
        // registered thread, so amortize it over 64 per-thread retires (scan
        // entry points also refresh — see note_scan — which catches the
        // buffer-full maxima the subsample might straddle).
        if constexpr (kTelemetryEnabled) {
            if ((mine & 63) < n) refresh_peak();
        }
    }
    void note_freed(std::uint64_t n = 1) noexcept { counters_.add(kFreed, n); }

    /// Retire→free age of one freed object, in coarse_now() ticks (stamped
    /// at retire by the substrate, read back on its free path). Multi-writer:
    /// teardown frees run on whichever thread destroys the structure, so
    /// this takes the locked-RMW record(), not record_owner().
    void note_age(std::uint64_t age) noexcept { age_.record(age); }

    /// One reclamation pass (scan/collect/liberate). Refreshes the peak: scan
    /// entry is exactly when the retired backlog is at its local maximum.
    void note_scan() noexcept {
        counters_.add(kScans, 1);
        if constexpr (kTelemetryEnabled) refresh_peak();
    }

    std::uint64_t retired() const noexcept { return counters_.sum(kRetired); }
    std::uint64_t freed() const noexcept { return counters_.sum(kFreed); }

    /// Retired minus freed, clamped: a mid-update read can transiently see
    /// more frees than retires.
    std::uint64_t unreclaimed() const noexcept {
        const std::uint64_t r = retired();
        const std::uint64_t f = freed();
        return r > f ? r - f : 0;
    }

    const char* telemetry_name() const noexcept override { return name_; }

    CommonCounters common_counters() const override {
        CommonCounters c;
        c.retired = retired();
        c.freed = freed();
        c.scans = counters_.sum(kScans);
        if constexpr (kTelemetryEnabled) {
            const_cast<SchemeMetrics*>(this)->refresh_peak();
        }
        c.peak_unreclaimed = peak_.load(std::memory_order_relaxed);
        return c;
    }

    void visit_extras(MetricSink& sink) const override {
        sink.gauge("unreclaimed", unreclaimed());
        HistogramSnapshot age;
        age_.read_into(age);
        sink.histogram("retire_free_age", age);
    }

  private:
    enum : int { kRetired, kFreed, kScans, kNumCounters };

    void refresh_peak() noexcept {
        const std::uint64_t candidate = unreclaimed();
        std::uint64_t cur = peak_.load(std::memory_order_relaxed);
        while (candidate > cur &&
               !peak_.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
        }
    }

    const char* name_;
    PerThreadCounters<kNumCounters> counters_;
    std::atomic<std::uint64_t> peak_{0};
    /// Retire→free ages (coarse_now() ticks), fed by SchemeBase::free_object.
    LogHistogram age_;
};

}  // namespace telemetry
}  // namespace orcgc
