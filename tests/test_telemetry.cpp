// Tests for the always-on telemetry layer (common/telemetry.hpp,
// core/orc_metrics.hpp) and its process registry/exporters.
//
// Covered contracts:
//   * PerThreadCounters: exact aggregation under concurrent owner-thread
//     increments; drain() is lossless against racing add().
//   * LogHistogram: bucket boundaries are exact powers of two; merge adds
//     bucket-wise; concurrent record() loses nothing.
//   * TraceRing: keeps the last `capacity` records across wraps with fields
//     intact; unreserved rings ignore record().
//   * OrcMetrics: at quiescence every retire token is accounted for
//     (freed + resurrected), reset() zeroes, snapshot/reset race safely with
//     live churn, and tracing is off by default but togglable per domain.
//   * Registry/exporters: live and destroyed providers both appear (folded
//     by name), the manual schemes report the shared counter subset, and the
//     Prometheus rendering sanitizes names.
//   * The load/protect fast path (get_protected / protect_ptr /
//     scratch_protect) carries zero instrumentation — enforced by reading
//     the engine source, so a regression fails this suite, not a bench gate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_harness.hpp"
#include "common/telemetry.hpp"
#include "core/orc.hpp"
#include "reclamation/hazard_pointers.hpp"

namespace orcgc {
namespace {

// Static-teardown ordering regression probe (runs at process scope, not as a
// TEST): constructed during static initialization of this TU, BEFORE any
// telemetry provider registers (domains and schemes are all lazy), exactly
// the order bench binaries create with `--json`. The recorder's destructor
// exports the registry at exit; without telemetry::touch() in its
// constructor, the registry — constructed later, on the first registration a
// test below triggers — is destroyed first, and the exit flush walks a
// destroyed std::map (the bench_publish_ablation teardown use-after-free).
// A regression crashes this binary at exit under the ASan ctest leg.
[[maybe_unused]] const bool g_flush_ordering_probe = [] {
    BenchJsonRecorder::instance().enable("orcgc_test_flush_ordering.json");
    return true;
}();

using telemetry::HistogramSnapshot;
using telemetry::LogHistogram;
using telemetry::PerThreadCounters;
using telemetry::SchemeMetrics;
using telemetry::TraceRecord;
using telemetry::TraceRing;
using telemetry::TraceType;

static_assert(telemetry::kTelemetryEnabled,
              "the test suite does not support -DORCGC_TELEMETRY=OFF builds");

struct Node : orc_base {
    std::uint64_t value = 0;
    orc_atomic<Node*> next{nullptr};
    Node() = default;
    explicit Node(std::uint64_t v) : value(v) {}
};

// ---- PerThreadCounters -----------------------------------------------------

TEST(PerThreadCountersTest, ConcurrentAddsAggregateExactly) {
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    PerThreadCounters<2> counters;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                counters.add(0);
                counters.add(1, 3);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counters.sum(0), std::uint64_t{kThreads} * kIters);
    EXPECT_EQ(counters.sum(1), std::uint64_t{kThreads} * kIters * 3);
}

TEST(PerThreadCountersTest, AddReturnsRunningPerThreadValue) {
    PerThreadCounters<1> counters;
    EXPECT_EQ(counters.add(0), 1u);
    EXPECT_EQ(counters.add(0, 5), 6u);
    EXPECT_EQ(counters.add(0), 7u);
}

TEST(PerThreadCountersTest, DrainIsLosslessAgainstConcurrentAdds) {
    constexpr int kThreads = 4;
    constexpr int kIters = 50000;
    PerThreadCounters<1> counters;
    std::atomic<bool> stop{false};
    std::uint64_t drained = 0;
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            drained += counters.drain(0);
        }
    });
    std::vector<std::thread> adders;
    for (int t = 0; t < kThreads; ++t) {
        adders.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) counters.add(0);
        });
    }
    for (auto& t : adders) t.join();
    stop.store(true, std::memory_order_release);
    drainer.join();
    // Every increment landed either in some drain() or is still in place.
    EXPECT_EQ(drained + counters.sum(0), std::uint64_t{kThreads} * kIters);
}

// ---- LogHistogram ----------------------------------------------------------

TEST(LogHistogramTest, BucketBoundariesAreExactPowersOfTwo) {
    // bucket_of(v) == bit_width(v): 0 -> 0, [2^(b-1), 2^b - 1] -> b.
    EXPECT_EQ(LogHistogram::bucket_of(0), 0);
    EXPECT_EQ(LogHistogram::bucket_of(1), 1);
    EXPECT_EQ(LogHistogram::bucket_of(2), 2);
    EXPECT_EQ(LogHistogram::bucket_of(3), 2);
    EXPECT_EQ(LogHistogram::bucket_of(4), 3);
    EXPECT_EQ(LogHistogram::bucket_of(~std::uint64_t{0}), 64);
    for (int b = 1; b < LogHistogram::kBuckets; ++b) {
        // Both edges of every bucket map back into it, and the value one
        // below the lower edge does not.
        EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_lower(b)), b);
        EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_upper(b)), b);
        EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_lower(b) - 1), b - 1);
    }
}

TEST(LogHistogramTest, RecordLandsInTheRightBucket) {
    LogHistogram hist;
    hist.record(0);
    hist.record(1);
    hist.record(2);
    hist.record(3);
    hist.record(1023);
    hist.record(1024);
    HistogramSnapshot snap;
    hist.read_into(snap);
    EXPECT_EQ(snap.buckets[0], 1u);   // {0}
    EXPECT_EQ(snap.buckets[1], 1u);   // {1}
    EXPECT_EQ(snap.buckets[2], 2u);   // {2, 3}
    EXPECT_EQ(snap.buckets[10], 1u);  // [512, 1023]
    EXPECT_EQ(snap.buckets[11], 1u);  // [1024, 2047]
    EXPECT_EQ(snap.count(), 6u);
}

TEST(LogHistogramTest, MergeAddsBucketwise) {
    LogHistogram a;
    LogHistogram b;
    a.record(5);
    a.record(5);
    b.record(5);
    b.record(100);
    HistogramSnapshot snap;
    a.read_into(snap);
    b.read_into(snap);  // read_into accumulates == merge
    EXPECT_EQ(snap.buckets[3], 3u);  // 5 -> bucket 3, from both sides
    EXPECT_EQ(snap.buckets[7], 1u);  // 100 -> [64, 127]
    EXPECT_EQ(snap.count(), 4u);
    HistogramSnapshot other;
    b.drain_into(other);
    HistogramSnapshot folded;
    folded.merge(snap);
    folded.merge(other);
    EXPECT_EQ(folded.count(), snap.count() + other.count());
    // Drain left b empty.
    HistogramSnapshot empty;
    b.read_into(empty);
    EXPECT_EQ(empty.count(), 0u);
}

TEST(HistogramPercentileTest, EmptyHistogramReadsZero) {
    HistogramSnapshot snap;
    EXPECT_EQ(snap.percentile(0.0), 0.0);
    EXPECT_EQ(snap.percentile(0.5), 0.0);
    EXPECT_EQ(snap.percentile(1.0), 0.0);
}

TEST(HistogramPercentileTest, InterpolatesInsideTheBucket) {
    // 4 counts in bucket 3 = [4, 7]: ranks spread uniformly over the bucket.
    HistogramSnapshot snap;
    snap.buckets[3] = 4;
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 4.0);   // lower edge
    EXPECT_DOUBLE_EQ(snap.percentile(0.5), 5.5);   // rank 2 of 4: 4 + 0.5*3
    EXPECT_DOUBLE_EQ(snap.percentile(1.0), 7.0);   // upper edge
    EXPECT_DOUBLE_EQ(snap.percentile(0.25), 4.75);  // rank 1 of 4
}

TEST(HistogramPercentileTest, WalksCumulativeRanksAcrossBuckets) {
    // 1 count at value 1 (bucket 1, a point bucket) and 1 in [8, 15].
    HistogramSnapshot snap;
    snap.buckets[1] = 1;
    snap.buckets[4] = 1;
    EXPECT_DOUBLE_EQ(snap.percentile(0.5), 1.0);    // rank 1 exhausts bucket 1
    EXPECT_DOUBLE_EQ(snap.percentile(0.75), 11.5);  // half into [8, 15]
    EXPECT_DOUBLE_EQ(snap.percentile(1.0), 15.0);
    // Tail quantiles of a skewed fill: 99 low values, 1 high outlier.
    HistogramSnapshot skew;
    skew.buckets[0] = 99;
    skew.buckets[10] = 1;  // [512, 1023]
    EXPECT_DOUBLE_EQ(skew.percentile(0.5), 0.0);
    EXPECT_GE(skew.percentile(0.999), 512.0);  // the outlier dominates p999
    // Out-of-range quantiles clamp instead of walking off the array.
    EXPECT_DOUBLE_EQ(skew.percentile(-1.0), skew.percentile(0.0));
    EXPECT_DOUBLE_EQ(skew.percentile(2.0), skew.percentile(1.0));
}

TEST(HistogramPercentileTest, SubtractClampsBucketwise) {
    HistogramSnapshot after;
    after.buckets[2] = 5;
    HistogramSnapshot before;
    before.buckets[2] = 3;
    before.buckets[5] = 10;  // e.g. a racing reset between the two reads
    after.subtract(before);
    EXPECT_EQ(after.buckets[2], 2u);
    EXPECT_EQ(after.buckets[5], 0u) << "negative deltas must clamp, not wrap";
    EXPECT_EQ(after.count(), 2u);
}

TEST(LogHistogramTest, ConcurrentRecordsLoseNothing) {
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    LogHistogram hist;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                hist.record(static_cast<std::uint64_t>(t * kIters + i));
            }
        });
    }
    for (auto& t : threads) t.join();
    HistogramSnapshot snap;
    hist.read_into(snap);
    EXPECT_EQ(snap.count(), std::uint64_t{kThreads} * kIters);
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRingTest, WrapKeepsTheLastCapacityRecordsIntact) {
    constexpr std::size_t kCap = 16;
    constexpr std::uint64_t kTotal = 40;
    TraceRing ring;
    ring.reserve(kCap);
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        ring.record(TraceType::kRetire, reinterpret_cast<const void*>(i), i * 2);
    }
    EXPECT_EQ(ring.written(), kTotal);
    const std::vector<TraceRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), kCap);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t expect = kTotal - kCap + i;  // oldest-first
        EXPECT_EQ(records[i].obj, expect);
        EXPECT_EQ(records[i].arg, expect * 2) << "fields from different records paired";
        EXPECT_EQ(records[i].type, TraceType::kRetire);
        if (i > 0) {
            // Single-writer ring: timestamps are monotone within a thread.
            EXPECT_GE(records[i].tsc, records[i - 1].tsc);
        }
    }
}

TEST(TraceRingTest, UnreservedRingIgnoresRecords) {
    TraceRing ring;
    EXPECT_FALSE(ring.reserved());
    ring.record(TraceType::kFree, nullptr, 0);
    EXPECT_EQ(ring.written(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRingTest, ReserveIsIdempotent) {
    TraceRing ring;
    ring.reserve(8);
    ring.record(TraceType::kRetire, nullptr, 1);
    ring.reserve(1024);  // must not discard the existing buffer
    EXPECT_EQ(ring.written(), 1u);
    ASSERT_EQ(ring.snapshot().size(), 1u);
    EXPECT_EQ(ring.snapshot()[0].arg, 1u);
}

// ---- TraceSpan -------------------------------------------------------------

TEST(TraceSpanTest, NullRingIsANoOp) {
    telemetry::TraceSpan span(nullptr, telemetry::SpanKind::kHeavyFence);
    span.note_items(42);  // must not crash or record anywhere
}

TEST(TraceSpanTest, PairsCarryKindAndItemsAcrossRingWrap) {
    // An odd capacity against 2-record pairs forces the wrap to cut a pair
    // in half: the snapshot must start with exactly one orphan kSpanEnd
    // (its begin evicted), then strictly alternating begin/end pairs whose
    // kind and items payload survive intact.
    constexpr std::size_t kCap = 7;
    constexpr std::uint64_t kSpans = 20;
    TraceRing ring;
    ring.reserve(kCap);
    for (std::uint64_t i = 0; i < kSpans; ++i) {
        telemetry::TraceSpan span(&ring, telemetry::SpanKind::kScanGeneration);
        span.note_items(i);
    }
    const std::vector<TraceRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), kCap);
    // 40 records into a 7-slot ring: oldest surviving record is #33, an end.
    EXPECT_EQ(records[0].type, TraceType::kSpanEnd);
    int open = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord& r = records[i];
        EXPECT_EQ(r.arg,
                  static_cast<std::uint64_t>(telemetry::SpanKind::kScanGeneration));
        if (r.type == TraceType::kSpanBegin) {
            EXPECT_EQ(open, 0) << "begin while a span is open";
            ++open;
        } else {
            ASSERT_EQ(r.type, TraceType::kSpanEnd);
            EXPECT_TRUE(open == 1 || i == 0) << "orphan end past the wrap point";
            open = 0;
            // End records carry the items payload; record #33 closed span 16.
            EXPECT_EQ(r.obj, (33 + i) / 2u);
        }
    }
    EXPECT_EQ(open, 0) << "the newest span's end record must be present";
}

TEST(TraceSpanTest, SpanKindNamesMatchTheExporterContract) {
    // tools/orc_trace.py hard-codes this mapping (SPAN_KINDS); renaming a
    // kind here without updating the exporter breaks the Chrome traces.
    using telemetry::SpanKind;
    using telemetry::span_kind_name;
    EXPECT_STREQ(span_kind_name(SpanKind::kScanGeneration), "scan_generation");
    EXPECT_STREQ(span_kind_name(SpanKind::kHeavyFence), "heavy_fence");
}

// ---- OrcMetrics end-to-end -------------------------------------------------

TEST(OrcMetricsTest, EveryRetireTokenIsAccountedForAtQuiescence) {
    auto domain = std::make_unique<OrcDomain>();
    for (int i = 0; i < 1000; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    // Once the churn stops, at most the deferral buffer is outstanding
    // (DESIGN.md §1.3f); flush() walks it.
    EXPECT_LE(domain->metrics().snapshot().unreclaimed,
              static_cast<std::uint64_t>(OrcDomain::kRetireBuffer));
    domain->flush();
    const OrcMetrics::Snapshot s = domain->metrics().snapshot();
    EXPECT_GT(s.retired, 0u);
    // Conservation: every token ends as a free or a resurrection — nothing
    // is outstanding after the flush.
    EXPECT_EQ(s.retired, s.freed_batch + s.resurrected);
    EXPECT_EQ(s.unreclaimed, 0u);
    EXPECT_GT(s.cascades, 0u);
    EXPECT_GT(s.snapshots, 0u);
    // The peak sampler must have caught at least one in-flight object.
    EXPECT_GE(s.peak_unreclaimed, 1u);
    // The latency histogram records one entry per free.
    EXPECT_EQ(s.retire_latency_gens.count(), s.freed_batch);
}

TEST(OrcMetricsTest, RetireFreeAgeSamplesFreesAndExportsPercentiles) {
    auto domain = std::make_unique<OrcDomain>();
    for (int i = 0; i < 1000; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    const OrcMetrics::Snapshot s = domain->metrics().snapshot();
    // Ages are 1-in-64 sampled (telemetry::kAgeSampleMask): 1000 same-thread
    // retires must stamp floor-or-ceil of 1000/64 of them — the thread's
    // sample phase at entry is arbitrary (earlier tests also retire), so
    // only the rate is exact, not the offset. Every stamped object frees
    // inside the loop, so the histogram count IS the stamp count.
    const std::uint64_t period = telemetry::kAgeSampleMask + 1;
    EXPECT_GE(s.retire_free_age.count(), 1000 / period);
    EXPECT_LE(s.retire_free_age.count(), 1000 / period + 1);
    EXPECT_LT(s.retire_free_age.count(), s.freed_batch);
    // p50 <= p99 <= p999 by construction; all finite and within the tick
    // domain (immediate scope-exit frees land in the low buckets).
    const double p50 = s.retire_free_age.percentile(0.5);
    const double p99 = s.retire_free_age.percentile(0.99);
    const double p999 = s.retire_free_age.percentile(0.999);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    // The JSON export carries the percentile keys inside the histogram
    // object (what orc_top's latency panel and the bench artifacts read).
    const std::string json = telemetry::export_json();
    const std::size_t at = json.find("\"retire_free_age\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t scope_end = json.find("]", at);  // buckets array close
    const std::string scope = json.substr(at, scope_end - at);
    EXPECT_NE(scope.find("\"p50\":"), std::string::npos) << scope;
    EXPECT_NE(scope.find("\"p99\":"), std::string::npos) << scope;
    EXPECT_NE(scope.find("\"p999\":"), std::string::npos) << scope;
}

TEST(OrcMetricsTest, ResetZeroesEverything) {
    auto domain = std::make_unique<OrcDomain>();
    for (int i = 0; i < 200; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    ASSERT_GT(domain->metrics().snapshot().retired, 0u);
    domain->metrics().reset();
    const OrcMetrics::Snapshot s = domain->metrics().snapshot();
    EXPECT_EQ(s.retired, 0u);
    EXPECT_EQ(s.freed_batch, 0u);
    EXPECT_EQ(s.snapshots, 0u);
    EXPECT_EQ(s.cascades, 0u);
    EXPECT_EQ(s.peak_unreclaimed, 0u);
    EXPECT_EQ(s.retire_latency_gens.count(), 0u);
}

TEST(OrcMetricsTest, SnapshotAndResetRaceSafelyWithLiveChurn) {
    auto domain = std::make_unique<OrcDomain>();
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < 3000; ++i) {
                orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
            }
        });
    }
    // Reader hammers snapshot/reset against the live hooks. reset() is
    // documented exact-only-at-quiescence: a drain racing a live hook can
    // split a retire from its later free across the reset boundary, so no
    // tight transient inequality between the two holds mid-race. What must
    // hold is that no field is ever torn or runaway — every value stays
    // within the total churn this test can generate. (TSan covers the
    // data-race side; exact conservation is asserted at join points in
    // EveryRetireTokenIsAccountedForAtQuiescence and below.)
    std::thread reader([&] {
        constexpr std::uint64_t kSane = 1u << 20;  // far above 4x3000 creates
        while (!stop.load(std::memory_order_acquire)) {
            const OrcMetrics::Snapshot s = domain->metrics().snapshot();
            EXPECT_LT(s.retired, kSane) << "torn or runaway retired counter";
            EXPECT_LT(s.freed_batch, kSane) << "torn or runaway free counter";
            EXPECT_LT(s.resurrected, kSane) << "torn or runaway resurrected counter";
            domain->metrics().reset();
        }
    });
    for (auto& t : workers) t.join();
    stop.store(true, std::memory_order_release);
    reader.join();
    domain->metrics().reset();
    EXPECT_EQ(domain->metrics().snapshot().retired, 0u);
}

TEST(OrcMetricsTest, TracingIsOffByDefaultAndTogglable) {
    if (std::getenv("ORC_TRACE") != nullptr) {
        GTEST_SKIP() << "ORC_TRACE is set; default-off cannot be observed";
    }
    auto domain = std::make_unique<OrcDomain>();
    EXPECT_FALSE(domain->metrics().tracing());
    for (int i = 0; i < 64; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    EXPECT_TRUE(domain->metrics().trace_records().empty())
        << "tracing off must record nothing";

    domain->set_tracing(true);
    for (int i = 0; i < 64; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    const std::vector<TraceRecord> records = domain->metrics().trace_records();
    ASSERT_FALSE(records.empty());
    bool saw_retire = false;
    bool saw_free = false;
    for (const TraceRecord& r : records) {
        saw_retire |= r.type == TraceType::kRetire;
        saw_free |= r.type == TraceType::kFree;
    }
    EXPECT_TRUE(saw_retire);
    EXPECT_TRUE(saw_free);

    domain->set_tracing(false);
    const std::size_t before = domain->metrics().trace_records().size();
    for (int i = 0; i < 64; ++i) {
        orc_ptr<Node*> p = make_orc_in<Node>(*domain, i);
    }
    EXPECT_EQ(domain->metrics().trace_records().size(), before)
        << "disabling must stop recording but keep what was captured";
}

// ---- registry and exporters ------------------------------------------------

/// Extracts `"key": <u64>` scoped to the source object named `source` in an
/// orcgc-telemetry-v1 JSON export. Returns 0 when absent.
std::uint64_t json_u64(const std::string& json, const std::string& source,
                       const std::string& key) {
    const std::string name_tag = "\"name\": \"" + source + "\"";
    const std::size_t at = json.find(name_tag);
    if (at == std::string::npos) return 0;
    const std::size_t end = json.find("\"name\": \"", at + name_tag.size());
    const std::string scope = json.substr(at, end == std::string::npos ? end : end - at);
    const std::string key_tag = "\"" + key + "\": ";
    const std::size_t kat = scope.find(key_tag);
    if (kat == std::string::npos) return 0;
    return std::strtoull(scope.c_str() + kat + key_tag.size(), nullptr, 10);
}

TEST(TelemetryRegistryTest, LiveProvidersAppearInTheJsonExport) {
    SchemeMetrics metrics("test/live");
    metrics.note_retired(10);
    metrics.note_freed(4);
    metrics.note_scan();
    EXPECT_EQ(metrics.unreclaimed(), 6u);
    const std::string json = telemetry::export_json();
    EXPECT_NE(json.find("\"schema\": \"orcgc-telemetry-v1\""), std::string::npos);
    EXPECT_EQ(json_u64(json, "test/live", "retired"), 10u);
    EXPECT_EQ(json_u64(json, "test/live", "freed"), 4u);
    EXPECT_EQ(json_u64(json, "test/live", "scans"), 1u);
    EXPECT_EQ(json_u64(json, "test/live", "unreclaimed"), 6u);  // gauge
    EXPECT_GE(json_u64(json, "test/live", "peak_unreclaimed"), 6u);
}

TEST(TelemetryRegistryTest, DeadProvidersFoldIntoAccumulatedTotalsByName) {
    {
        SchemeMetrics metrics("test/fold");
        metrics.note_retired(7);
        metrics.note_freed(7);
    }
    EXPECT_EQ(json_u64(telemetry::export_json(), "test/fold", "retired"), 7u);
    {
        // A second incarnation under the same name adds to the fold — the
        // exit dump covers every instance that ever lived.
        SchemeMetrics metrics("test/fold");
        metrics.note_retired(3);
        metrics.note_freed(3);
    }
    const std::string json = telemetry::export_json();
    EXPECT_EQ(json_u64(json, "test/fold", "retired"), 10u);
    EXPECT_EQ(json_u64(json, "test/fold", "freed"), 10u);
}

TEST(TelemetryRegistryTest, ManualSchemeReportsTheSharedCounterSubset) {
    struct Obj {
        int payload = 0;
    };
    const std::string before = telemetry::export_json();
    const std::uint64_t retired_before = json_u64(before, "HP", "retired");
    {
        HazardPointers<Obj, 2> hp;
        for (int i = 0; i < 100; ++i) hp.retire(new Obj);
        EXPECT_LE(hp.unreclaimed_count(), 100u);
    }
    // Instance destroyed: its totals folded under the scheme name.
    const std::string json = telemetry::export_json();
    EXPECT_EQ(json_u64(json, "HP", "retired"), retired_before + 100);
    EXPECT_EQ(json_u64(json, "HP", "freed"),
              json_u64(json, "HP", "retired"));  // dtor frees the backlog
}

TEST(TelemetryRegistryTest, PrometheusExportSanitizesAndTypesMetrics) {
    SchemeMetrics metrics("test/prom metrics");
    metrics.note_retired(2);
    const std::string prom = telemetry::export_prometheus();
    EXPECT_NE(prom.find("# TYPE orcgc_retired_total counter"), std::string::npos);
    // '/' and ' ' are not legal label characters: both become '_'.
    EXPECT_NE(prom.find("orcgc_retired_total{source=\"test_prom_metrics\"} 2"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE orcgc_peak_unreclaimed gauge"), std::string::npos);
}

TEST(TelemetryCommonCountersTest, MergeAddsCountersAndMaxesPeaks) {
    telemetry::CommonCounters a;
    a.retired = 10;
    a.freed = 8;
    a.peak_unreclaimed = 5;
    a.scans = 2;
    telemetry::CommonCounters b;
    b.retired = 1;
    b.freed = 1;
    b.peak_unreclaimed = 3;
    b.scans = 1;
    a.merge(b);
    EXPECT_EQ(a.retired, 11u);
    EXPECT_EQ(a.freed, 9u);
    EXPECT_EQ(a.scans, 3u);
    EXPECT_EQ(a.peak_unreclaimed, 5u);  // max, not sum
}

// ---- fast-path purity ------------------------------------------------------

/// Returns the body (signature line through matching close brace) of the
/// member function whose declaration contains `marker`.
std::string function_body(const std::string& source, const std::string& marker) {
    const std::size_t at = source.find(marker);
    if (at == std::string::npos) return {};
    const std::size_t open = source.find('{', at);
    if (open == std::string::npos) return {};
    int depth = 0;
    for (std::size_t i = open; i < source.size(); ++i) {
        if (source[i] == '{') ++depth;
        if (source[i] == '}' && --depth == 0) return source.substr(at, i - at + 1);
    }
    return {};
}

TEST(FastPathPurityTest, LoadAndProtectPathsCarryNoInstrumentation) {
    // Acceptance gate from the telemetry design: the always-on layer adds
    // ZERO atomics to the read-side fast path. Grep the engine source so any
    // future hook added there fails a unit test instead of a bench gate.
    std::ifstream in(ORCGC_DOMAIN_HEADER);
    ASSERT_TRUE(in.good()) << "cannot read " << ORCGC_DOMAIN_HEADER;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();
    for (const char* marker :
         {"T get_protected(", "void protect_ptr(", "void scratch_protect("}) {
        const std::string body = function_body(source, marker);
        ASSERT_FALSE(body.empty()) << marker << " not found in orc_domain.hpp";
        EXPECT_EQ(body.find("metrics_"), std::string::npos)
            << marker << " must not touch the metrics provider";
        EXPECT_EQ(body.find("trace"), std::string::npos)
            << marker << " must not trace";
        EXPECT_EQ(body.find("telemetry::"), std::string::npos)
            << marker << " must not reach into the telemetry layer";
        // The stalled-reader watchdog infers publish-path progress from the
        // published-value fingerprint precisely so these paths never tick
        // the heartbeat (see watchdog_sample).
        EXPECT_EQ(body.find("beat_tick"), std::string::npos)
            << marker << " must not carry the watchdog heartbeat";
    }
}

}  // namespace
}  // namespace orcgc
