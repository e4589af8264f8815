// Process-wide metrics registry: named counters, gauges, and
// log2-bucketed histograms, plus RAII Span timers for the per-period
// phase trace.
//
// Design constraints, in order:
//   - Hot-path writes are wait-free and TSan-clean: every metric is a
//     slab of cache-line-padded relaxed atomics, one slot per thread
//     (hashed), so concurrent writers never share a line and never take
//     a lock. Aggregation happens only at snapshot time.
//   - Deterministic keys: a metric's identity is its name alone — no
//     thread ids, worker counts, or pointers leak into the key set, so a
//     run with 1 worker and a run with 8 export identical schemas.
//   - Zero cost when unused: nothing registers anything until an
//     instrumented path actually executes, and an unused registry is a
//     few empty maps.
//
// Naming scheme (see docs/METRICS.md for the full inventory):
//   <layer>/<what>[/<label>] — e.g. "ingest/vehicles",
//   "server/quarantine/zero_count_anomaly". Span phases reuse the same
//   scheme ("period/ingest", "decode/tile_sweep"); a span's duration
//   lands in a nanosecond-unit histogram under the phase name.
//
// The registry itself is layer-free (standard library only) so every
// library in the repo — including vlm_common — can depend on it.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace vlm::obs {

// Slots per metric slab. Threads hash onto slots; 16 lines bound the
// footprint while keeping collisions rare for the worker counts the
// pools actually run (hardware_concurrency on commodity hosts).
inline constexpr unsigned kSlabSlots = 16;

// Histogram bucket b holds values whose bit width is b: bucket 0 is the
// value 0, bucket b >= 1 covers [2^(b-1), 2^b). 65 buckets span the full
// uint64 range.
inline constexpr unsigned kHistogramBuckets = 65;

// Stable slot for the calling thread, in [0, kSlabSlots).
unsigned this_thread_slot();

namespace detail {
struct alignas(64) SlabCell {
  std::atomic<std::uint64_t> value{0};
};

void atomic_store_min(std::atomic<std::uint64_t>& target, std::uint64_t value);
void atomic_store_max(std::atomic<std::uint64_t>& target, std::uint64_t value);
}  // namespace detail

// Monotone event count. add() is one relaxed fetch_add on a private
// cache line; value() sums the slab.
class Counter {
 public:
  void add(std::uint64_t n) {
    cells_[this_thread_slot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  detail::SlabCell cells_[kSlabSlots];
};

// Last-write-wins scalar (thread counts, tile sizes, config echoes).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

// Static-string annotation (kernel ISA, decode path). The pointer must
// outlive the registry — pass string literals or other static storage.
class Info {
 public:
  void set(const char* value) {
    value_.store(value, std::memory_order_relaxed);
  }
  const char* value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Info() = default;
  std::atomic<const char*> value_{""};
};

// What a histogram's raw uint64 observations mean; exporters scale
// nanosecond histograms to seconds and micro (parts-per-million, used
// for dimensionless ratios like fill fractions) histograms to units.
enum class Unit { kNone, kNanoseconds, kMicro };

// Aggregated view of one histogram, already scaled to export units
// (seconds for Unit::kNanoseconds, units for Unit::kMicro, raw values
// otherwise). p50/p99 are log2-bucket interpolations: exact to within
// the observation's power-of-two bucket, which is the right fidelity
// for latency tails.
//
// Empty-histogram convention (pinned by MetricsTest.EmptySummary): with
// count == 0 every statistic — total, min, max, p50, p99 — is exactly
// 0.0, never a sentinel like +inf or UINT64_MAX leaking from the
// internal accumulators.
struct HistogramSummary {
  Unit unit = Unit::kNone;
  std::uint64_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

class HistogramBatch;

// Log2-bucketed histogram with exact count/total/min/max. observe() is
// a handful of relaxed atomic ops on the calling thread's private slab.
class Histogram {
 public:
  void observe(std::uint64_t value) {
    Slab& slab = slabs_[this_thread_slot()];
    slab.count.value.fetch_add(1, std::memory_order_relaxed);
    slab.total.value.fetch_add(value, std::memory_order_relaxed);
    detail::atomic_store_min(slab.min.value, value);
    detail::atomic_store_max(slab.max.value, value);
    slab.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // Adds every observation of `batch` to the calling thread's slab.
  void publish(const HistogramBatch& batch);

  Unit unit() const { return unit_; }
  // The registry key this histogram was registered under ("" for none).
  // Stable storage: the registry's node-based map owns the string, so
  // the pointer is valid for the registry's lifetime — trace events
  // reference it without copying.
  const char* name() const { return name_; }
  HistogramSummary summary() const;
  // Observations in one log2 bucket, summed over the slabs.
  std::uint64_t bucket_count(unsigned bucket) const;

  // Bucket index for a raw value (bit width; see kHistogramBuckets).
  static unsigned bucket_of(std::uint64_t value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  // Inclusive-lower / exclusive-upper value bounds of a bucket, as
  // doubles (bucket 64's upper bound exceeds uint64).
  static double bucket_lower(unsigned bucket);
  static double bucket_upper(unsigned bucket);

 private:
  friend class MetricsRegistry;
  explicit Histogram(Unit unit) : unit_(unit) {}

  struct Slab {
    detail::SlabCell count;
    detail::SlabCell total;
    detail::SlabCell min{{UINT64_MAX}};
    detail::SlabCell max;
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
  };

  Unit unit_;
  const char* name_ = "";
  Slab slabs_[kSlabSlots];
};

// Observations gathered off the registry by one thread and merged into a
// Histogram with a single publish(): for a serial pass over many values,
// which would otherwise pay five atomic read-modify-writes per value.
// The resulting summary is exactly that of observing each value.
class HistogramBatch {
 public:
  void observe(std::uint64_t value) {
    ++count_;
    total_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    ++buckets_[Histogram::bucket_of(value)];
  }

 private:
  friend class Histogram;
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kHistogramBuckets] = {};
};

// Point-in-time aggregation of a registry, sorted by name within each
// section (the registry stores metrics in ordered maps, so export order
// is stable across runs and platforms).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
};

// Named-metric registry. Handles returned by counter()/gauge()/
// histogram()/info() are valid for the registry's lifetime; lookups take
// a mutex, so call sites cache the reference (function-local static for
// the global registry) rather than re-resolving per event.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every instrumented layer writes to.
  // Intentionally leaked: worker threads may observe into it up to
  // process teardown.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Info& info(std::string_view name);
  Histogram& histogram(std::string_view name, Unit unit = Unit::kNone);

  Snapshot snapshot() const;

 private:
  template <typename T>
  using NameMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  mutable std::mutex mutex_;
  NameMap<Counter> counters_;
  NameMap<Gauge> gauges_;
  NameMap<Info> infos_;
  NameMap<Histogram> histograms_;
};

// Phase histogram (nanosecond unit) in the global registry — the target
// a Span records into. Cache the reference at the call site.
Histogram& phase(std::string_view name);

// RAII scoped timer. Construction starts the clock; destruction (or an
// explicit finish()) records the elapsed nanoseconds into the phase
// histogram. Spans nest: depth() reports how many are open on the
// calling thread, and nested phases simply record under their own names
// — the naming scheme ("period/ingest", "ingest/shard_merge") carries
// the hierarchy, so traces from different worker counts stay key-equal.
class Span {
 public:
  explicit Span(Histogram& phase);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  // Stops the span now, records it, and returns the elapsed seconds
  // (the destructor then becomes a no-op). For call sites that feed the
  // same duration into a legacy stats struct.
  double finish();

  // Open spans on the calling thread, this one included.
  static unsigned depth();

 private:
  Histogram* phase_;
  MonotonicClock::TimePoint start_;
  bool finished_ = false;
};

}  // namespace vlm::obs
