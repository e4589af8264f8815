#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.h"

namespace vlm::obs {

unsigned this_thread_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % kSlabSlots;
  return slot;
}

namespace detail {

void atomic_store_min(std::atomic<std::uint64_t>& target,
                      std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_store_max(std::atomic<std::uint64_t>& target,
                      std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::SlabCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::publish(const HistogramBatch& batch) {
  if (batch.count_ == 0) return;
  Slab& slab = slabs_[this_thread_slot()];
  slab.count.value.fetch_add(batch.count_, std::memory_order_relaxed);
  slab.total.value.fetch_add(batch.total_, std::memory_order_relaxed);
  detail::atomic_store_min(slab.min.value, batch.min_);
  detail::atomic_store_max(slab.max.value, batch.max_);
  for (unsigned b = 0; b < kHistogramBuckets; ++b) {
    if (batch.buckets_[b] != 0) {
      slab.buckets[b].fetch_add(batch.buckets_[b], std::memory_order_relaxed);
    }
  }
}

double Histogram::bucket_lower(unsigned bucket) {
  return bucket == 0 ? 0.0 : std::exp2(static_cast<double>(bucket - 1));
}

double Histogram::bucket_upper(unsigned bucket) {
  return bucket == 0 ? 1.0 : std::exp2(static_cast<double>(bucket));
}

namespace {

// Rank-interpolated quantile over aggregated log2 buckets: find the
// bucket holding the q-th observation, then place it linearly within the
// bucket's value range. Exact when a bucket holds one distinct value's
// mass boundary; otherwise correct to within the bucket.
double bucket_quantile(const std::uint64_t (&buckets)[kHistogramBuckets],
                       std::uint64_t count, double q) {
  // Empty histogram: 0 by convention, never the top-bucket fallthrough.
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (unsigned b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double reach = static_cast<double>(cumulative + buckets[b]);
    if (reach >= target) {
      if (b == 0) return 0.0;
      const double lo = Histogram::bucket_lower(b);
      const double hi = Histogram::bucket_upper(b);
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[b]);
      return lo + std::clamp(within, 0.0, 1.0) * (hi - lo);
    }
    cumulative += buckets[b];
  }
  return Histogram::bucket_upper(kHistogramBuckets - 1);
}

double scaled(Unit unit, double raw) {
  switch (unit) {
    case Unit::kNanoseconds: return raw * 1e-9;
    case Unit::kMicro: return raw * 1e-6;
    case Unit::kNone: break;
  }
  return raw;
}

}  // namespace

std::uint64_t Histogram::bucket_count(unsigned bucket) const {
  std::uint64_t total = 0;
  for (const Slab& slab : slabs_) {
    total += slab.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSummary Histogram::summary() const {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t min = UINT64_MAX;
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};
  for (const Slab& slab : slabs_) {
    count += slab.count.value.load(std::memory_order_relaxed);
    total += slab.total.value.load(std::memory_order_relaxed);
    min = std::min(min, slab.min.value.load(std::memory_order_relaxed));
    max = std::max(max, slab.max.value.load(std::memory_order_relaxed));
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
      buckets[b] += slab.buckets[b].load(std::memory_order_relaxed);
    }
  }

  HistogramSummary out;
  out.unit = unit_;
  out.count = count;
  // Empty histogram: every statistic stays exactly 0.0 (the min slab's
  // UINT64_MAX sentinel must not leak into out.min).
  if (count == 0) return out;
  out.total = scaled(unit_, static_cast<double>(total));
  out.min = scaled(unit_, static_cast<double>(min));
  out.max = scaled(unit_, static_cast<double>(max));
  out.p50 = scaled(unit_, bucket_quantile(buckets, count, 0.50));
  out.p99 = scaled(unit_, bucket_quantile(buckets, count, 0.99));
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::unique_ptr<Counter>(new Counter))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge))
             .first;
  }
  return *it->second;
}

Info& MetricsRegistry::info(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = infos_.find(name);
  if (it == infos_.end()) {
    it = infos_.emplace(std::string(name), std::unique_ptr<Info>(new Info))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Unit unit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(unit)))
             .first;
    // The map is node-based, so the key's c_str() is stable for the
    // registry's lifetime — safe for trace events to alias.
    it->second->name_ = it->first.c_str();
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.info.reserve(infos_.size());
  for (const auto& [name, info] : infos_) {
    out.info.emplace_back(name, std::string(info->value()));
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->summary());
  }
  return out;
}

Histogram& phase(std::string_view name) {
  return MetricsRegistry::global().histogram(name, Unit::kNanoseconds);
}

namespace {
thread_local unsigned t_span_depth = 0;
}  // namespace

Span::Span(Histogram& phase)
    : phase_(&phase), start_(MonotonicClock::now()) {
  ++t_span_depth;
}

double Span::finish() {
  if (finished_) return 0.0;
  finished_ = true;
  --t_span_depth;
  const std::uint64_t ns = MonotonicClock::nanos_since(start_);
  phase_->observe(ns);
  // Every Span site doubles as a flight-recorder instrumentation point:
  // the phase name is registry-owned (static storage), so the trace can
  // alias it without copying.
  if (trace::enabled()) trace::emit_complete(phase_->name(), start_, ns);
  return static_cast<double>(ns) * 1e-9;
}

Span::~Span() {
  if (!finished_) finish();
}

unsigned Span::depth() { return t_span_depth; }

}  // namespace vlm::obs
