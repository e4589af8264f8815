// In-memory span recording for the end-to-end benchmark program.
//
// A SpanLog keeps one record per timed call — name, start, end, and the
// index of the enclosing span — in a plain vector that the program writes
// out when it exits. Spans are opened and closed on the main thread only;
// the worker threads of an ingest report through CallbackTimer instead.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace vlm::e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // relative to the log's origin
  double end_s = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at the top
  bool leaf = true;  // no span was opened inside this one

  double seconds() const { return end_s - start_s; }
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    if (parent >= 0) spans_[static_cast<std::size_t>(parent)].leaf = false;
    spans_.push_back(SpanRecord{name, now_s(), 0.0, parent, true});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = now_s();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Seconds covered by leaf spans. Leaves never overlap (they are opened
  // and closed in sequence on one thread), so their sum is their union.
  double leaf_seconds() const {
    double total = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.leaf) total += span.seconds();
    }
    return total;
  }

 private:
  double now_s() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the log is null (untraced iterations).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->open(name) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Time spent inside a callback that worker threads run concurrently,
// summed over threads. Each thread adds to its own cache-line slot, so
// the hot path takes no lock after a thread's first call. Read and reset
// only while no worker runs the callback (after drive_vehicles returns:
// the worker pool's join orders the workers' writes before the read).
class CallbackTimer {
 public:
  // Adds the time since `start`, less the cost of reading the clock.
  void add_since(Clock::time_point start) {
    const std::uint64_t elapsed = nanos_since(start);
    local_slot().nanos += elapsed > clock_cost_ ? elapsed - clock_cost_ : 0;
  }

  double drain_seconds() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (Slot& slot : slots_) {
      total += slot.nanos;
      slot.nanos = 0;
    }
    return static_cast<double>(total) * 1e-9;
  }

  // The process-wide instance: slots are bound to threads, not timers.
  static CallbackTimer& instance() {
    static CallbackTimer timer;
    return timer;
  }

 private:
  // The median of many back-to-back clock reads: what a timed call
  // would read if the call itself took no time.
  CallbackTimer() {
    std::vector<std::uint64_t> reads(1001);
    for (std::uint64_t& read : reads) read = nanos_since(Clock::now());
    std::nth_element(reads.begin(), reads.begin() + 500, reads.end());
    clock_cost_ = reads[500];
  }

  static std::uint64_t nanos_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  struct alignas(64) Slot {
    std::uint64_t nanos = 0;
  };

  Slot& local_slot() {
    thread_local Slot* slot = nullptr;
    if (slot == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot = &slots_.emplace_back();  // deque growth never moves a slot
    }
    return *slot;
  }

  std::uint64_t clock_cost_ = 0;
  std::mutex mutex_;
  std::deque<Slot> slots_;
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace vlm::e2ebench
