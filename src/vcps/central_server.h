// Central server: history tracking, per-period array sizing, report
// ingestion, and pairwise estimation (the offline decoding phase).
//
// The server never sees a vehicle identifier — only counters and bit
// arrays. Each period it (1) tells every RSU its array size, derived from
// the exponentially weighted history of that RSU's point volume
// (Section IV-B's n̄_x) under the configured Scheme (VLM variable-length,
// FBM fixed-length, or any future implementation — the server is fully
// scheme-generic), (2) ingests reports, updating the history, and
// (3) answers point-to-point queries via the Eq. 5 MLE; the full K×K
// matrix decode runs the fused kernel over a parallel pair pipeline and
// records throughput counters in `stats()`.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "core/od_matrix.h"
#include "core/report_validator.h"
#include "core/scheme.h"
#include "core/types.h"
#include "obs/health.h"
#include "vcps/messages.h"

namespace vlm::vcps {

// Optional defenses against polluted reports (see vcps/adversary.h for
// the threat model each check addresses).
struct ReportValidationConfig {
  bool enabled = false;
  // Occupancy z-score band for the zero count given the counter; catches
  // bit-painting / saturation and counter-vs-bits inconsistencies.
  double tolerance_sigmas = 6.0;
  // Volume anomaly band vs the RSU's history: a counter more than
  // `max_history_ratio` times above (or below 1/ratio of) the expected
  // volume is quarantined; catches reply floods, which are bit-level
  // indistinguishable from honest traffic. Disabled for RSUs whose
  // history is still below `min_history_for_ratio_check`.
  double max_history_ratio = 8.0;
  double min_history_for_ratio_check = 50.0;
};

enum class QuarantineReason {
  kNone,
  kZeroCountAnomaly,  // ReportValidator verdict != plausible
  kVolumeAnomaly,     // counter inconsistent with history
};

struct CentralServerConfig {
  // The masking scheme the deployment runs. Selecting VLM vs FBM (or any
  // other Scheme implementation) is this single construction.
  core::SchemePtr scheme = core::make_vlm_scheme();
  // EWMA weight of the newest period when updating history volumes.
  double history_alpha = 0.25;
  ReportValidationConfig validation = {};
  // Threads for the K×K matrix decode: 1 = serial, 0 = one per core.
  // Any value yields bit-identical estimates.
  unsigned decode_workers = 0;
};

// Per-period observability: what the ingest and decode phases did and
// how long they took. Reset by begin_period(); decode fields cover the
// most recent estimate_matrix() call.
struct PipelineStats {
  std::uint64_t period = 0;
  std::size_t reports_ingested = 0;
  std::size_t reports_quarantined = 0;
  double ingest_seconds = 0.0;  // cumulative wall time inside ingest()
  core::DecodeStats decode;
  // Estimator-health verdicts of the most recent estimate_matrix() call:
  // per-RSU saturation / load-factor drift plus the accuracy model's
  // predicted relative error over the decoded pairs.
  obs::health::HealthSummary health;
};

class CentralServer {
 public:
  explicit CentralServer(const CentralServerConfig& config);

  const core::Scheme& scheme() const { return *scheme_; }

  // Registers an RSU with its initial historical average volume (from
  // past data, as the paper assumes). Must precede any sizing query.
  void register_rsu(core::RsuId id, double initial_history_volume);

  double history_volume(core::RsuId id) const;

  // m_x for the upcoming period under the configured scheme.
  std::size_t array_size_for(core::RsuId id) const;

  // Starts period `period`, discarding the previous period's reports.
  void begin_period(std::uint64_t period);
  std::uint64_t current_period() const { return period_; }

  // Validates and stores a report; updates the RSU's history volume.
  // Throws std::invalid_argument for unregistered RSUs, wrong period,
  // size mismatch, or duplicate reports. With validation enabled,
  // implausible reports are quarantined instead of stored: they enter
  // neither estimates nor the history, and the returned reason says why.
  // A stored report is moved in, so pass a temporary to avoid a copy.
  QuarantineReason ingest(RsuReport report);

  std::size_t reports_received() const { return reports_.size(); }
  std::size_t quarantined_count() const { return quarantined_.size(); }
  QuarantineReason quarantine_reason(core::RsuId id) const;

  // Point-to-point estimate between two reported RSUs for the current
  // period. Throws if either report is missing.
  core::PairEstimate estimate(core::RsuId a, core::RsuId b) const;

  // Same, with a confidence interval from the occupancy-exact accuracy
  // model (`z` = normal quantile, 1.96 ~ 95%).
  core::EstimateInterval estimate_with_interval(core::RsuId a, core::RsuId b,
                                                double z = 1.96) const;

  // The full point-to-point matrix over every RSU that reported this
  // period, in the order given by `matrix_order()`. Needs >= 2 reports.
  // Runs the batched decode pipeline (config.decode_workers threads) and
  // records its throughput in stats().decode.
  std::vector<core::RsuId> matrix_order() const;
  core::OdMatrix estimate_matrix(double z = 1.96) const;

  // Ingest/decode counters and timings for the current period.
  const PipelineStats& stats() const { return stats_; }

 private:
  const RsuReport& report_for(core::RsuId id) const;

  core::SchemePtr scheme_;
  double history_alpha_;
  ReportValidationConfig validation_;
  unsigned decode_workers_;
  std::uint64_t period_ = 0;
  std::unordered_map<core::RsuId, double> history_;
  std::unordered_map<core::RsuId, RsuReport> reports_;
  std::unordered_map<core::RsuId, QuarantineReason> quarantined_;
  mutable PipelineStats stats_;  // decode fields written by const decode
};

}  // namespace vlm::vcps
