#include "vcps/rsu.h"

#include "obs/metrics.h"

namespace vlm::vcps {

Rsu::Rsu(core::RsuId id, Certificate certificate, std::size_t array_size)
    : id_(id), certificate_(certificate), state_(array_size) {}

Query Rsu::make_query(std::uint64_t period) const {
  return Query{id_, certificate_, state_.array_size(), period};
}

bool Rsu::handle_reply(const Reply& reply) {
  if (reply.bit_index >= state_.array_size()) {
    ++invalid_replies_;
    return false;
  }
  state_.record(reply.bit_index);
  return true;
}

void Rsu::absorb_shard(const core::RsuState& shard) {
  static obs::Counter& shards_absorbed =
      obs::MetricsRegistry::global().counter("ingest/shards_absorbed");
  state_.merge(shard);
  shards_absorbed.inc();
}

RsuReport Rsu::make_report(std::uint64_t period) const {
  return RsuReport{id_, period, state_.counter(), state_.array_size(),
                   state_.bits().to_bytes()};
}

void Rsu::begin_period(std::size_t array_size) {
  state_ = core::RsuState(array_size);
}

}  // namespace vlm::vcps
