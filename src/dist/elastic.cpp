#include "dist/elastic.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.h"
#include "dist/allreduce.h"
#include "dist/codec_zoo.h"
#include "nn/loss.h"
#include "telemetry/metrics.h"

namespace pt::dist {

namespace {

/// True when both networks expose the same state-dict surface (entry
/// names, roles, and shapes) — the precondition for a bitwise state copy.
bool same_topology(graph::Network& a, graph::Network& b) {
  std::vector<nn::StateEntry> sa = a.state();
  std::vector<nn::StateEntry> sb = b.state();
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].name != sb[i].name || sa[i].role != sb[i].role) return false;
    if (sa[i].tensor->shape() != sb[i].tensor->shape()) return false;
  }
  return true;
}

}  // namespace

ElasticCluster::ElasticCluster(std::vector<graph::Network> replicas,
                               cost::CommSpec comm,
                               MembershipConfig membership)
    : replicas_(std::move(replicas)),
      comm_(comm),
      table_(static_cast<int>(replicas_.size()), membership) {
  if (replicas_.empty()) {
    throw std::invalid_argument("elastic cluster needs >= 1 replica");
  }
  if (static_cast<int>(replicas_.size()) != comm_.spec().gpus) {
    throw std::invalid_argument("comm spec GPU count must match replica count");
  }
  set_codec(std::make_shared<DenseCodec>());
}

void ElasticCluster::set_codec(std::shared_ptr<GradientCodec> codec) {
  if (!codec) throw std::invalid_argument("cluster codec must not be null");
  codec_ = std::move(codec);
  codec_->bind(replicas_.front(), size());
}

void ElasticCluster::rebind_codec_if_stale() {
  const auto params = replicas_.front().params();
  const auto& sizes = codec_->sizes();
  bool stale = sizes.size() != params.size();
  for (std::size_t i = 0; !stale && i < params.size(); ++i) {
    stale = sizes[i] != params[i]->grad.numel();
  }
  if (stale) codec_->bind(replicas_.front(), size());
}

int ElasticCluster::live_count() const {
  int live = 0;
  for (int r = 0; r < size(); ++r) {
    const MemberStatus& m = table_.member(r);
    if (m.state == ReplicaState::kHealthy && !m.failed) ++live;
  }
  return live;
}

void ElasticCluster::set_fault_injector(robust::FaultInjector injector) {
  injector_ = std::move(injector);
}

robust::FaultInjector ElasticCluster::take_fault_injector() {
  robust::FaultInjector out = std::move(injector_);
  injector_ = {};
  return out;
}

void ElasticCluster::schedule_departure(int replica, std::int64_t step) {
  table_.schedule_departure(replica, step);
}

void ElasticCluster::schedule_rejoin(int replica, std::int64_t step) {
  table_.schedule_rejoin(replica, step);
}

void ElasticCluster::set_resync_checkpoint(std::string path) {
  resync_ckpt_path_ = std::move(path);
}

cost::CommCost ElasticCluster::comm_cost(const graph::Network& model,
                                         int members) const {
  cost::CommQuery q;
  q.model_bytes = static_cast<double>(model.num_params()) * 4.0;
  q.members = members;
  q.live_fraction = codec_->live_fraction();
  q.codec = codec_->cost_kind();
  return comm_.cost(q);
}

double ElasticCluster::update_bytes() const {
  return comm_cost(replicas_.front(), std::max(1, live_count())).wire_bytes;
}

std::vector<MembershipTransition> ElasticCluster::drain_transitions() {
  std::vector<MembershipTransition> out;
  out.swap(transitions_);
  return out;
}

std::vector<robust::HealthEvent> ElasticCluster::drain_health_events() {
  std::vector<robust::HealthEvent> out;
  out.swap(health_events_);
  return out;
}

std::int64_t ElasticCluster::resync_rejoiner(int r, int root) {
  graph::Network& survivor = replicas_[static_cast<std::size_t>(root)];
  graph::Network& joiner = replicas_[static_cast<std::size_t>(r)];

  // Phase 1 — topology replay. Prefer the last CRC-valid checkpoint (the
  // replica "restarts from disk"); a missing/corrupt file, or shapes gone
  // stale because a reconfiguration happened after the save, fall back to
  // cloning the structure from a survivor via the same state-dict capture.
  bool replayed = false;
  if (!resync_ckpt_path_.empty()) {
    try {
      joiner = ckpt::Checkpoint::load(resync_ckpt_path_).restore_network();
      replayed = same_topology(joiner, survivor);
    } catch (const std::exception&) {
      replayed = false;
    }
  }
  if (!replayed) {
    joiner = ckpt::Checkpoint::capture(survivor).restore_network();
  }

  // The joiner's per-replica codec state (error-feedback residuals) is
  // dropped with its stale model: the accumulated quantization error
  // belongs to gradients the group never averaged.
  codec_->reset_replica(r);

  // Phase 2 — fenced state broadcast: every persistent tensor (params,
  // momentum, BN buffers) plus current gradients, copied bit-exactly from
  // the survivor so the joiner's first synced step matches the group.
  return copy_full_state(root, r);
}

std::int64_t ElasticCluster::copy_full_state(int src_rank, int dst_rank) {
  graph::Network& src_net = replicas_[static_cast<std::size_t>(src_rank)];
  graph::Network& dst_net = replicas_[static_cast<std::size_t>(dst_rank)];
  std::vector<nn::StateEntry> src = src_net.state();
  std::vector<nn::StateEntry> dst = dst_net.state();
  if (src.size() != dst.size()) {
    throw std::logic_error("state broadcast: state-dict size mismatch");
  }
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i].name != dst[i].name ||
        src[i].tensor->numel() != dst[i].tensor->numel()) {
      throw std::logic_error("state broadcast: state entry mismatch at '" +
                             src[i].name + "'");
    }
    std::copy(src[i].tensor->data(),
              src[i].tensor->data() + src[i].tensor->numel(),
              dst[i].tensor->data());
    bytes += src[i].tensor->numel() * static_cast<std::int64_t>(sizeof(float));
  }
  return bytes;
}

std::int64_t ElasticCluster::heal_replica(int victim, int root) {
  if (victim < 0 || victim >= size() || root < 0 || root >= size() ||
      victim == root) {
    throw std::invalid_argument("heal_replica: bad replica ranks");
  }
  graph::Network& root_net = replicas_[static_cast<std::size_t>(root)];
  graph::Network& victim_net = replicas_[static_cast<std::size_t>(victim)];
  // Digest voting convicts on matching topology stamps, so the structures
  // normally agree; a victim whose structure itself diverged is rebuilt
  // from a root clone before the copy (the rejoin fallback path).
  if (!same_topology(victim_net, root_net)) {
    victim_net = ckpt::Checkpoint::capture(root_net).restore_network();
  }
  const std::int64_t bytes = copy_full_state(root, victim);
  heal_bytes_total_ += bytes;
  if (telemetry::enabled()) {
    telemetry::count("dist/heal_bytes", static_cast<double>(bytes));
    telemetry::event("dist/heal", "replica " + std::to_string(victim) +
                                      " healed from replica " +
                                      std::to_string(root));
  }
  return bytes;
}

ClusterDegraded ElasticCluster::degraded(std::int64_t step_id, int live,
                                         const std::string& detail) {
  robust::HealthEvent ev{robust::EventType::kQuorumLoss,
                         robust::Severity::kFatal, -1,
                         static_cast<double>(live),
                         "step " + std::to_string(step_id) + ": " + detail};
  health_events_.push_back(ev);
  if (telemetry::enabled()) {
    telemetry::event("health/quorum-loss", ev.describe());
  }
  return ClusterDegraded(std::move(ev));
}

StepResult ElasticCluster::step(exec::ExecContext& ctx,
                                const data::Batch& batch, optim::SGD& opt,
                                const PostUpdateHook& post_update) {
  telemetry::ScopedTimer step_span("dist/elastic_step");
  const std::int64_t total = batch.size();
  if (total <= 0) throw std::invalid_argument("empty mini-batch");
  const Shape& s = batch.images.shape();
  const std::int64_t sample_len = s[1] * s[2] * s[3];
  const std::int64_t step_id = step_counter_++;

  // Heartbeat round: latch permanent failures, advance the state machine,
  // promote rejoiners synced last step.
  table_.poll(step_id, injector_.armed() ? &injector_ : nullptr);
  for (const MembershipTransition& t : table_.drain_transitions()) {
    transitions_.push_back(t);
    if (telemetry::enabled()) telemetry::event("dist/membership", t.describe());
  }

  const std::vector<int>& participants = table_.participants();
  const int quorum = table_.quorum_threshold();
  if (participants.empty() || static_cast<int>(participants.size()) < quorum) {
    std::ostringstream os;
    os << participants.size() << " live of " << size()
       << " replicas, quorum requires >= " << quorum
       << " (min_live_fraction = " << table_.config().min_live_fraction << ")";
    throw degraded(step_id, static_cast<int>(participants.size()), os.str());
  }

  StepResult result;
  result.live_replicas = static_cast<int>(participants.size());

  // Deterministic re-sharding: contiguous chunks over the participants in
  // rank order. The layout depends only on the participant set — batches
  // smaller than the live count leave trailing shards empty (zero weight,
  // no compute), and so does a dropped shard.
  const std::int64_t n = static_cast<std::int64_t>(participants.size());
  std::vector<double> weights(participants.size(), 0.0);
  std::int64_t offset = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const int r = participants[static_cast<std::size_t>(i)];
    const std::int64_t shard = total / n + (i < total % n ? 1 : 0);
    if (shard == 0) continue;

    // Transient failure: each failed attempt charges kDropDetectSeconds; a
    // shard still down after kDropRetries retries is dropped.
    std::int64_t failures = 0;
    while (injector_.armed() && failures <= kDropRetries &&
           injector_.drop_replica(r, step_id)) {
      ++failures;
    }
    const double drop_wait = static_cast<double>(failures) * kDropDetectSeconds;
    result.fault_wait_seconds += drop_wait;
    result.retries += std::min(failures, kDropRetries);
    if (failures > kDropRetries) {
      ++result.dropped_replicas;
      table_.record_step_time(r, drop_wait);
      offset += shard;
      continue;
    }

    const auto wall_start = std::chrono::steady_clock::now();
    Tensor images({shard, s[1], s[2], s[3]});
    std::copy(batch.images.data() + offset * sample_len,
              batch.images.data() + (offset + shard) * sample_len,
              images.data());
    std::vector<std::int64_t> labels(batch.labels.begin() + offset,
                                     batch.labels.begin() + offset + shard);
    offset += shard;

    graph::Network& net = replicas_[static_cast<std::size_t>(r)];
    net.zero_grad();
    nn::SoftmaxCrossEntropy loss;
    Tensor out = net.forward(ctx, images, true);
    result.loss += loss.forward(out, labels) * static_cast<double>(shard);
    result.correct += loss.correct();
    net.backward(ctx, loss.backward());
    if (injector_.armed()) injector_.corrupt_gradients(net, -1, step_id, r);
    weights[static_cast<std::size_t>(i)] = static_cast<double>(shard);
    result.processed += shard;

    // Straggler accounting (bookkeeping only — never numerics): wall time
    // plus injected delay and drop detection feeds the per-replica EWMA.
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const double delay =
        injector_.armed() ? injector_.replica_delay(r, step_id) : 0.0;
    result.fault_wait_seconds += delay;
    table_.record_step_time(r, wall + delay + drop_wait);
  }
  if (result.processed == 0) {
    throw degraded(step_id, 0,
                   "every populated shard dropped (batch " +
                       std::to_string(total) + ", " +
                       std::to_string(participants.size()) + " participants)");
  }
  result.loss /= static_cast<double>(result.processed);

  // Allreduce + update over participants only: dead replicas receive
  // nothing and go stale (that staleness is what rejoin repairs). Dropped
  // shards carry weight 0 but still receive the broadcast and the update.
  rebind_codec_if_stale();
  std::vector<graph::Network*> nets;
  nets.reserve(participants.size());
  for (int r : participants) {
    nets.push_back(&replicas_[static_cast<std::size_t>(r)]);
  }
  exchange_gradients(*codec_, nets, weights, ctx, participants);
  bool first_participant = true;
  for (int r : participants) {
    graph::Network& net = replicas_[static_cast<std::size_t>(r)];
    opt.step(net.params());
    if (post_update) post_update(net, first_participant);
    first_participant = false;
    // Silent-data-corruption injection (sdc-param / sdc-momentum) lands
    // *after* the update and the hooks so nothing overwrites the flipped
    // bit before the next digest check sees it.
    if (injector_.armed()) {
      injector_.corrupt_state(net, step_id, r);
    }
  }

  // Fenced rejoin: replicas that entered REJOINING this step resync from
  // the post-update state of the first participant; their first *synced*
  // step is the next one.
  for (int r : table_.rejoining()) {
    const std::int64_t bytes = resync_rejoiner(r, participants.front());
    result.resync_bytes += bytes;
    resync_bytes_total_ += bytes;
  }

  const cost::CommCost cost = comm_cost(*nets.front(), result.live_replicas);
  result.comm_bytes_per_gpu = cost.wire_bytes;
  result.comm_time_modeled = cost.hierarchical_time;
  result.step_time_modeled =
      table_.max_ewma(participants) + result.comm_time_modeled;

  if (telemetry::enabled()) {
    telemetry::count("dist/steps");
    telemetry::count("dist/allreduce_bytes", result.comm_bytes_per_gpu);
    telemetry::gauge("dist/live_replicas",
                     static_cast<double>(result.live_replicas));
    if (result.resync_bytes > 0) {
      telemetry::count("dist/resync_bytes",
                       static_cast<double>(result.resync_bytes));
    }
    if (result.retries > 0) {
      telemetry::count("dist/retries", static_cast<double>(result.retries));
    }
    if (result.dropped_replicas > 0) {
      telemetry::count("dist/dropped_replicas",
                       static_cast<double>(result.dropped_replicas));
    }
  }
  return result;
}

}  // namespace pt::dist
