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

/// One participant's shard of a step: decided by the serial pre-pass,
/// filled in by run_shard, summed by the serial post-pass.
struct Shard {
  int rank = 0;
  std::size_t slot = 0;  ///< index among the participants
  graph::Network* net = nullptr;
  std::int64_t offset = 0, size = 0;  ///< samples [offset, offset + size)
  std::int64_t failures = 0;  ///< failed attempts; > kDropRetries = dropped
  double loss_sum = 0;        ///< shard loss × size
  std::int64_t correct = 0;
  double wall_seconds = 0;
};

/// zero_grad, forward, loss and backward of `sh` on `ctx`. Touches only
/// the shard's own replica, so shards run concurrently on separate lanes.
void run_shard(Shard& sh, const data::Batch& batch, exec::ExecContext& ctx) {
  const auto wall_start = std::chrono::steady_clock::now();
  const Shape& s = batch.images.shape();
  const std::int64_t sample_len = s[1] * s[2] * s[3];
  Tensor images({sh.size, s[1], s[2], s[3]});
  std::copy(batch.images.data() + sh.offset * sample_len,
            batch.images.data() + (sh.offset + sh.size) * sample_len,
            images.data());
  const std::vector<std::int64_t> labels(
      batch.labels.begin() + sh.offset,
      batch.labels.begin() + sh.offset + sh.size);
  sh.net->zero_grad();
  nn::SoftmaxCrossEntropy loss;
  Tensor out = sh.net->forward(ctx, images, true);
  sh.loss_sum = loss.forward(out, labels) * static_cast<double>(sh.size);
  sh.correct = loss.correct();
  sh.net->backward(ctx, loss.backward());
  sh.wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
}

/// `n` bit-exact clones of `net` (params, momentum and buffers).
std::vector<graph::Network> clones_of(graph::Network& net, int n) {
  if (n < 0) throw std::invalid_argument("elastic cluster needs >= 1 replica");
  std::vector<graph::Network> out;
  if (n == 0) return out;
  const ckpt::Checkpoint image = ckpt::Checkpoint::capture(net);
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(image.restore_network());
  return out;
}

}  // namespace

ElasticCluster::ElasticCluster(std::vector<graph::Network> replicas,
                               cost::CommSpec comm,
                               MembershipConfig membership)
    : ElasticCluster(nullptr, std::move(replicas), comm, membership) {}

ElasticCluster::ElasticCluster(graph::Network& rank0, int replicas,
                               cost::CommSpec comm,
                               MembershipConfig membership)
    : ElasticCluster(&rank0, clones_of(rank0, replicas - 1), comm,
                     membership) {}

ElasticCluster::ElasticCluster(graph::Network* rank0,
                               std::vector<graph::Network> owned,
                               cost::CommSpec comm,
                               MembershipConfig membership)
    : owned_(std::move(owned)),
      comm_(comm),
      table_(static_cast<int>(owned_.size()) + (rank0 != nullptr ? 1 : 0),
             membership) {
  if (rank0 != nullptr) replicas_.push_back(rank0);
  for (graph::Network& net : owned_) replicas_.push_back(&net);
  if (size() != comm_.spec().gpus) {
    throw std::invalid_argument("comm spec GPU count must match replica count");
  }
  set_codec(std::make_shared<DenseCodec>());
}

void ElasticCluster::set_codec(std::shared_ptr<GradientCodec> codec) {
  if (!codec) throw std::invalid_argument("cluster codec must not be null");
  codec_ = std::move(codec);
  codec_->bind(replica(0), size());
}

void ElasticCluster::rebind_codec_if_stale() {
  const auto params = replica(0).params();
  const auto& sizes = codec_->sizes();
  bool stale = sizes.size() != params.size();
  for (std::size_t i = 0; !stale && i < params.size(); ++i) {
    stale = sizes[i] != params[i]->grad.numel();
  }
  if (stale) codec_->bind(replica(0), size());
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
  return comm_cost(*replicas_.front(), std::max(1, live_count())).wire_bytes;
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
  // The joiner's per-replica codec state (error-feedback residuals) is
  // dropped with its stale model: the accumulated quantization error
  // belongs to gradients the group never averaged.
  codec_->reset_replica(r);

  // Fenced state broadcast: every persistent tensor (params, momentum, BN
  // buffers) plus current gradients, copied bit-exactly from the survivor
  // so the joiner's first synced step matches the group. A joiner whose
  // shapes went stale (a reconfiguration while it was dead) is rebuilt as
  // a survivor clone first.
  return copy_replica(root, r).bytes;
}

std::int64_t ElasticCluster::copy_full_state(int src_rank, int dst_rank) {
  graph::Network& src_net = replica(src_rank);
  graph::Network& dst_net = replica(dst_rank);
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

ElasticCluster::ReplicaCopy ElasticCluster::copy_replica(int src, int dst) {
  if (src < 0 || src >= size() || dst < 0 || dst >= size() || src == dst) {
    throw std::invalid_argument("copy_replica: bad replica ranks");
  }
  graph::Network& src_net = replica(src);
  graph::Network& dst_net = replica(dst);
  ReplicaCopy out;
  // Replicas normally share one topology (surgery runs on all of them in
  // lockstep, and digest votes convict on matching topology stamps); one
  // whose structure diverged is rebuilt from a clone before the copy (the
  // rejoin fallback path).
  if (!same_topology(dst_net, src_net)) {
    dst_net = ckpt::Checkpoint::capture(src_net).restore_network();
    out.rebuilt = true;
  }
  out.bytes = copy_full_state(src, dst);
  return out;
}

std::int64_t ElasticCluster::heal_replica(int victim, int root) {
  const std::int64_t bytes = copy_replica(root, victim).bytes;
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
                                const StepHooks& hooks, std::int64_t epoch,
                                std::int64_t epoch_step) {
  telemetry::ScopedTimer step_span("dist/elastic_step");
  const std::int64_t total = batch.size();
  if (total <= 0) throw std::invalid_argument("empty mini-batch");
  const std::int64_t step_id = step_counter_++;
  const robust::StepClock clock{epoch, epoch_step, step_id};

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

  // Pre-pass, in rank order. Deterministic re-sharding: contiguous chunks
  // over the participants in rank order. The layout depends only on the
  // participant set — batches smaller than the live count leave trailing
  // shards empty (zero weight, no compute), and so does a dropped shard.
  // Transient failure: each failed attempt charges kDropDetectSeconds; a
  // shard still down after kDropRetries retries is dropped.
  const std::int64_t n = static_cast<std::int64_t>(participants.size());
  std::vector<Shard> shards;
  std::int64_t offset = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const int r = participants[static_cast<std::size_t>(i)];
    const std::int64_t size = total / n + (i < total % n ? 1 : 0);
    if (size == 0) continue;
    Shard sh;
    sh.rank = r;
    sh.slot = static_cast<std::size_t>(i);
    sh.net = &replica(r);
    sh.offset = offset;
    sh.size = size;
    offset += size;
    while (injector_.armed() && sh.failures <= kDropRetries &&
           injector_.drop_replica(r, step_id)) {
      ++sh.failures;
    }
    shards.push_back(sh);
  }

  // The shards' forward/backward: one region over the computed shards,
  // chunk c on lane c, unless fewer than two lanes would be busy — then
  // they run one after another on ctx, whose kernels split each layer.
  std::vector<double> weights(participants.size(), 0.0);
  {
    telemetry::ScopedTimer span("replicas");
    std::vector<Shard*> computed;
    for (Shard& sh : shards) {
      if (sh.failures <= kDropRetries) computed.push_back(&sh);
    }
    const std::int64_t jobs = static_cast<std::int64_t>(computed.size());
    if (std::min<std::int64_t>(ctx.num_threads(), jobs) < 2) {
      for (Shard* sh : computed) run_shard(*sh, batch, ctx);
    } else {
      ctx.pool().parallel_for(
          jobs, [&](std::int64_t b, std::int64_t e, int chunk) {
            exec::ExecContext& lane = ctx.lane(chunk);
            for (std::int64_t j = b; j < e; ++j) {
              run_shard(*computed[static_cast<std::size_t>(j)], batch, lane);
            }
          });
    }

    // Post-pass, in rank order: sums, gradient corruption, straggler
    // accounting. Every injector query stays on this thread, in the order
    // a serial step makes them, so the injector's draws do not depend on
    // the thread count.
    for (const Shard& sh : shards) {
      const double drop_wait =
          static_cast<double>(sh.failures) * kDropDetectSeconds;
      result.fault_wait_seconds += drop_wait;
      result.retries += std::min(sh.failures, kDropRetries);
      if (sh.failures > kDropRetries) {
        ++result.dropped_replicas;
        table_.record_step_time(sh.rank, drop_wait);
        continue;
      }
      result.loss_sum += sh.loss_sum;
      result.correct += sh.correct;
      if (injector_.armed()) {
        injector_.corrupt_gradients(*sh.net, clock, sh.rank);
      }
      weights[sh.slot] = static_cast<double>(sh.size);
      result.processed += sh.size;
      // Straggler accounting (bookkeeping only — never numerics): wall
      // time plus injected delay and drop detection feeds the EWMA.
      const double delay =
          injector_.armed() ? injector_.replica_delay(sh.rank, step_id) : 0.0;
      result.fault_wait_seconds += delay;
      table_.record_step_time(sh.rank, sh.wall_seconds + delay + drop_wait);
    }
  }
  if (result.processed == 0) {
    throw degraded(step_id, 0,
                   "every populated shard dropped (batch " +
                       std::to_string(total) + ", " +
                       std::to_string(participants.size()) + " participants)");
  }
  result.loss = result.loss_sum / static_cast<double>(result.processed);

  // Allreduce + update over participants only: dead replicas receive
  // nothing and go stale (that staleness is what rejoin repairs). Dropped
  // shards carry weight 0 but still receive the broadcast and the update.
  std::vector<graph::Network*> nets;
  nets.reserve(participants.size());
  for (int r : participants) nets.push_back(&replica(r));
  {
    telemetry::ScopedTimer span("exchange");
    rebind_codec_if_stale();
    exchange_gradients(*codec_, nets, weights, ctx, participants);
  }
  {
    telemetry::ScopedTimer span("update");
    bool first_participant = true;
    for (int r : participants) {
      graph::Network& net = replica(r);
      if (hooks.before_update) hooks.before_update(net, first_participant);
      opt.step(net.params());
      if (hooks.after_update) hooks.after_update(net, first_participant);
      first_participant = false;
      // Silent-data-corruption injection (sdc-param / sdc-momentum) lands
      // *after* the update and the hooks so nothing overwrites the flipped
      // bit before the next digest check sees it.
      if (injector_.armed()) injector_.corrupt_state(net, clock, r);
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
