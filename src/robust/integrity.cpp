#include "robust/integrity.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "util/fileio.h"
#include "util/logging.h"

namespace pt::robust {
namespace {

// State tensors that are replica-invariant by the determinism contract:
// params and momentum (identical across replicas after every allreduce +
// update). Gradients are transient, and kBuffer tensors (BN running
// statistics) are *legitimately* shard-local — each replica folds its own
// shard's batch statistics into them — so including either would make
// every honest vote split.
bool digestable_role(nn::StateRole role) {
  return role == nn::StateRole::kParam || role == nn::StateRole::kMomentum;
}

// Feeds a little-endian integer into a running CRC.
template <typename T>
std::uint32_t crc_mix(std::uint32_t seed, T value) {
  return pt::crc32(&value, sizeof(value), seed);
}

std::uint32_t crc_mix_str(std::uint32_t seed, const std::string& s) {
  seed = crc_mix<std::uint64_t>(seed, s.size());
  return pt::crc32(s.data(), s.size(), seed);
}

}  // namespace

std::vector<std::string> StateDigest::diff(const StateDigest& other) const {
  std::vector<std::string> names;
  const std::size_t n = std::min(tensors.size(), other.tensors.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (tensors[i].crc != other.tensors[i].crc) {
      names.push_back(tensors[i].name);
    }
  }
  for (std::size_t i = n; i < tensors.size(); ++i) {
    names.push_back(tensors[i].name);
  }
  for (std::size_t i = n; i < other.tensors.size(); ++i) {
    names.push_back(other.tensors[i].name);
  }
  return names;
}

StateDigest compute_state_digest(
    graph::Network& net, exec::ExecContext& ctx,
    const std::vector<StateItem>* strategy_state,
    const std::vector<StateItem>* codec_state) {
  StateDigest d;

  // Collect the persistent entries first so the per-tensor pass can run as
  // a flat parallel_for with a deterministic slot per tensor.
  std::vector<nn::StateEntry> entries;
  for (nn::StateEntry& e : net.state()) {
    if (e.tensor != nullptr && digestable_role(e.role)) {
      entries.push_back(e);
    }
  }

  d.tensors.resize(entries.size() +
                   (strategy_state != nullptr ? strategy_state->size() : 0) +
                   (codec_state != nullptr ? codec_state->size() : 0));

  // Topology stamp: the (name, role, dims) sequence. Two replicas that have
  // applied the same reconfigurations produce the same stamp; a digest from
  // before a reconfiguration is incomparable, not mismatched.
  std::uint32_t topo = 0;
  for (const nn::StateEntry& e : entries) {
    topo = crc_mix_str(topo, e.name);
    topo = crc_mix<std::uint8_t>(topo, static_cast<std::uint8_t>(e.role));
    const auto& dims = e.tensor->shape().dims();
    topo = crc_mix<std::uint64_t>(topo, dims.size());
    for (std::int64_t dim : dims) topo = crc_mix<std::int64_t>(topo, dim);
  }

  // Per-tensor payload CRCs in parallel. Each slot is written by exactly
  // one chunk and each CRC depends only on its tensor's bytes, so the
  // result is bitwise-identical at any thread count.
  ctx.pool().parallel_for(
      static_cast<std::int64_t>(entries.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          const nn::StateEntry& e = entries[static_cast<std::size_t>(i)];
          TensorDigest& td = d.tensors[static_cast<std::size_t>(i)];
          td.name = e.name;
          td.role = static_cast<std::uint8_t>(e.role);
          td.crc = pt::crc32(e.tensor->data(),
                             static_cast<std::size_t>(e.tensor->numel()) *
                                 sizeof(float));
        }
      });

  // Strategy state rides along as pseudo-tensors: masks, trainable
  // thresholds, and saliency statistics steer the irreversible pruning
  // decisions just like weights do. Codec state (error-feedback residuals,
  // live-row masks) follows under a "codec/" prefix for the same reason —
  // it shapes every future gradient average.
  std::size_t slot = entries.size();
  auto append_items =
      [&](const std::vector<StateItem>* items, const char* prefix) {
        if (items == nullptr) return;
        for (const StateItem& item : *items) {
          topo = crc_mix_str(topo, item.name);
          topo = crc_mix<std::uint64_t>(topo, item.f32.size());
          topo = crc_mix<std::uint64_t>(topo, item.i64.size());
          TensorDigest& td = d.tensors[slot++];
          td.name = std::string(prefix) + item.name;
          td.role = static_cast<std::uint8_t>(nn::StateRole::kBuffer);
          std::uint32_t crc =
              pt::crc32(item.f32.data(), item.f32.size() * sizeof(float));
          crc = pt::crc32(item.i64.data(),
                          item.i64.size() * sizeof(std::int64_t), crc);
          td.crc = crc;
        }
      };
  append_items(strategy_state, "strategy/");
  append_items(codec_state, "codec/");

  d.topology = topo;

  // Chain the summary word: topology stamp first, then every per-tensor
  // CRC in entry order.
  std::uint32_t state = crc_mix<std::uint32_t>(0, topo);
  for (const TensorDigest& td : d.tensors) {
    state = crc_mix<std::uint32_t>(state, td.crc);
  }
  d.state = state;
  return d;
}

void IntegrityConfig::validate() const {
  if (check_interval < 0) {
    throw std::invalid_argument(
        "IntegrityConfig: check_interval must be >= 0 (got " +
        std::to_string(check_interval) + ")");
  }
}

IntegrityMonitor::IntegrityMonitor(IntegrityConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

VoteOutcome IntegrityMonitor::check_replicas(
    const std::vector<ReplicaView>& replicas, exec::ExecContext& ctx,
    const std::vector<StateItem>* strategy_state,
    const HealFn& heal,
    const std::vector<StateItem>* codec_state) {
  VoteOutcome out;
  ++checks_;
  if (replicas.size() <= 1) return out;  // nothing to vote against

  std::vector<StateDigest> digests(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    digests[i] = compute_state_digest(*replicas[i].net, ctx, strategy_state,
                                      codec_state);
    out.digest_bytes += digests[i].wire_bytes();
  }
  // Modeled digest exchange: an allgather ring moves each replica's digest
  // to every other replica, (n - 1) hops per digest.
  out.digest_bytes *= static_cast<std::int64_t>(replicas.size()) - 1;
  digest_bytes_total_ += out.digest_bytes;

  // Group replicas by (topology, state) digest. A replica whose topology
  // stamp diverged is its own minority — its state words are incomparable
  // with everyone else's, which is itself a corruption signal (topology
  // only changes at fenced reconfiguration points all replicas share).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    groups[{digests[i].topology, digests[i].state}].push_back(i);
  }
  if (groups.size() == 1) return out;  // unanimous

  out.mismatch = true;
  ++mismatches_;

  // Strict majority wins; ties have no winner.
  const std::size_t need = replicas.size() / 2 + 1;
  const std::vector<std::size_t>* majority = nullptr;
  std::pair<std::uint32_t, std::uint32_t> majority_key{};
  for (const auto& [key, members] : groups) {
    if (members.size() >= need) {
      majority = &members;
      majority_key = key;
      break;
    }
  }

  char buf[160];
  if (majority == nullptr) {
    out.no_quorum = true;
    std::string split;
    for (const auto& [key, members] : groups) {
      if (!split.empty()) split += " vs ";
      split += std::to_string(members.size());
    }
    std::snprintf(buf, sizeof(buf),
                  "digest vote split %s across %zu replicas: no strict "
                  "majority, cannot heal",
                  split.c_str(), replicas.size());
    out.detail = buf;
    log_error("integrity: " + out.detail);
    return out;
  }

  out.majority_crc = majority_key.second;
  const std::size_t root_idx = majority->front();
  out.healthy_root = replicas[root_idx].rank;

  // Heal every minority replica in place from the first majority member —
  // one fenced full-state copy, the rejoin resync mechanism, no rollback.
  for (const auto& [key, members] : groups) {
    if (&members == majority) continue;
    for (std::size_t idx : members) {
      const int victim = replicas[idx].rank;
      const std::vector<std::string> bad = digests[idx].diff(digests[root_idx]);
      std::string first_bad = bad.empty() ? "<summary-only>" : bad.front();
      std::snprintf(buf, sizeof(buf),
                    "replica %d digest %08x != majority %08x (%zu tensor(s), "
                    "first: %s)",
                    victim, digests[idx].state, majority_key.second, bad.size(),
                    first_bad.c_str());
      if (!out.detail.empty()) out.detail += "; ";
      out.detail += buf;
      log_warn("integrity: " + std::string(buf) + " — healing from replica " +
               std::to_string(out.healthy_root));
      if (heal) {
        out.heal_bytes += heal(victim, out.healthy_root);
      }
      out.healed.push_back(victim);
      ++heals_;
    }
  }
  heal_bytes_total_ += out.heal_bytes;
  if (telemetry::enabled()) {
    telemetry::count("integrity/mismatches");
    telemetry::count("integrity/heals",
                     static_cast<std::int64_t>(out.healed.size()));
    telemetry::count("integrity/heal_bytes", out.heal_bytes);
    telemetry::event("integrity/heal", out.detail);
  }
  return out;
}

CheckpointScrubber::CheckpointScrubber(std::int64_t keep_last_k)
    : keep_last_k_(keep_last_k) {
  if (keep_last_k_ < 0) {
    throw std::invalid_argument(
        "CheckpointScrubber: keep_last_k must be >= 0 (got " +
        std::to_string(keep_last_k_) + ")");
  }
}

void CheckpointScrubber::note_saved(const std::string& path,
                                    std::int64_t epoch) {
  for (GenerationInfo& g : generations_) {
    if (g.path == path) {
      g.epoch = epoch;
      g.scrubbed = false;
      g.valid = false;
      return;
    }
  }
  GenerationInfo g;
  g.path = path;
  g.epoch = epoch;
  generations_.push_back(std::move(g));
  std::sort(generations_.begin(), generations_.end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              return a.epoch < b.epoch;
            });
  while (keep_last_k_ > 0 &&
         generations_.size() > static_cast<std::size_t>(keep_last_k_)) {
    std::remove(generations_.front().path.c_str());
    generations_.erase(generations_.begin());
    ++evicted_;
    if (telemetry::enabled()) telemetry::count("integrity/ckpt_evicted");
  }
}

std::int64_t CheckpointScrubber::scrub(exec::ExecContext& ctx) {
  ++scrub_passes_;
  // Each chunk validates a disjoint slice of the ledger; verdicts land in
  // pre-assigned slots, so the pass is deterministic and race-free.
  ctx.pool().parallel_for(
      static_cast<std::int64_t>(generations_.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          GenerationInfo& g = generations_[static_cast<std::size_t>(i)];
          bool ok = false;
          try {
            // Throws on a short file or a CRC-32 footer mismatch — both a
            // torn write (torn-ckpt fault) and bit rot land here.
            (void)pt::read_file_bytes_crc32(g.path);
            ok = true;
          } catch (const std::exception&) {
            ok = false;
          }
          g.scrubbed = true;
          g.valid = ok;
        }
      });
  std::int64_t valid = 0;
  for (const GenerationInfo& g : generations_) {
    if (g.valid) ++valid;
    if (g.scrubbed && !g.valid) {
      log_warn("integrity: scrub found corrupt checkpoint generation " +
               std::to_string(g.epoch) + " at " + g.path);
    }
  }
  if (telemetry::enabled()) {
    telemetry::count("integrity/scrub_passes");
    telemetry::gauge("integrity/scrub_valid", static_cast<double>(valid));
  }
  return valid;
}

std::string CheckpointScrubber::newest_valid() const {
  for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
    if (it->scrubbed && it->valid) return it->path;
  }
  return "";
}

const GenerationInfo* CheckpointScrubber::verdict(
    const std::string& path) const {
  for (const GenerationInfo& g : generations_) {
    if (g.path == path) return g.scrubbed ? &g : nullptr;
  }
  return nullptr;
}

}  // namespace pt::robust
