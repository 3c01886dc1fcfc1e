#include "robust/fault.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/fileio.h"

namespace pt::robust {

namespace {

using Kind = FaultSpec::Kind;
using C = FaultConsumer;

// The keys of each consumer's queries.
constexpr const char* kStepKeys = "epoch,step,replica,count";
constexpr const char* kReplicaKeys = "step,replica,count";
constexpr const char* kSaveKeys = "epoch,count";

// The fault-kind table. Each consumer queries the injector with fixed
// wildcards (-1) for the coordinates it does not know, so a kind reads
// exactly the keys its consumer can match.
const std::vector<FaultKindInfo> kKinds = {
    {Kind::kNanGrad, "nan-grad", C::kStepHook, kStepKeys,
     "set one gradient element to quiet NaN"},
    {Kind::kBitflipGrad, "bitflip-grad", C::kStepHook, kStepKeys,
     "flip one random bit of one grad element"},
    {Kind::kScaleGrad, "scale-grad", C::kStepHook,
     "epoch,step,replica,count,scale", "multiply every gradient by `scale`"},
    {Kind::kDropReplica, "drop-replica", C::kMembership, kReplicaKeys,
     "replica's shard fails; retried twice,\n"
     "then dropped from the allreduce"},
    {Kind::kDelayReplica, "delay-replica", C::kMembership,
     "step,replica,count,delay", "replica straggles `delay` modeled secs"},
    {Kind::kKillReplica, "kill-replica", C::kMembership, kReplicaKeys,
     "permanent death: misses every heartbeat"},
    {Kind::kFlakyReplica, "flaky-replica", C::kMembership,
     "step,replica,count,prob", "dies with probability `prob` per step"},
    {Kind::kRejoinReplica, "rejoin-replica", C::kMembership, kReplicaKeys,
     "revive a dead replica at matching step"},
    {Kind::kTruncateCkpt, "truncate-ckpt", C::kCheckpointSave, kSaveKeys,
     "truncate checkpoint files to half size"},
    {Kind::kCorruptCkpt, "corrupt-ckpt", C::kCheckpointSave, kSaveKeys,
     "flip one random byte of checkpoint files"},
    {Kind::kTornCkpt, "torn-ckpt", C::kCheckpointSave, kSaveKeys,
     "truncate checkpoints through the CRC-32\n"
     "footer (partial write died mid-save)"},
    {Kind::kSdcParam, "sdc-param", C::kStepHook, kStepKeys,
     "silent corruption: flip one bit of one\n"
     "parameter element post-step, kept finite"},
    {Kind::kSdcMomentum, "sdc-momentum", C::kStepHook, kStepKeys,
     "silent corruption: flip one bit of one\n"
     "momentum element post-step, kept finite"},
    {Kind::kPoisonCkpt, "poison-ckpt", C::kPoisonHarness, "epoch,count,scale",
     "CRC-valid checkpoint, corrupt tensors:\n"
     "classifier head goes NaN (or seeded\n"
     "garbage when scale= is given) pre-save"},
    {Kind::kSlowModel, "slow-model", C::kServeBatch, "epoch,step,count,scale",
     "inflate a generation's modeled service\n"
     "ticks (epoch=generation, step=batch id)"},
    {Kind::kFlakyOutput, "flaky-output", C::kServeBatch, "epoch,step,count",
     "inject one quiet-NaN logit into a served\n"
     "batch (epoch=generation, step=batch id)"},
};

/// True when `item` is one entry of the comma-separated `list`.
bool in_list(const std::string& list, const std::string& item) {
  return ("," + list + ",").find("," + item + ",") != std::string::npos;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string pad(const std::string& text, std::size_t width) {
  return text.size() < width ? text + std::string(width - text.size(), ' ')
                             : text;
}

/// Parses `text` and pairs every spec with its clause's text, for error
/// messages (parse_fault_specs yields exactly one spec per clause).
std::vector<std::pair<FaultSpec, std::string>> parse_clauses(
    const std::string& text) {
  std::vector<std::pair<FaultSpec, std::string>> out;
  const std::vector<FaultSpec> specs = parse_fault_specs(text);
  const std::vector<std::string> clauses = split(text, ';');
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.emplace_back(specs[i], clauses[i]);
  }
  return out;
}

[[noreturn]] void reject(const std::string& clause, const std::string& why) {
  throw std::invalid_argument("fault spec clause '" + clause + "' " + why +
                              " and would never fire");
}

}  // namespace

const std::vector<FaultKindInfo>& fault_kinds() { return kKinds; }

const FaultKindInfo& fault_kind(FaultSpec::Kind kind) {
  for (const FaultKindInfo& row : kKinds) {
    if (row.kind == kind) return row;
  }
  throw std::logic_error("fault kind missing from the kind table");
}

std::string to_string(FaultSpec::Kind kind) { return fault_kind(kind).name; }

bool FaultKindInfo::reads(const std::string& key) const {
  return in_list(keys, key);
}

std::string fault_spec_help() {
  std::string out =
      "fault spec grammar:  <kind>[:key=value[,key=value...]][;<kind>:...]\n"
      "\n"
      "  kind            semantics                                 keys\n"
      "  --------------  ----------------------------------------  ------------------------\n";
  for (const FaultKindInfo& row : kKinds) {
    const std::vector<std::string> lines = split(row.help, '\n');
    out += "  " + pad(row.name, 16) + pad(lines[0], 42) + row.keys + "\n";
    for (std::size_t i = 1; i < lines.size(); ++i) {
      out += std::string(18, ' ') + lines[i] + "\n";
    }
  }
  return out +
      "\n"
      "  keys (wildcards when omitted):\n"
      "    epoch=<N>    fire only at global epoch N (serve kinds: generation)\n"
      "    step=<N>     fire only at step N: with epoch=, step N of that\n"
      "                 epoch (grad and sdc kinds); else the cluster's N-th\n"
      "                 step (serve kinds: batch id)\n"
      "    replica=<N>  fire only for replica N\n"
      "    count=<N>    max firings; 0 = unlimited        (default 1)\n"
      "    scale=<X>    scale-grad multiplier             (default 1e4)\n"
      "                 poison-ckpt garbage magnitude     (default: NaN mode)\n"
      "                 slow-model inflation factor       (default 8)\n"
      "    delay=<X>    delay-replica modeled seconds     (default 5)\n"
      "    prob=<X>     flaky-replica death probability   (default 0.05)\n"
      "\n"
      "  examples:\n"
      "    nan-grad:epoch=7\n"
      "    kill-replica:replica=2,step=50\n"
      "    flaky-replica:prob=0.2,count=0\n"
      "    kill-replica:replica=1,step=10;rejoin-replica:replica=1,step=40\n"
      "    sdc-param:replica=1,step=3\n"
      "    torn-ckpt:epoch=4\n"
      "    poison-ckpt:epoch=5\n"
      "    slow-model:epoch=2,scale=16,count=0\n"
      "    flaky-output:epoch=3,count=2\n"
      "\n"
      "  Determinism: matching is pure arithmetic on (epoch, step, replica,\n"
      "  firings so far); random choices draw from a pt::Rng seeded at\n"
      "  construction, so equal spec + seed => bitwise-equal faults.\n";
}

std::vector<FaultSpec> parse_fault_specs(const std::string& text) {
  std::vector<FaultSpec> specs;
  if (text.empty()) return specs;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) {
      throw std::invalid_argument("fault spec: empty clause");
    }
    const std::size_t colon = clause.find(':');
    const std::string name = clause.substr(0, colon);
    const FaultKindInfo* row = nullptr;
    for (const FaultKindInfo& r : kKinds) {
      if (name == r.name) row = &r;
    }
    if (row == nullptr) {
      throw std::invalid_argument("fault spec: unknown kind '" + name + "'");
    }
    FaultSpec spec;
    spec.kind = row->kind;
    if (colon == std::string::npos) {
      specs.push_back(spec);
      continue;
    }
    std::vector<std::string> seen;  // the keys this clause has set
    for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) {
        throw std::invalid_argument("fault spec: malformed key=value '" + kv +
                                    "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (!in_list(kFaultKeys, key)) {
        throw std::invalid_argument("fault spec: unknown key '" + key + "'");
      }
      if (!row->reads(key)) {
        throw std::invalid_argument("fault spec clause '" + clause +
                                    "' sets " + key + "=, which " + name +
                                    " does not read");
      }
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        throw std::invalid_argument("fault spec clause '" + clause +
                                    "' sets " + key + "= twice");
      }
      seen.push_back(key);
      // The std::sto* functions stop at the first character they cannot
      // read; the whole value must be consumed, so "3x" and "1.9" are not
      // read as 3 and 1.
      std::size_t used = 0;
      try {
        if (key == "epoch") {
          spec.epoch = std::stoll(value, &used);
        } else if (key == "step") {
          spec.step = std::stoll(value, &used);
        } else if (key == "replica") {
          spec.replica = std::stoi(value, &used);
        } else if (key == "count") {
          spec.count = std::stoll(value, &used);
        } else if (key == "scale") {
          spec.scale = std::stod(value, &used);
          spec.scale_set = true;
        } else if (key == "delay") {
          spec.delay_seconds = std::stod(value, &used);
        } else {
          spec.prob = std::stod(value, &used);
        }
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != value.size()) {
        throw std::invalid_argument("fault spec clause '" + clause +
                                    "': bad value in '" + kv + "'");
      }
    }
    if (spec.count < 0) {
      throw std::invalid_argument("fault spec: count must be >= 0");
    }
    if (spec.kind == Kind::kFlakyReplica &&
        !(spec.prob >= 0.0 && spec.prob <= 1.0)) {
      throw std::invalid_argument(
          "fault spec: flaky-replica prob must lie in [0, 1]");
    }
    if (spec.kind == Kind::kSlowModel && spec.scale_set &&
        !(spec.scale >= 1.0)) {
      throw std::invalid_argument(
          "fault spec: slow-model scale must be >= 1 (an inflation factor)");
    }
    specs.push_back(spec);
  }
  return specs;
}

void validate_training_faults(const std::string& text, int replicas,
                              bool checkpointing, std::int64_t run_epochs,
                              std::int64_t suspect_threshold,
                              bool allow_rejoin) {
  const auto clauses = parse_clauses(text);
  for (const auto& [s, clause] : clauses) {
    auto fail = [&](const std::string& why) { reject(clause, why); };
    switch (fault_kind(s.kind).consumer) {
      case C::kMembership:
        if (replicas == 1) fail("targets cluster replicas at replicas=1");
        break;
      case C::kServeBatch:
        fail("is a serving fault; no trainer consumes it");
        break;
      case C::kPoisonHarness:
        fail("poisons a network before a harness saves it; no trainer "
             "consumes it");
        break;
      case C::kCheckpointSave:
        if (!checkpointing) fail("strikes checkpoints, but none are written");
        if (s.epoch > run_epochs) {
          fail("sets epoch=" + std::to_string(s.epoch) +
               ", but the last checkpoint is saved at epoch " +
               std::to_string(run_epochs));
        }
        break;
      case C::kStepHook:
        if (s.epoch >= run_epochs) {
          fail("sets epoch=" + std::to_string(s.epoch) + ", but the run has " +
               std::to_string(run_epochs) + " epochs (0-based)");
        }
        break;
    }
    if (s.replica >= 0 && replicas == 1) {
      fail("sets replica=, but single-device training has no replica index");
    }
    if (s.replica >= replicas) {
      fail("targets replica " + std::to_string(s.replica) +
           ", which does not exist (replicas=" + std::to_string(replicas) +
           ")");
    }
    if (s.kind != Kind::kRejoinReplica) continue;
    if (!allow_rejoin) fail("revives a dead replica, but allow_rejoin is off");
    // The membership poll only revives a DEAD replica, and a replica killed
    // at step k is DEAD from step k + suspect_threshold - 1: some
    // kill-replica or flaky-replica clause must kill it that early.
    bool killable = false;
    for (const auto& other : clauses) {
      const FaultSpec& k = other.first;
      killable |= (k.kind == Kind::kKillReplica ||
                   k.kind == Kind::kFlakyReplica) &&
                  (k.replica < 0 || s.replica < 0 || k.replica == s.replica) &&
                  (k.step < 0 || s.step < 0 ||
                   k.step + suspect_threshold <= s.step);
    }
    if (!killable) {
      fail("revives a dead replica, but no kill-replica or flaky-replica "
           "clause kills one at least suspect_threshold=" +
           std::to_string(suspect_threshold) + " steps before it");
    }
  }
}

void validate_fault_steps(const std::string& text,
                          std::int64_t steps_per_epoch,
                          std::int64_t run_steps) {
  for (const auto& [s, clause] : parse_clauses(text)) {
    const C consumer = fault_kind(s.kind).consumer;
    if (consumer != C::kStepHook && consumer != C::kMembership) continue;
    // With epoch=, a step-hook clause counts steps within that epoch.
    const bool in_epoch = consumer == C::kStepHook && s.epoch >= 0;
    const std::int64_t steps = in_epoch ? steps_per_epoch : run_steps;
    if (s.step >= steps) {
      reject(clause, "sets step=" + std::to_string(s.step) + ", but " +
                         (in_epoch ? "an epoch" : "the run") +
                         " has at most " + std::to_string(steps) +
                         " steps, numbered from 0");
    }
  }
}

void validate_serving_faults(const std::string& text) {
  for (const auto& [s, clause] : parse_clauses(text)) {
    if (fault_kind(s.kind).consumer != C::kServeBatch) {
      reject(clause, "is not a serving fault; the serving runtime never "
                     "queries it");
    }
  }
}

FaultInjector::FaultInjector(std::vector<FaultSpec> specs, std::uint64_t seed)
    : rng_(seed) {
  specs_.reserve(specs.size());
  for (FaultSpec& s : specs) specs_.push_back({s, 0});
}

FaultInjector FaultInjector::from_string(const std::string& text,
                                         std::uint64_t seed) {
  return FaultInjector(parse_fault_specs(text), seed);
}

template <class Act>
bool FaultInjector::fire(std::initializer_list<FaultSpec::Kind> kinds,
                         const StepClock& clock, int replica, bool once,
                         Act&& act) {
  bool fired = false;
  for (Armed& a : specs_) {
    const FaultSpec& s = a.spec;
    if (std::find(kinds.begin(), kinds.end(), s.kind) == kinds.end()) continue;
    const std::int64_t step = s.epoch >= 0 ? clock.epoch_step : clock.step;
    if ((s.count != 0 && a.fires >= s.count) ||
        (s.epoch >= 0 && s.epoch != clock.epoch) ||
        (s.step >= 0 && s.step != step) ||
        (s.replica >= 0 && s.replica != replica) || !act(s)) {
      continue;
    }
    ++a.fires;
    fired = true;
    if (once) break;
  }
  return fired;
}

bool FaultInjector::corrupt_gradients(graph::Network& net,
                                      const StepClock& clock, int replica) {
  const auto act = [&](const FaultSpec& s) {
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) return false;
    if (s.kind == Kind::kScaleGrad) {
      for (nn::Param* p : params) {
        float* g = p->grad.data();
        for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
          g[i] *= static_cast<float>(s.scale);
        }
      }
      return true;
    }
    nn::Param* victim =
        params[static_cast<std::size_t>(rng_.uniform_int(params.size()))];
    const std::int64_t elem = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(victim->grad.numel())));
    float* g = victim->grad.data() + elem;
    if (s.kind == Kind::kNanGrad) {
      *g = std::numeric_limits<float>::quiet_NaN();
    } else {
      std::uint32_t bits;
      std::memcpy(&bits, g, sizeof(bits));
      bits ^= 1u << rng_.uniform_int(32);
      std::memcpy(g, &bits, sizeof(bits));
    }
    return true;
  };
  return fire({Kind::kNanGrad, Kind::kBitflipGrad, Kind::kScaleGrad}, clock,
              replica, false, act);
}

// The membership kinds match on the cluster's step counter only.
bool FaultInjector::drop_replica(int replica, std::int64_t step) {
  return fire({Kind::kDropReplica}, {-1, -1, step}, replica, true,
              [](const FaultSpec&) { return true; });
}

double FaultInjector::replica_delay(int replica, std::int64_t step) {
  double delay = 0.0;
  fire({Kind::kDelayReplica}, {-1, -1, step}, replica, true,
       [&](const FaultSpec& s) {
         delay = s.delay_seconds;
         return true;
       });
  return delay;
}

bool FaultInjector::kill_replica(int replica, std::int64_t step) {
  return fire({Kind::kKillReplica}, {-1, -1, step}, replica, true,
              [](const FaultSpec&) { return true; });
}

bool FaultInjector::flaky_replica(int replica, std::int64_t step) {
  // Every matching clause draws, even when the replica survives, so the RNG
  // stream depends only on the (deterministic) query sequence, not on
  // earlier outcomes.
  return fire({Kind::kFlakyReplica}, {-1, -1, step}, replica, true,
              [&](const FaultSpec& s) { return rng_.uniform() < s.prob; });
}

bool FaultInjector::rejoin_replica(int replica, std::int64_t step) {
  return fire({Kind::kRejoinReplica}, {-1, -1, step}, replica, true,
              [](const FaultSpec&) { return true; });
}

bool FaultInjector::corrupt_state(graph::Network& net, const StepClock& clock,
                                  int replica) {
  const auto act = [&](const FaultSpec& s) {
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) return false;
    nn::Param* victim =
        params[static_cast<std::size_t>(rng_.uniform_int(params.size()))];
    Tensor& t = s.kind == Kind::kSdcParam ? victim->value : victim->momentum;
    const std::int64_t elem = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(t.numel())));
    float* x = t.data() + elem;
    // Flip one bit, retrying the bit choice until the result stays finite:
    // the corruption must sail past every NaN/Inf scan (a mantissa or
    // low-exponent flip almost always does; the retry bounds the tail).
    std::uint32_t bits;
    std::memcpy(&bits, x, sizeof(bits));
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint32_t flipped = bits ^ (1u << rng_.uniform_int(32));
      float candidate;
      std::memcpy(&candidate, &flipped, sizeof(candidate));
      if (std::isfinite(candidate) && candidate != *x) {
        std::memcpy(x, &candidate, sizeof(candidate));
        break;
      }
    }
    return true;
  };
  return fire({Kind::kSdcParam, Kind::kSdcMomentum}, clock, replica, false,
              act);
}

bool FaultInjector::corrupt_checkpoint_files(
    const std::vector<std::string>& paths, std::int64_t epoch) {
  const auto act = [&](const FaultSpec& s) {
    for (const std::string& path : paths) {
      std::vector<std::uint8_t> bytes = read_file_bytes(path);
      if (bytes.empty()) continue;
      if (s.kind == Kind::kTruncateCkpt) {
        bytes.resize(bytes.size() / 2);
      } else if (s.kind == Kind::kTornCkpt) {
        // A write that died just before completing the 4-byte CRC-32
        // footer: cut the last 6 bytes (the footer plus the payload tail),
        // leaving a file that is almost whole but fails footer validation.
        bytes.resize(bytes.size() > 6 ? bytes.size() - 6 : 0);
      } else {
        const std::size_t at =
            static_cast<std::size_t>(rng_.uniform_int(bytes.size()));
        bytes[at] ^= 0xffu;
      }
      // Deliberately a plain overwrite, not atomic_write_file: this *is*
      // the torn-write failure mode the loader must survive.
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    return true;
  };
  return fire({Kind::kTruncateCkpt, Kind::kCorruptCkpt, Kind::kTornCkpt},
              {epoch, -1, -1}, -1, true, act);
}

bool FaultInjector::poison_network(graph::Network& net,
                                   std::int64_t generation) {
  const auto act = [&](const FaultSpec& s) {
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) return false;
    // Poison the classifier head only: the convolutional body stays
    // intact, so channel analysis, materialization, and the CRC-32 footer
    // all pass — the corruption is visible only in the logits themselves.
    const std::size_t first = params.size() > 2 ? params.size() - 2 : 0;
    for (std::size_t p = first; p < params.size(); ++p) {
      Tensor& t = params[p]->value;
      float* x = t.data();
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        x[i] = s.scale_set ? static_cast<float>(rng_.normal() * s.scale)
                           : std::numeric_limits<float>::quiet_NaN();
      }
    }
    return true;
  };
  return fire({Kind::kPoisonCkpt}, {generation, -1, -1}, -1, false, act);
}

// The serve kinds: epoch= is the generation, step= the batch id.
double FaultInjector::slow_model_factor(std::int64_t generation,
                                        std::int64_t batch) {
  double factor = 1.0;
  fire({Kind::kSlowModel}, {generation, batch, batch}, -1, true,
       [&](const FaultSpec& s) {
         factor = s.scale_set ? s.scale : 8.0;
         return true;
       });
  return factor;
}

bool FaultInjector::corrupt_output(Tensor& logits, std::int64_t generation,
                                   std::int64_t batch) {
  const auto act = [&](const FaultSpec&) {
    if (logits.numel() <= 0) return false;
    const std::int64_t at = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(logits.numel())));
    logits.data()[at] = std::numeric_limits<float>::quiet_NaN();
    return true;
  };
  return fire({Kind::kFlakyOutput}, {generation, batch, batch}, -1, false,
              act);
}

std::int64_t FaultInjector::total_fires() const {
  std::int64_t total = 0;
  for (const Armed& a : specs_) total += a.fires;
  return total;
}

}  // namespace pt::robust
