#include "robust/fault.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/fileio.h"

namespace pt::robust {

std::string to_string(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kNanGrad: return "nan-grad";
    case FaultSpec::Kind::kBitflipGrad: return "bitflip-grad";
    case FaultSpec::Kind::kScaleGrad: return "scale-grad";
    case FaultSpec::Kind::kDropReplica: return "drop-replica";
    case FaultSpec::Kind::kDelayReplica: return "delay-replica";
    case FaultSpec::Kind::kTruncateCkpt: return "truncate-ckpt";
    case FaultSpec::Kind::kCorruptCkpt: return "corrupt-ckpt";
    case FaultSpec::Kind::kKillReplica: return "kill-replica";
    case FaultSpec::Kind::kFlakyReplica: return "flaky-replica";
    case FaultSpec::Kind::kRejoinReplica: return "rejoin-replica";
    case FaultSpec::Kind::kSdcParam: return "sdc-param";
    case FaultSpec::Kind::kSdcMomentum: return "sdc-momentum";
    case FaultSpec::Kind::kTornCkpt: return "torn-ckpt";
    case FaultSpec::Kind::kPoisonCkpt: return "poison-ckpt";
    case FaultSpec::Kind::kSlowModel: return "slow-model";
    case FaultSpec::Kind::kFlakyOutput: return "flaky-output";
  }
  return "?";
}

std::string fault_spec_help() {
  return
      "fault spec grammar:  <kind>[:key=value[,key=value...]][;<kind>:...]\n"
      "\n"
      "  kind            semantics                                 keys\n"
      "  --------------  ----------------------------------------  ------------------------\n"
      "  nan-grad        set one gradient element to quiet NaN     epoch,step,replica,count\n"
      "  bitflip-grad    flip one random bit of one grad element   epoch,step,replica,count\n"
      "  scale-grad      multiply every gradient by `scale`        epoch,step,replica,count,scale\n"
      "  drop-replica    replica's shard fails; retried twice,     step,replica,count\n"
      "                  then dropped from the allreduce\n"
      "  delay-replica   replica straggles `delay` modeled secs    step,replica,count,delay\n"
      "  kill-replica    permanent death: misses every heartbeat   step,replica,count\n"
      "  flaky-replica   dies with probability `prob` per step     step,replica,count,prob\n"
      "  rejoin-replica  revive a dead replica at matching step    step,replica,count\n"
      "  truncate-ckpt   truncate checkpoint files to half size    epoch,count\n"
      "  corrupt-ckpt    flip one random byte of checkpoint files  epoch,count\n"
      "  torn-ckpt       truncate checkpoints through the CRC-32   epoch,count\n"
      "                  footer (partial write died mid-save)\n"
      "  sdc-param       silent corruption: flip one bit of one    epoch,step,replica,count\n"
      "                  parameter element post-step, kept finite\n"
      "  sdc-momentum    silent corruption: flip one bit of one    epoch,step,replica,count\n"
      "                  momentum element post-step, kept finite\n"
      "  poison-ckpt     CRC-valid checkpoint, corrupt tensors:    epoch,count,scale\n"
      "                  classifier head goes NaN (or seeded\n"
      "                  garbage when scale= is given) pre-save\n"
      "  slow-model      inflate a generation's modeled service    epoch,step,count,scale\n"
      "                  ticks (epoch=generation, step=batch id)\n"
      "  flaky-output    inject one quiet-NaN logit into a served  epoch,step,count\n"
      "                  batch (epoch=generation, step=batch id)\n"
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

namespace {

FaultSpec::Kind parse_kind(const std::string& token) {
  using Kind = FaultSpec::Kind;
  for (Kind k : {Kind::kNanGrad, Kind::kBitflipGrad, Kind::kScaleGrad,
                 Kind::kDropReplica, Kind::kDelayReplica, Kind::kTruncateCkpt,
                 Kind::kCorruptCkpt, Kind::kKillReplica, Kind::kFlakyReplica,
                 Kind::kRejoinReplica, Kind::kSdcParam, Kind::kSdcMomentum,
                 Kind::kTornCkpt, Kind::kPoisonCkpt, Kind::kSlowModel,
                 Kind::kFlakyOutput}) {
    if (token == to_string(k)) return k;
  }
  throw std::invalid_argument("fault spec: unknown kind '" + token + "'");
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

}  // namespace

std::vector<FaultSpec> parse_fault_specs(const std::string& text) {
  std::vector<FaultSpec> specs;
  if (text.empty()) return specs;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) {
      throw std::invalid_argument("fault spec: empty clause");
    }
    const std::size_t colon = clause.find(':');
    FaultSpec spec;
    spec.kind = parse_kind(clause.substr(0, colon));
    if (colon == std::string::npos) {
      specs.push_back(spec);
      continue;
    }
    for (const std::string& kv : split(clause.substr(colon + 1), ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) {
        throw std::invalid_argument("fault spec: malformed key=value '" + kv +
                                    "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      try {
        if (key == "epoch") {
          spec.epoch = std::stoll(value);
        } else if (key == "step") {
          spec.step = std::stoll(value);
        } else if (key == "replica") {
          spec.replica = std::stoi(value);
        } else if (key == "count") {
          spec.count = std::stoll(value);
        } else if (key == "scale") {
          spec.scale = std::stod(value);
          spec.scale_set = true;
        } else if (key == "delay") {
          spec.delay_seconds = std::stod(value);
        } else if (key == "prob") {
          spec.prob = std::stod(value);
        } else {
          throw std::invalid_argument("fault spec: unknown key '" + key + "'");
        }
      } catch (const std::invalid_argument&) {
        throw;
      } catch (const std::exception&) {
        throw std::invalid_argument("fault spec: bad value in '" + kv + "'");
      }
    }
    if (spec.count < 0) {
      throw std::invalid_argument("fault spec: count must be >= 0");
    }
    if (spec.kind == FaultSpec::Kind::kFlakyReplica &&
        !(spec.prob >= 0.0 && spec.prob <= 1.0)) {
      throw std::invalid_argument(
          "fault spec: flaky-replica prob must lie in [0, 1]");
    }
    if (spec.kind == FaultSpec::Kind::kSlowModel && spec.scale_set &&
        !(spec.scale >= 1.0)) {
      throw std::invalid_argument(
          "fault spec: slow-model scale must be >= 1 (an inflation factor)");
    }
    specs.push_back(spec);
  }
  return specs;
}

void validate_training_faults(const std::string& text, int replicas,
                              bool checkpointing, std::int64_t run_epochs) {
  using Kind = FaultSpec::Kind;
  // parse_fault_specs yields exactly one spec per ';'-separated clause.
  const std::vector<FaultSpec> specs = parse_fault_specs(text);
  const std::vector<std::string> clauses = split(text, ';');
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& s = specs[i];
    auto reject = [&](const std::string& why) {
      throw std::invalid_argument("fault spec clause '" + clauses[i] + "' " +
                                  why + " and would never fire");
    };
    // Each consumer queries the injector with fixed wildcards (-1) for the
    // coordinates it does not know; a clause keyed on one never matches.
    switch (s.kind) {
      case Kind::kDropReplica:
      case Kind::kDelayReplica:
      case Kind::kKillReplica:
      case Kind::kFlakyReplica:
      case Kind::kRejoinReplica:
        if (replicas == 1) reject("targets cluster replicas at replicas=1");
        if (s.epoch >= 0) {
          reject("sets epoch=, but replica faults match on the cluster's "
                 "step clock only");
        }
        break;
      case Kind::kPoisonCkpt:
      case Kind::kSlowModel:
      case Kind::kFlakyOutput:
        reject("is a serving fault; no trainer consumes it");
        break;
      case Kind::kTruncateCkpt:
      case Kind::kCorruptCkpt:
      case Kind::kTornCkpt:
        if (!checkpointing) reject("strikes checkpoints, but none are written");
        if (s.step >= 0 || s.replica >= 0) {
          reject("sets step= or replica=, but checkpoint faults match on "
                 "the epoch only");
        }
        if (s.epoch > run_epochs) {
          reject("sets epoch=" + std::to_string(s.epoch) +
                 ", but the last checkpoint is saved at epoch " +
                 std::to_string(run_epochs));
        }
        break;
      case Kind::kNanGrad:
      case Kind::kBitflipGrad:
      case Kind::kScaleGrad:
      case Kind::kSdcParam:
      case Kind::kSdcMomentum:
        if (s.epoch >= run_epochs) {
          reject("sets epoch=" + std::to_string(s.epoch) +
                 ", but the run has " + std::to_string(run_epochs) +
                 " epochs (0-based)");
        }
        break;
    }
    if (s.replica >= 0 && replicas == 1) {
      reject("sets replica=, but single-device training has no replica index");
    }
    if (s.replica >= replicas) {
      reject("targets replica " + std::to_string(s.replica) +
             ", which does not exist (replicas=" + std::to_string(replicas) +
             ")");
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

bool FaultInjector::matches(const Armed& a, std::int64_t epoch,
                            std::int64_t step, int replica) {
  if (a.spec.count != 0 && a.fires >= a.spec.count) return false;
  if (a.spec.epoch >= 0 && a.spec.epoch != epoch) return false;
  if (a.spec.step >= 0 && a.spec.step != step) return false;
  if (a.spec.replica >= 0 && a.spec.replica != replica) return false;
  return true;
}

bool FaultInjector::matches(const Armed& a, const StepClock& clock,
                            int replica) {
  return a.spec.epoch >= 0
             ? matches(a, clock.epoch, clock.epoch_step, replica)
             : matches(a, -1, clock.step, replica);
}

bool FaultInjector::corrupt_gradients(graph::Network& net,
                                      const StepClock& clock, int replica) {
  bool fired = false;
  for (Armed& a : specs_) {
    const auto kind = a.spec.kind;
    if (kind != FaultSpec::Kind::kNanGrad &&
        kind != FaultSpec::Kind::kBitflipGrad &&
        kind != FaultSpec::Kind::kScaleGrad) {
      continue;
    }
    if (!matches(a, clock, replica)) continue;
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) continue;
    ++a.fires;
    fired = true;
    if (kind == FaultSpec::Kind::kScaleGrad) {
      for (nn::Param* p : params) {
        float* g = p->grad.data();
        for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
          g[i] *= static_cast<float>(a.spec.scale);
        }
      }
      continue;
    }
    nn::Param* victim =
        params[static_cast<std::size_t>(rng_.uniform_int(params.size()))];
    const std::int64_t elem = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(victim->grad.numel())));
    float* g = victim->grad.data() + elem;
    if (kind == FaultSpec::Kind::kNanGrad) {
      *g = std::numeric_limits<float>::quiet_NaN();
    } else {
      std::uint32_t bits;
      std::memcpy(&bits, g, sizeof(bits));
      bits ^= 1u << rng_.uniform_int(32);
      std::memcpy(g, &bits, sizeof(bits));
    }
  }
  return fired;
}

bool FaultInjector::drop_replica(int replica, std::int64_t step) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kDropReplica) continue;
    // epoch = -1: an epoch-constrained spec never matches cluster steps.
    if (!matches(a, -1, step, replica)) continue;
    ++a.fires;
    return true;
  }
  return false;
}

double FaultInjector::replica_delay(int replica, std::int64_t step) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kDelayReplica) continue;
    if (!matches(a, -1, step, replica)) continue;
    ++a.fires;
    return a.spec.delay_seconds;
  }
  return 0.0;
}

bool FaultInjector::kill_replica(int replica, std::int64_t step) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kKillReplica) continue;
    if (!matches(a, -1, step, replica)) continue;
    ++a.fires;
    return true;
  }
  return false;
}

bool FaultInjector::flaky_replica(int replica, std::int64_t step) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kFlakyReplica) continue;
    if (!matches(a, -1, step, replica)) continue;
    // Draw even when the replica survives so the RNG stream depends only
    // on the (deterministic) query sequence, not on earlier outcomes.
    const bool dies = rng_.uniform() < a.spec.prob;
    if (!dies) continue;
    ++a.fires;
    return true;
  }
  return false;
}

bool FaultInjector::rejoin_replica(int replica, std::int64_t step) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kRejoinReplica) continue;
    if (!matches(a, -1, step, replica)) continue;
    ++a.fires;
    return true;
  }
  return false;
}

bool FaultInjector::corrupt_state(graph::Network& net, const StepClock& clock,
                                  int replica) {
  bool fired = false;
  for (Armed& a : specs_) {
    const auto kind = a.spec.kind;
    if (kind != FaultSpec::Kind::kSdcParam &&
        kind != FaultSpec::Kind::kSdcMomentum) {
      continue;
    }
    if (!matches(a, clock, replica)) continue;
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) continue;
    ++a.fires;
    fired = true;
    nn::Param* victim =
        params[static_cast<std::size_t>(rng_.uniform_int(params.size()))];
    Tensor& t = kind == FaultSpec::Kind::kSdcParam ? victim->value
                                                   : victim->momentum;
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
  }
  return fired;
}

bool FaultInjector::corrupt_checkpoint_files(
    const std::vector<std::string>& paths, std::int64_t epoch) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kTruncateCkpt &&
        a.spec.kind != FaultSpec::Kind::kCorruptCkpt &&
        a.spec.kind != FaultSpec::Kind::kTornCkpt) {
      continue;
    }
    if (!matches(a, epoch, -1, -1)) continue;
    ++a.fires;
    for (const std::string& path : paths) {
      std::vector<std::uint8_t> bytes = read_file_bytes(path);
      if (bytes.empty()) continue;
      if (a.spec.kind == FaultSpec::Kind::kTruncateCkpt) {
        bytes.resize(bytes.size() / 2);
      } else if (a.spec.kind == FaultSpec::Kind::kTornCkpt) {
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
  }
  return false;
}

bool FaultInjector::poison_network(graph::Network& net,
                                   std::int64_t generation) {
  bool fired = false;
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kPoisonCkpt) continue;
    if (!matches(a, generation, -1, -1)) continue;
    std::vector<nn::Param*> params = net.params();
    if (params.empty()) continue;
    ++a.fires;
    fired = true;
    // Poison the classifier head only: the convolutional body stays
    // intact, so channel analysis, materialization, and the CRC-32 footer
    // all pass — the corruption is visible only in the logits themselves.
    const std::size_t first = params.size() > 2 ? params.size() - 2 : 0;
    for (std::size_t p = first; p < params.size(); ++p) {
      Tensor& t = params[p]->value;
      float* x = t.data();
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        x[i] = a.spec.scale_set
                   ? static_cast<float>(rng_.normal() * a.spec.scale)
                   : std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  return fired;
}

double FaultInjector::slow_model_factor(std::int64_t generation,
                                        std::int64_t batch) {
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kSlowModel) continue;
    if (!matches(a, generation, batch, -1)) continue;
    ++a.fires;
    return a.spec.scale_set ? a.spec.scale : 8.0;
  }
  return 1.0;
}

bool FaultInjector::corrupt_output(Tensor& logits, std::int64_t generation,
                                   std::int64_t batch) {
  bool fired = false;
  for (Armed& a : specs_) {
    if (a.spec.kind != FaultSpec::Kind::kFlakyOutput) continue;
    if (!matches(a, generation, batch, -1)) continue;
    if (logits.numel() <= 0) continue;
    ++a.fires;
    fired = true;
    const std::int64_t at = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(logits.numel())));
    logits.data()[at] = std::numeric_limits<float>::quiet_NaN();
  }
  return fired;
}

std::int64_t FaultInjector::total_fires() const {
  std::int64_t total = 0;
  for (const Armed& a : specs_) total += a.fires;
  return total;
}

}  // namespace pt::robust
