// Pluggable gradient codecs for the simulated allreduce (ISSUE 9
// tentpole).
//
// PruneTrain's comm saving is multiplicative: periodic reconfiguration
// shrinks the live channel set (fewer coordinates), dynamic mini-batch
// adjustment shrinks the update count, and a compressed wire format
// shrinks the bytes per coordinate. The GradientCodec interface factors
// the last axis out of the cluster: dist::ElasticCluster's data-parallel
// step routes every gradient exchange through one codec-driven path
// (allreduce.h's exchange_gradients), and the codec decides what actually
// crosses the simulated wire.
//
// The registry mirrors prune::StrategyRegistry exactly (name -> ParamSpec
// defaults -> factory -> help() table); the built-in zoo (codec_zoo.h)
// ships `dense` (bit-for-bit the reference exchange), `twobit` (2-bit
// quantization with per-replica error-feedback residuals), and
// `live_channel` (prune-aware compaction transmitting only live-channel
// rows).
//
// Determinism contract (DESIGN.md §14):
//
//  * encode/decode run on ExecContext::parallel_for with the pool's static
//    contiguous chunking, and every output element (and residual element)
//    is a function of its own index only — so N-thread exchanges are
//    bitwise-identical to 1-thread ones. The one cross-element reduction
//    (twobit's mean-|v| scale) is summed over *fixed-size blocks* combined
//    in block order, making it invariant to the thread count by
//    construction.
//  * Codec state (residuals, live-row masks) must round-trip through
//    state()/load_state(): the trainer checkpoints it in a name-stamped
//    "codec" section, so crash-resume and guardian rollback-replay
//    reproduce an uninterrupted run bitwise, and the integrity monitor
//    folds it into state digests (as "codec/<name>" pseudo-tensors).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/comm.h"
#include "exec/context.h"
#include "graph/network.h"
#include "prune/strategy.h"

namespace pt::dist {

/// Named codec state blobs reuse the strategy serialization shape — the
/// checkpoint "codec" section and the integrity digests treat them the
/// same way the "strategy" section treats strategy state.
using CodecStateItem = prune::StrategyStateItem;
using CodecState = std::vector<CodecStateItem>;

/// One encoded gradient tensor as it would cross the wire. Exactly one
/// payload family is populated per codec: `values` (dense FP32 or
/// compacted live rows), or `packed` (2-bit codes) + `scale`. `wire_bytes`
/// is the modeled on-wire size including per-tensor headers.
struct WireTensor {
  std::int64_t count = 0;             ///< decoded element count
  std::vector<float> values;          ///< FP32 payload
  std::vector<std::uint32_t> packed;  ///< 2-bit codes, 16 per word
  std::vector<std::int64_t> rows;     ///< transmitted row indices (live_channel)
  float scale = 0.f;                  ///< quantization magnitude (twobit)
  double wire_bytes = 0;              ///< modeled bytes on the wire
};

/// A gradient wire format. One codec instance serves the whole cluster:
/// per-replica state (error-feedback residuals) is indexed by replica
/// rank, and bind() is called at cluster attach and again after every
/// reconfiguration so per-tensor metadata (sizes, live-row masks) tracks
/// the current topology.
class GradientCodec {
 public:
  virtual ~GradientCodec() = default;

  /// Registry name (stamped into the checkpoint "codec" section; a resume
  /// with a different codec fails loudly instead of silently mixing
  /// residual state).
  virtual std::string name() const = 0;

  /// The cost-model wire family this codec belongs to.
  virtual cost::CommCodec cost_kind() const = 0;

  /// (Re)binds the codec to `reference`'s parameter topology for a cluster
  /// of `replicas` ranks. Derives per-tensor metadata — element counts,
  /// live-row masks read from the reference weights — and sizes
  /// per-replica state. State that is still shape-compatible (resume,
  /// rollback, a rebind with unchanged topology) is preserved; state whose
  /// shapes no longer match (a reconfiguration) is re-derived/reset.
  /// Overrides must call the base first.
  virtual void bind(graph::Network& reference, int replicas);

  /// Encodes replica `rank`'s gradient tensor `tensor` (`n` elements at
  /// `grad`). May update per-replica codec state (twobit folds the
  /// quantization error into rank's residual). Runs on `ctx` under the
  /// deterministic-chunking contract.
  virtual WireTensor encode(int rank, std::size_t tensor, const float* grad,
                            std::int64_t n, exec::ExecContext& ctx) = 0;

  /// Decodes `wire` (produced by encode for the same `tensor`) into `out`
  /// (sizes()[tensor] floats, fully overwritten).
  virtual void decode(const WireTensor& wire, std::size_t tensor, float* out,
                      exec::ExecContext& ctx) const = 0;

  /// Transmitted-element fraction at the current binding (kLiveChannel's
  /// CommQuery::live_fraction); 1 for non-sparse codecs.
  virtual double live_fraction() const { return 1.0; }

  /// True when state()/load_state() carry anything (the trainer only
  /// writes a checkpoint "codec" section for stateful codecs).
  virtual bool stateful() const { return false; }

  /// Complete serializable state; must make load_state() reproduce this
  /// codec's future behavior bitwise. load_state() may run before bind()
  /// (trainer resume order); bind() then adopts the loaded state if it is
  /// shape-compatible.
  virtual CodecState state() const { return {}; }
  virtual void load_state(const CodecState& items) { (void)items; }

  /// Drops replica `rank`'s per-replica state (twobit residuals). Called
  /// when a rejoiner resyncs: its accumulated quantization error belongs
  /// to gradients that were never averaged and would otherwise leak stale
  /// error into its first synced steps.
  virtual void reset_replica(int rank) { (void)rank; }

  int replicas() const { return replicas_; }
  const std::vector<std::int64_t>& sizes() const { return sizes_; }

 protected:
  std::vector<std::int64_t> sizes_;  ///< grad element count per param tensor
  int replicas_ = 0;
};

/// One registry entry: name, human description, parameter specs (used for
/// validation and the help table), and the factory. ParamSpec is shared
/// with the strategy registry — same {name, default, help} triple.
struct CodecFactory {
  std::string name;
  std::string description;
  std::vector<prune::ParamSpec> params;
  /// Receives the fully resolved parameter map (defaults overlaid with the
  /// caller's values; unknown keys already rejected).
  std::function<std::unique_ptr<GradientCodec>(
      const std::map<std::string, std::string>&)>
      make;
};

/// Name -> factory registry driving TrainConfig::codec validation, the
/// quickstart `--codec help` table, and the comm-compression bench sweep.
class CodecRegistry {
 public:
  /// The process-wide registry with the built-in zoo registered
  /// (codec_zoo.cpp); thread-safe magic-static initialization.
  static CodecRegistry& global();

  void register_codec(CodecFactory factory);
  const CodecFactory* find(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Instantiates `name` with `params` overlaid on the spec defaults.
  /// Throws std::invalid_argument on an unknown codec, an unknown
  /// parameter key, or an unparsable value.
  std::unique_ptr<GradientCodec> create(
      const std::string& name,
      const std::map<std::string, std::string>& params = {}) const;

  /// Renders the registry as an aligned table (codec, parameters,
  /// defaults, help) — the `--codec help` output.
  std::string help() const;

 private:
  std::vector<CodecFactory> factories_;
};

/// Registers the built-in zoo (dense, twobit, live_channel) into
/// `registry`. Called once by CodecRegistry::global(); exposed for tests
/// that build a private registry.
void register_builtin_codecs(CodecRegistry& registry);

/// Typed parameter parsing over the resolved map; throws
/// std::invalid_argument naming the key on a malformed value.
float codec_param_float(const std::map<std::string, std::string>& params,
                        const std::string& key);

}  // namespace pt::dist
