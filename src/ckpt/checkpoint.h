// Crash-safe checkpointing of reconfigured networks (ISSUE 1 tentpole).
//
// A Checkpoint is *self-describing*: it serializes the full graph
// structure (live/dead nodes, Add merges, per-layer channel extents,
// NetworkInfo/ResidualBlockInfo) plus a named tensor table built from the
// state-dict API (parameter values, SGD momentum, BN running stats).
// restore_network() rebuilds the exact reconfigured model from the file
// alone, so a PruneTrain run can be resumed after any number of structural
// reconfigurations.
//
// File layout (see DESIGN.md §6 for the byte-level spec):
//
//   [8]  magic "PTCKPT01"
//   [4]  u32 format version
//   topology block      (nodes, kinds, inputs, layer geometry, NetworkInfo)
//   named tensor table  (name, role, shape, f32 payload per entry)
//   extra sections      (opaque named blobs, e.g. the trainer state)
//   [4]  u32 CRC-32 of everything above
//
// Writes go through util::atomic_write_file (write <path>.tmp, fsync,
// rename), and loads verify the CRC before parsing a single field — a
// half-written or bit-flipped file is rejected, never half-applied.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/network.h"

namespace pt::ckpt {

/// One serialized state tensor. `name` is the Network::state() qualified
/// name ("stage1.block0.conv1.weight"); `role` excludes kGrad (gradients
/// are transient and rebuilt as zeros on restore).
struct TensorRecord {
  std::string name;
  nn::StateRole role = nn::StateRole::kParam;
  std::vector<std::int64_t> dims;
  std::vector<float> values;
};

/// In-memory image of a checkpoint file.
class Checkpoint {
 public:
  /// Captures the network's structure and all persistent tensors
  /// (param + momentum + buffer roles) of live layers.
  static Checkpoint capture(graph::Network& net);

  /// Rebuilds the captured network from scratch: same node ids (including
  /// dead placeholders, so NetworkInfo annotations stay valid), same layer
  /// geometry, and every captured tensor loaded back bit-exactly. Throws
  /// std::runtime_error on any structural or shape mismatch.
  graph::Network restore_network() const;

  /// Opaque named payloads riding along with the model — the trainer
  /// serializes its own state (epoch counters, lambda, RNG, stats history)
  /// here without src/ckpt needing to know its types.
  void set_section(const std::string& name, std::vector<std::uint8_t> bytes);
  /// Returns nullptr when the section is absent.
  const std::vector<std::uint8_t>* section(const std::string& name) const;

  /// Serializes and atomically writes the checkpoint file.
  void save(const std::string& path) const;

  /// Reads and verifies (magic, version, CRC) a checkpoint file. Throws
  /// std::runtime_error on I/O failure, bad magic/version, truncation, or
  /// CRC mismatch.
  static Checkpoint load(const std::string& path);

  const std::vector<TensorRecord>& tensors() const { return tensors_; }

  /// Reads and verifies only the file's trailing CRC-32 footer (no parse,
  /// no tensor allocation) — the cheap validity probe consumers like the
  /// serving registry run before committing to a full load. Returns false
  /// on any I/O failure, truncation, or CRC mismatch; never throws.
  static bool probe(const std::string& path);

 private:
  /// Mirror of one graph node, with enough geometry to reconstruct the
  /// layer. `geom_i`/`geom_f`/`indices` are interpreted per layer type.
  struct NodeRecord {
    std::uint8_t kind = 0;            ///< graph::Node::Kind
    std::vector<std::int32_t> inputs;
    std::string type;                 ///< layer type() tag, kLayer only
    std::string name;                 ///< layer hierarchical name
    std::vector<std::int64_t> geom_i;
    std::vector<float> geom_f;
    std::vector<std::int64_t> indices;  ///< ChannelSelect/Scatter only
  };

  std::vector<NodeRecord> nodes_;
  std::int32_t output_ = -1;
  // NetworkInfo mirror.
  std::int32_t first_conv_ = -1;
  std::int32_t classifier_ = -1;
  std::vector<graph::ResidualBlockInfo> blocks_;
  std::vector<TensorRecord> tensors_;
  std::map<std::string, std::vector<std::uint8_t>> sections_;
};

/// One numbered checkpoint file found in a training run's checkpoint
/// directory (the trainer's `ckpt-epoch-<N>.bin` naming).
struct GenerationEntry {
  std::string path;
  std::int64_t epoch = -1;  ///< the <N> in the filename (save-time epoch)
};

/// Lists the numbered checkpoint generations in `dir`, sorted by ascending
/// epoch. Non-matching filenames (ckpt-latest.bin, temp files, diagnostics)
/// are ignored; a missing or unreadable directory yields an empty list.
/// Read-only: nothing is opened, validated, or deleted — pair with
/// Checkpoint::probe / robust::CheckpointScrubber for validity.
std::vector<GenerationEntry> list_generations(const std::string& dir);

}  // namespace pt::ckpt
