// Network: a DAG of layers with residual (short-cut) connections, plus the
// structural surgery operations PruneTrain's reconfiguration uses (node
// removal, add-bypass when an entire residual path dies).
//
// Node ids are stable across surgery: removed nodes become dead and are
// skipped, so annotations (NetworkInfo) remain valid after reconfiguration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace pt::graph {

/// One vertex of the network DAG.
struct Node {
  enum class Kind { kInput, kLayer, kAdd, kDead };
  Kind kind = Kind::kDead;
  nn::LayerPtr layer;            ///< kLayer only
  std::vector<int> inputs;       ///< producing node ids (1 for kLayer, 2 for kAdd)
};

/// Structural annotation of one residual block, recorded by model builders
/// and consumed by the pruning machinery (channel union / layer removal).
struct ResidualBlockInfo {
  std::vector<int> path_nodes;      ///< every node on the residual path, in order
  std::vector<int> path_convs;      ///< conv node ids within the path, in order
  int add_node = -1;                ///< the merge point
  std::vector<int> shortcut_nodes;  ///< projection conv+bn node ids ([] = identity)
  int shortcut_conv = -1;           ///< projection conv node id (-1 = identity)
  bool removed = false;             ///< set by reconfiguration when path dies
};

/// Model-level annotations the pruner needs.
struct NetworkInfo {
  int first_conv = -1;               ///< the stem conv (input side stays dense)
  int classifier = -1;               ///< final Linear node (output side stays dense)
  std::vector<ResidualBlockInfo> blocks;
};

/// Per-node execution profile accumulated while profiling is enabled:
/// call counts and wall-time of forward/backward, indexed by node id.
/// Ids are stable across surgery, so a profile row keeps meaning across
/// reconfigurations (dead nodes simply stop accumulating).
struct NodeProfile {
  std::uint64_t forward_calls = 0;
  std::uint64_t backward_calls = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;
};

/// Executable network. Builders append nodes in topological order.
class Network {
 public:
  /// Creates the input placeholder; must be the first node (id 0).
  int add_input();
  /// Appends a layer consuming node `input`'s output. Returns the node id.
  int add_layer(nn::LayerPtr layer, int input);
  /// Appends an elementwise-add merge of two producers. Returns the node id.
  int add_add(int a, int b);
  /// Declares which node's output is the network output.
  void set_output(int id) { output_ = id; }
  int output() const { return output_; }

  /// Runs the DAG on `ctx` (its thread pool and workspace buffer execute
  /// every layer). In training mode every layer caches its backward context.
  Tensor forward(exec::ExecContext& ctx, const Tensor& x, bool training);

  /// Back-propagates dL/d(output) on `ctx`; returns dL/d(input). Parameter
  /// gradients accumulate into each layer's Param::grad.
  Tensor backward(exec::ExecContext& ctx, const Tensor& dy);

  /// All live parameters, in node order.
  std::vector<nn::Param*> params();
  std::vector<const nn::Param*> params() const;

  /// Named state of every live layer, in topological order. Layer-local
  /// entry names are qualified with the layer's hierarchical name (or
  /// "node<id>" for unnamed layers): "stage1.block0.conv1.weight". This is
  /// the traversal snapshots, checkpoints, and the optimizer build on.
  std::vector<nn::StateEntry> state();

  void zero_grad();
  /// Releases every layer's cached forward context.
  void clear_context();

  /// Total number of parameter scalars (live nodes only).
  std::int64_t num_params() const;

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Node& node(int id) { return nodes_[static_cast<std::size_t>(id)]; }
  bool is_live(int id) const {
    return nodes_[static_cast<std::size_t>(id)].kind != Node::Kind::kDead;
  }

  /// Node ids (live) whose layer is of dynamic type L, in topological order.
  template <typename L>
  std::vector<int> nodes_of_type() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.kind == Node::Kind::kLayer &&
          dynamic_cast<const L*>(n.layer.get()) != nullptr) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  /// Typed layer accessor; throws on kind/type mismatch.
  template <typename L>
  L& layer_as(int id) {
    Node& n = node(id);
    if (n.kind != Node::Kind::kLayer) throw std::logic_error("node is not a layer");
    auto* p = dynamic_cast<L*>(n.layer.get());
    if (!p) throw std::logic_error("node has unexpected layer type");
    return *p;
  }

  /// Raw node append used by checkpoint restore: no input validation (the
  /// node may reference ids not appended yet, or be dead). Returns the id.
  int append_raw(Node n);

  /// Surgery: replaces add node `add_id` by a pass-through of
  /// `surviving_input` (rewiring all consumers) and kills `dead_nodes`.
  /// Used when an entire residual path is removed.
  void bypass_add(int add_id, int surviving_input, const std::vector<int>& dead_nodes);

  /// Consumers of each node's output among live nodes.
  std::vector<std::vector<int>> consumer_map() const;

  /// Live nodes in dependency order (Kahn). Builders append topologically,
  /// but surgery (e.g. channel-gating inserting scatter nodes) can create
  /// nodes whose id order differs from execution order.
  std::vector<int> topo_order() const;

  /// Per-node wall-time profiling of forward/backward. Off by default:
  /// when disabled the execution loops take no clock readings at all, so
  /// production training speed is unaffected. The telemetry subsystem
  /// turns this on to build per-layer epoch records.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }
  /// One entry per node id (empty until the first profiled execution).
  const std::vector<NodeProfile>& profile() const { return profile_; }
  void reset_profile() { profile_.assign(nodes_.size(), NodeProfile{}); }

  /// Structural annotations (set by model builders).
  NetworkInfo info;

 private:
  std::vector<Node> nodes_;
  int output_ = -1;
  // Forward cache: per-node output tensors of the last forward call, and
  // the topological order it executed in (reused by backward).
  std::vector<Tensor> outputs_;
  std::vector<int> order_cache_;
  bool trained_forward_ = false;
  bool profiling_ = false;
  std::vector<NodeProfile> profile_;
};

}  // namespace pt::graph
