// Layer abstraction for the training engine.
//
// Layers own their parameters (value + gradient + SGD momentum, kept
// together so network reconfiguration can slice all three consistently,
// as PruneTrain Sec. 4.2 requires: "all training variables of the remaining
// channels are kept as is"). forward() caches whatever the matching
// backward() needs; backward() accumulates parameter gradients and returns
// the input gradient.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/context.h"
#include "tensor/tensor.h"

namespace pt::nn {

/// One learnable parameter tensor plus its training state.
struct Param {
  std::string name;    ///< hierarchical name, e.g. "stage1.block0.conv1.weight"
  Tensor value;
  Tensor grad;
  Tensor momentum;

  /// (Re)allocates grad/momentum to match `value`'s shape, zeroed.
  void init_state();
};

/// What a state tensor is, in the named-state API. `kParam`/`kGrad`/
/// `kMomentum` are the three faces of one Param; `kBuffer` is non-learnable
/// persistent state (e.g. BN running statistics) that checkpoints must
/// capture but the optimizer must not touch.
enum class StateRole : std::uint8_t { kParam, kGrad, kMomentum, kBuffer };

std::string to_string(StateRole role);

/// One named state tensor of a layer. Entries from Layer::state() carry
/// layer-local names ("weight", "gamma", "running_mean", ...);
/// graph::Network::state() qualifies them with the layer's hierarchical
/// name, e.g. "stage1.block0.conv1.weight". The three roles of one Param
/// share a name and are distinguished by `role`.
struct StateEntry {
  std::string name;
  Tensor* tensor = nullptr;
  StateRole role = StateRole::kParam;
};

/// A Param regrouped from named state entries: the value/grad/momentum
/// triple the optimizer consumes, keyed by name.
struct NamedParam {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  Tensor* momentum = nullptr;
};

/// Regroups flat state entries into optimizer-ready triples (in first-
/// appearance order; kBuffer entries are skipped). Entries missing a value
/// tensor are dropped.
std::vector<NamedParam> group_params(const std::vector<StateEntry>& entries);

/// Abstract layer. Subclasses implement do_forward/do_backward (the
/// protected virtuals of a non-virtual interface) and expose their
/// parameters for the optimizer and the pruning machinery.
///
/// Execution API: the public forward/backward entry points take an
/// exec::ExecContext& carrying the thread pool and the workspace buffer the
/// kernels run on; there are no context-free overloads.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output on `ctx`. When `training` is true, caches
  /// the activations backward() will need; inference mode caches nothing.
  Tensor forward(exec::ExecContext& ctx, const Tensor& x, bool training) {
    return do_forward(ctx, x, training);
  }

  /// Given dL/d(output), accumulates dL/d(params) into each Param::grad and
  /// returns dL/d(input). Must be called after a training-mode forward.
  Tensor backward(exec::ExecContext& ctx, const Tensor& dy) {
    return do_backward(ctx, dy);
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Read-only view of the learnable parameters. Layers with parameters
  /// override both accessors over the same members, so const traversals
  /// (e.g. Network::num_params() const) need no const_cast.
  virtual std::vector<const Param*> params() const { return {}; }

  /// Named state introspection: every persistent tensor of the layer under
  /// a layer-local name, one entry per (tensor, role). The default derives
  /// param/grad/momentum entries from params(); layers with extra
  /// non-learnable buffers (BatchNorm2d) extend it. Entry order is
  /// deterministic and must stay stable across calls — serialization
  /// (ckpt::Checkpoint) depends on it.
  virtual std::vector<StateEntry> state();

 protected:
  /// The layer's computation, dispatched by the public forward/backward
  /// (non-virtual interface: every entry point funnels through these, so a
  /// subclass implements the context-taking form once and the shims come
  /// for free).
  virtual Tensor do_forward(exec::ExecContext& ctx, const Tensor& x,
                            bool training) = 0;
  virtual Tensor do_backward(exec::ExecContext& ctx, const Tensor& dy) = 0;

  /// Appends the value/grad/momentum entries of one Param under `name`.
  static void append_param_state(std::vector<StateEntry>& out, Param& p,
                                 const std::string& name);

 public:

  /// Layer kind, e.g. "Conv2d"; used by cost models and debug dumps.
  virtual std::string type() const = 0;

  /// Shape of the output given an input shape (excluding unknowable dims).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Drops cached forward context to release activation memory.
  virtual void clear_context() {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
};

using LayerPtr = std::shared_ptr<Layer>;

}  // namespace pt::nn
