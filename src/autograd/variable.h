#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace mlperf::autograd {

class Variable;

/// Backward closure: receives the gradient flowing into this node's output
/// and must accumulate gradients into its parents (captured by the closure).
using BackwardFn = std::function<void(const tensor::Tensor& out_grad)>;

namespace detail {
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;          // lazily sized on first accumulation
  bool requires_grad = false;
  bool grad_initialized = false;
  std::vector<std::shared_ptr<Node>> parents;
  BackwardFn backward_fn;       // empty for leaves

  void accumulate_grad(const tensor::Tensor& g);
};
}  // namespace detail

/// A node in the autograd tape: a tensor value plus (optionally) a gradient
/// and the closure that propagates it. Variables are cheap shared handles —
/// copying a Variable aliases the same node, which is what layer parameter
/// registries rely on.
class Variable {
 public:
  Variable() : node_(std::make_shared<detail::Node>()) {}

  explicit Variable(tensor::Tensor value, bool requires_grad = false)
      : node_(std::make_shared<detail::Node>()) {
    node_->value = std::move(value);
    node_->requires_grad = requires_grad;
  }

  /// Build a non-leaf from an op: `value` is the op output; `backward_fn`
  /// accumulates into the parents. The node requires grad iff any parent
  /// does. This is the extension point `nn` uses for conv/pool/etc. Under a
  /// NoGradGuard the result is a plain leaf: no parents, no closure, no grad.
  static Variable from_op(tensor::Tensor value, std::vector<Variable> parents,
                          BackwardFn backward_fn);

  const tensor::Tensor& value() const { return node_->value; }
  tensor::Tensor& mutable_value() { return node_->value; }

  /// Gradient; zero tensor of the value's shape if nothing accumulated yet.
  const tensor::Tensor& grad() const;
  bool requires_grad() const { return node_->requires_grad; }
  void zero_grad();

  const tensor::Shape& shape() const { return node_->value.shape(); }
  std::int64_t numel() const { return node_->value.numel(); }

  /// Reverse-mode sweep. For scalar outputs seeds with 1.0; otherwise a seed
  /// gradient of the output's shape must be supplied.
  void backward() const;
  void backward(const tensor::Tensor& seed) const;

  /// Identity check (same underlying node).
  bool is(const Variable& other) const { return node_ == other.node_; }

  std::shared_ptr<detail::Node> node() const { return node_; }

 private:
  std::shared_ptr<detail::Node> node_;
};

/// Step-scoped accounting marker, the graph-side analogue of
/// `tensor::ScratchArena::Frame`: open one around a training step
/// (forward + backward + update). On close it records the TensorPool
/// hit/miss deltas observed during the step, which the steady-state
/// zero-allocation pin tests and the harness's pool-stats run event read.
/// The recycling itself is unconditional: `Variable::backward()` severs the
/// spent graph as its final act, returning interior value/grad buffers and
/// backward-closure captures to the pool whether or not an epoch is open.
class GraphEpoch {
 public:
  GraphEpoch();
  ~GraphEpoch();
  GraphEpoch(const GraphEpoch&) = delete;
  GraphEpoch& operator=(const GraphEpoch&) = delete;

  /// Pool misses/hits observed during the most recently closed epoch
  /// (process-wide; steady-state misses must be zero once the pool is warm).
  static std::int64_t last_pool_misses();
  static std::int64_t last_pool_hits();

 private:
  std::int64_t hits0_;
  std::int64_t misses0_;
};

/// Thread-local inference mode. While a guard is open on this thread,
/// `Variable::from_op` records no tape: every op output is a leaf with no
/// parents, no backward closure and `requires_grad() == false`, so the
/// activations (and captured tensors) an op would have kept for backward are
/// released as soon as their last handle dies, and conv2d keeps no im2col
/// pack cache. Forward values are computed by the same kernels either way —
/// bitwise identical with and without the guard. Guards nest; each restores
/// the mode it found. Other threads are unaffected.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// False while a NoGradGuard is open on the calling thread.
bool grad_enabled();

// ---- differentiable primitives -------------------------------------------
// All binary ops broadcast like tensor::Tensor::binary and reduce gradients
// back to each parent's shape.
Variable add(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable add_scalar(const Variable& a, float s);
Variable mul_scalar(const Variable& a, float s);
/// Matrix product op(a) x op(b) with either operand consumed transposed in
/// place (no materialized transpose, forward or backward: gradients are
/// formed with the complementary transposed GEMM variants).
Variable matmul(const Variable& a, const Variable& b, tensor::Trans ta = tensor::Trans::N,
                tensor::Trans tb = tensor::Trans::N);
/// Batched matrix product with per-batch transposed operands (see matmul).
Variable bmm(const Variable& a, const Variable& b, tensor::Trans ta = tensor::Trans::N,
             tensor::Trans tb = tensor::Trans::N);
Variable relu(const Variable& a);
/// Fused relu(a + b) (broadcast like add): one pass forward, and backward
/// computes the shared masked gradient once for both parents. Bitwise
/// identical to relu(add(a, b)) — same adds, and masking on the output
/// equals masking on the pre-activation sum — with one fewer graph node and
/// intermediate buffer. Covers the two hottest chains: residual-add+ReLU
/// (ResNet blocks) and bias+ReLU (Linear::forward_relu).
Variable add_relu(const Variable& a, const Variable& b);
Variable tanh_op(const Variable& a);
Variable sigmoid(const Variable& a);
Variable reshape(const Variable& a, tensor::Shape shape);
Variable permute(const Variable& a, const std::vector<std::int64_t>& dims);
Variable slice0(const Variable& a, std::int64_t begin, std::int64_t end);
Variable cat0(const std::vector<Variable>& parts);
Variable sum_all(const Variable& a);
Variable softmax_last(const Variable& a);
Variable log_softmax_last(const Variable& a);
/// Row lookup: table is [V, D]; indices selects rows -> [n, D].
Variable embedding(const Variable& table, const std::vector<std::int64_t>& indices);

}  // namespace mlperf::autograd
