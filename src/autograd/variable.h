#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace mlperf::autograd {

/// False while a NoGradGuard is open on the calling thread.
bool grad_enabled();

/// One entry of the autograd tape. Leaves (parameters, inputs, and every op
/// output recorded without a tape) are plain Nodes; a taped op's output is a
/// `detail::OpNode`, which adds the op's backward closure in the same
/// allocation.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;          // lazily sized on first accumulation
  bool requires_grad = false;
  bool grad_initialized = false;
  std::vector<std::shared_ptr<Node>> parents;  // empty for leaves
  std::uint64_t visit = 0;      // the last backward sweep that reached this node

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;
  /// Runs the op's backward closure on `grad`; nothing for a leaf or for a
  /// node a finished sweep has severed.
  virtual void propagate() {}
  /// Once a sweep is spent: drops the gradient, the closure with everything
  /// it saved for backward, and the parent links.
  virtual void sever() {
    grad = tensor::Tensor();
    grad_initialized = false;
    parents.clear();
  }

  /// grad += g, reducing a broadcast `g` to the value's shape first. The
  /// first touch of a same-shape `g` writes `0.0f + g` (the float add the
  /// zero-filled accumulate would make: -0.0 becomes +0.0) into a pooled
  /// buffer.
  void accumulate_grad(const tensor::Tensor& g);
  /// The same sum for a gradient the caller built and no longer needs: on
  /// first touch the node adopts `g`'s buffer and applies `0.0f + x` in
  /// place instead of copying it (same bits, no second buffer).
  void accumulate_grad(tensor::Tensor&& g);
};

namespace detail {
/// A taped op's node. The closure `fn(node, grad)` is typed, not erased, and
/// is called with its own node: it reads its inputs from `parents` and its
/// output from `value`, so it saves neither.
template <class F>
struct OpNode final : Node {
  explicit OpNode(F f) : fn(std::move(f)) {}
  void propagate() override {
    if (fn) (*fn)(*this, grad);
  }
  void sever() override {
    fn.reset();
    Node::sever();
  }
  std::optional<F> fn;
};
}  // namespace detail

/// A handle to a node of the autograd tape: a tensor value plus (optionally)
/// a gradient and the closure that propagates it. Variables are cheap shared
/// handles — copying a Variable aliases the same node, which is what layer
/// parameter registries rely on.
class Variable {
 public:
  Variable() : node_(std::make_shared<Node>()) {}

  explicit Variable(tensor::Tensor value, bool requires_grad = false)
      : node_(std::make_shared<Node>()) {
    node_->value = std::move(value);
    node_->requires_grad = requires_grad;
  }

  /// Records an op whose output is `value`. Its backward `fn(const Node& n,
  /// const Tensor& g)` receives the op's node: `n.parents` holds `parents`
  /// in the order given here and `n.value` the output, and it accumulates
  /// into the parents that require grad. This is the extension point `nn`
  /// uses for conv/pool/etc. The output requires grad iff a parent does;
  /// when none does, or under a NoGradGuard, it is a plain leaf with no
  /// parents and no closure. `parents` is a braced list or a
  /// std::vector<Variable>.
  template <class F, class Parents = std::initializer_list<Variable>>
  static Variable from_op(tensor::Tensor value, const Parents& parents, F fn) {
    bool rg = false;
    if (grad_enabled())
      for (const Variable& p : parents) rg = rg || p.requires_grad();
    if (!rg) return Variable(std::move(value));
    auto node = std::make_shared<detail::OpNode<F>>(std::move(fn));
    node->value = std::move(value);
    node->requires_grad = true;
    node->parents.reserve(parents.size());
    for (const Variable& p : parents) node->parents.push_back(p.node_);
    return Variable(std::move(node));
  }

  const tensor::Tensor& value() const { return node_->value; }
  /// Writable value. The backward of an op that reads its output (tanh,
  /// sigmoid, the softmaxes, add_relu) reads this same tensor.
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

  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  std::shared_ptr<Node> node_;
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
/// Indices [begin, end) of `a` along `dim`. Backward writes the gradient
/// into that slice of a zero tensor of a's shape.
Variable slice(const Variable& a, std::int64_t dim, std::int64_t begin, std::int64_t end);
/// Concatenation along `dim` (Tensor::cat); each part's gradient is its
/// slice of the output's.
Variable cat(const std::vector<Variable>& parts, std::int64_t dim);
Variable sum_all(const Variable& a);
Variable softmax_last(const Variable& a);
Variable log_softmax_last(const Variable& a);
/// Row gather: table is [V, D]; indices selects rows -> [n, D]. Backward
/// scatter-adds each gradient row into its table row, in index order.
Variable gather_rows(const Variable& table, const std::vector<std::int64_t>& indices);

}  // namespace mlperf::autograd
