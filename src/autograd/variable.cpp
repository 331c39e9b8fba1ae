#include "autograd/variable.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "parallel/parallel_for.h"
#include "tensor/pool.h"

namespace mlperf::autograd {

using tensor::Shape;
using tensor::Tensor;

namespace detail {

void Node::accumulate_grad(const Tensor& g) {
  // Elementwise, so split across the pool: every element sees the same
  // single float add at any thread count.
  const std::int64_t grain = parallel::grain_for(1);
  if (!grad_initialized && g.shape() == value.shape()) {
    // First touch: write g straight into a pooled buffer instead of
    // zero-filling and adding. `0.0f + src` is the exact float-add the old
    // zero+accumulate path performed (it normalizes -0.0 to +0.0, a raw
    // copy would not), so the bits are unchanged.
    grad = Tensor::uninitialized(value.shape());
    float* dst = grad.data();
    const float* src = g.data();
    parallel::parallel_for(grain, grad.numel(), [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) dst[i] = 0.0f + src[i];
    });
    grad_initialized = true;
    return;
  }
  if (!grad_initialized) {
    grad = Tensor(value.shape());
    grad_initialized = true;
  }
  // In-place accumulate; a broadcast gradient is reduced first (the same
  // float adds grad.add(r) would perform, minus its output allocation).
  Tensor reduced;
  const float* src = g.data();
  if (g.shape() != grad.shape()) {
    reduced = g.reduce_to(grad.shape());
    src = reduced.data();
  }
  float* dst = grad.data();
  parallel::parallel_for(grain, grad.numel(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) dst[i] += src[i];
  });
}

}  // namespace detail

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

bool grad_enabled() { return t_grad_enabled; }

Variable Variable::from_op(Tensor value, std::vector<Variable> parents, BackwardFn backward_fn) {
  Variable out(std::move(value));
  if (!t_grad_enabled) return out;  // tape-free: parents and closure dropped here
  bool rg = false;
  out.node_->parents.reserve(parents.size());
  for (const auto& p : parents) {
    rg = rg || p.requires_grad();
    out.node_->parents.push_back(p.node());
  }
  out.node_->requires_grad = rg;
  if (rg) out.node_->backward_fn = std::move(backward_fn);
  return out;
}

const Tensor& Variable::grad() const {
  if (!node_->grad_initialized) {
    node_->grad = Tensor(node_->value.shape());
    node_->grad_initialized = true;
  }
  return node_->grad;
}

void Variable::zero_grad() {
  if (node_->grad_initialized && node_->grad.same_shape(node_->value)) {
    // Refill in place: same zero bits, no buffer churn.
    std::fill(node_->grad.data(), node_->grad.data() + node_->grad.numel(), 0.0f);
    return;
  }
  node_->grad = Tensor(node_->value.shape());
  node_->grad_initialized = true;
}

void Variable::backward() const {
  if (numel() != 1)
    throw std::invalid_argument("backward(): output is not scalar; supply a seed gradient");
  backward(Tensor(shape(), 1.0f));
}

void Variable::backward(const Tensor& seed) const {
  if (seed.shape() != shape())
    throw std::invalid_argument("backward(): seed shape does not match output shape");
  // Topological order via iterative post-order DFS over parents.
  std::vector<detail::Node*> order;
  std::unordered_set<detail::Node*> visited;
  std::vector<std::pair<detail::Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [n, next] = stack.back();
    if (next < n->parents.size()) {
      detail::Node* p = n->parents[next++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  node_->accumulate_grad(seed);
  // Reverse topological order: node appears after all its parents in `order`.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::Node* n = *it;
    if (n->backward_fn && n->grad_initialized) n->backward_fn(n->grad);
  }
  // The step's graph is spent: sever it now so interior buffers return to
  // the TensorPool at backward completion instead of at the last Variable
  // handle's death. Interior nodes drop their gradient, their backward
  // closure (releasing captured activations), and their parent links —
  // which cascade-destroys nodes no caller holds, returning their values
  // too. Leaves keep their gradient for the optimizer, and any node the
  // caller still holds keeps its value. Walking `order` forward (parents
  // before children) keeps every raw pointer alive until its own entry:
  // clearing n's parent links can only destroy nodes appearing earlier, or
  // non-requires-grad ancestors that were never in `order` (a node with a
  // requires-grad parent would itself require grad).
  for (detail::Node* n : order) {
    if (n->parents.empty()) continue;  // leaf: the optimizer reads its grad
    n->grad = Tensor();
    n->grad_initialized = false;
    n->backward_fn = nullptr;
    n->parents.clear();
  }
}

namespace {
std::atomic<std::int64_t> g_last_epoch_hits{0};
std::atomic<std::int64_t> g_last_epoch_misses{0};
}  // namespace

GraphEpoch::GraphEpoch() {
  const tensor::TensorPool::Stats s = tensor::TensorPool::instance().stats();
  hits0_ = s.hits;
  misses0_ = s.misses;
}

GraphEpoch::~GraphEpoch() {
  const tensor::TensorPool::Stats s = tensor::TensorPool::instance().stats();
  g_last_epoch_hits.store(s.hits - hits0_, std::memory_order_relaxed);
  g_last_epoch_misses.store(s.misses - misses0_, std::memory_order_relaxed);
}

std::int64_t GraphEpoch::last_pool_misses() {
  return g_last_epoch_misses.load(std::memory_order_relaxed);
}

std::int64_t GraphEpoch::last_pool_hits() {
  return g_last_epoch_hits.load(std::memory_order_relaxed);
}

// ---- op helpers ------------------------------------------------------------

namespace {

// Forward `f` and the two gradient functors are template parameters, so the
// forward element loop inlines `f` (Tensor::binary's template path) and the
// backward closure carries the functors by value instead of as
// std::function copies. Each gradient functor maps (out_grad, a, b) values
// to that parent's unreduced gradient.
template <typename F, typename GradA, typename GradB>
Variable broadcast_binary(const Variable& a, const Variable& b, F f, GradA grad_a,
                          GradB grad_b) {
  Tensor out = a.value().binary(b.value(), f);
  auto an = a.node();
  auto bn = b.node();
  return Variable::from_op(std::move(out), {a, b}, [an, bn, grad_a, grad_b](const Tensor& g) {
    if (an->requires_grad) an->accumulate_grad(grad_a(g, an->value, bn->value));
    if (bn->requires_grad) bn->accumulate_grad(grad_b(g, an->value, bn->value));
  });
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  return broadcast_binary(
      a, b, std::plus<float>{}, [](const Tensor& g, const Tensor&, const Tensor&) { return g; },
      [](const Tensor& g, const Tensor&, const Tensor&) { return g; });
}

Variable mul(const Variable& a, const Variable& b) {
  return broadcast_binary(
      a, b, std::multiplies<float>{},
      [](const Tensor& g, const Tensor&, const Tensor& bv) { return g.mul(bv); },
      [](const Tensor& g, const Tensor& av, const Tensor&) { return g.mul(av); });
}

Variable add_scalar(const Variable& a, float s) {
  auto an = a.node();
  return Variable::from_op(a.value().add_scalar(s), {a},
                           [an](const Tensor& g) { an->accumulate_grad(g); });
}

Variable mul_scalar(const Variable& a, float s) {
  auto an = a.node();
  return Variable::from_op(a.value().mul_scalar(s), {a}, [an, s](const Tensor& g) {
    an->accumulate_grad(g.mul_scalar(s));
  });
}

namespace {
tensor::Trans flip(tensor::Trans t) {
  return t == tensor::Trans::N ? tensor::Trans::T : tensor::Trans::N;
}
}  // namespace

// For y = op_ta(A) op_tb(B): d(opA) = g opB^T and d(opB) = opA^T g; undoing
// the ops on the stored operands gives the four transpose-free cases below.
// No operand is ever copy-transposed — the GEMM pack step absorbs the flags.
Variable matmul(const Variable& a, const Variable& b, tensor::Trans ta, tensor::Trans tb) {
  Tensor out = a.value().matmul(b.value(), ta, tb);
  auto an = a.node();
  auto bn = b.node();
  return Variable::from_op(std::move(out), {a, b}, [an, bn, ta, tb](const Tensor& g) {
    if (an->requires_grad)
      an->accumulate_grad(ta == tensor::Trans::N
                              ? g.matmul(bn->value, tensor::Trans::N, flip(tb))
                              : bn->value.matmul(g, tb, tensor::Trans::T));
    if (bn->requires_grad)
      bn->accumulate_grad(tb == tensor::Trans::N
                              ? an->value.matmul(g, flip(ta), tensor::Trans::N)
                              : g.matmul(an->value, tensor::Trans::T, ta));
  });
}

Variable bmm(const Variable& a, const Variable& b, tensor::Trans ta, tensor::Trans tb) {
  Tensor out = a.value().bmm(b.value(), ta, tb);
  auto an = a.node();
  auto bn = b.node();
  return Variable::from_op(std::move(out), {a, b}, [an, bn, ta, tb](const Tensor& g) {
    if (an->requires_grad)
      an->accumulate_grad(ta == tensor::Trans::N
                              ? g.bmm(bn->value, tensor::Trans::N, flip(tb))
                              : bn->value.bmm(g, tb, tensor::Trans::T));
    if (bn->requires_grad)
      bn->accumulate_grad(tb == tensor::Trans::N
                              ? an->value.bmm(g, flip(ta), tensor::Trans::N)
                              : g.bmm(an->value, tensor::Trans::T, ta));
  });
}

Variable relu(const Variable& a) {
  auto an = a.node();
  return Variable::from_op(a.value().relu(), {a}, [an](const Tensor& g) {
    Tensor masked = g.binary(an->value, [](float gv, float x) { return x > 0.0f ? gv : 0.0f; });
    an->accumulate_grad(masked);
  });
}

Variable add_relu(const Variable& a, const Variable& b) {
  // Forward is the add and the clamp fused into one binary pass: per element
  // the same float add then the same compare/select the relu(add(a, b))
  // chain performs, so the output bits are identical.
  Tensor y = a.value().binary(b.value(), [](float x, float bv) {
    const float s = x + bv;
    return s > 0.0f ? s : 0.0f;
  });
  auto an = a.node();
  auto bn = b.node();
  return Variable::from_op(y, {a, b}, [an, bn, y](const Tensor& g) {
    // y > 0 iff the pre-activation sum > 0 (y equals the sum where positive,
    // 0 elsewhere; NaN compares false in both), so masking on the output is
    // the unfused relu-backward mask — and the one masked tensor feeds both
    // parents exactly as the unfused add node would pass it through.
    Tensor masked = g.binary(y, [](float gv, float yv) { return yv > 0.0f ? gv : 0.0f; });
    if (an->requires_grad) an->accumulate_grad(masked);
    if (bn->requires_grad) bn->accumulate_grad(masked);
  });
}

Variable tanh_op(const Variable& a) {
  Tensor y = a.value().tanh();
  auto an = a.node();
  return Variable::from_op(y, {a}, [an, y](const Tensor& g) {
    an->accumulate_grad(g.binary(y, [](float gv, float yv) { return gv * (1.0f - yv * yv); }));
  });
}

Variable sigmoid(const Variable& a) {
  Tensor y = a.value().sigmoid();
  auto an = a.node();
  return Variable::from_op(y, {a}, [an, y](const Tensor& g) {
    an->accumulate_grad(g.binary(y, [](float gv, float yv) { return gv * yv * (1.0f - yv); }));
  });
}

Variable reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().reshape(std::move(shape));
  auto an = a.node();
  return Variable::from_op(std::move(out), {a}, [an](const Tensor& g) {
    an->accumulate_grad(g.reshape(an->value.shape()));
  });
}

Variable permute(const Variable& a, const std::vector<std::int64_t>& dims) {
  Tensor out = a.value().permute(dims);
  std::vector<std::int64_t> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i)
    inverse[static_cast<std::size_t>(dims[i])] = static_cast<std::int64_t>(i);
  auto an = a.node();
  return Variable::from_op(std::move(out), {a}, [an, inverse](const Tensor& g) {
    an->accumulate_grad(g.permute(inverse));
  });
}

Variable slice0(const Variable& a, std::int64_t begin, std::int64_t end) {
  Tensor out = a.value().slice0(begin, end);
  auto an = a.node();
  return Variable::from_op(std::move(out), {a}, [an, begin](const Tensor& g) {
    Tensor full(an->value.shape());
    const std::int64_t row = full.numel() / std::max<std::int64_t>(full.shape()[0], 1);
    std::copy(g.vec().begin(), g.vec().end(), full.vec().begin() + begin * row);
    an->accumulate_grad(full);
  });
}

Variable cat0(const std::vector<Variable>& parts) {
  std::vector<Tensor> vals;
  vals.reserve(parts.size());
  for (const auto& p : parts) vals.push_back(p.value());
  Tensor out = Tensor::cat0(vals);
  std::vector<std::shared_ptr<detail::Node>> nodes;
  nodes.reserve(parts.size());
  for (const auto& p : parts) nodes.push_back(p.node());
  return Variable::from_op(std::move(out), parts, [nodes](const Tensor& g) {
    std::int64_t begin = 0;
    for (const auto& n : nodes) {
      const std::int64_t rows = n->value.shape()[0];
      if (n->requires_grad) n->accumulate_grad(g.slice0(begin, begin + rows));
      begin += rows;
    }
  });
}

Variable sum_all(const Variable& a) {
  Tensor out = Tensor::scalar(a.value().sum());
  auto an = a.node();
  return Variable::from_op(std::move(out), {a}, [an](const Tensor& g) {
    an->accumulate_grad(Tensor(an->value.shape(), g[0]));
  });
}

Variable softmax_last(const Variable& a) {
  Tensor y = a.value().softmax_last();
  auto an = a.node();
  return Variable::from_op(y, {a}, [an, y](const Tensor& g) {
    // dL/dx = y * (g - sum(g*y, last))
    const std::int64_t last = y.shape().back();
    const std::int64_t rows = y.numel() / last;
    Tensor dx = Tensor::uninitialized(y.shape());  // every row written below
    // Row-parallel with disjoint writes — bitwise the sequential loop.
    parallel::parallel_for(
        parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t r = begin; r < end; ++r) {
            const float* yr = y.data() + r * last;
            const float* gr = g.data() + r * last;
            float* dr = dx.data() + r * last;
            double dot = 0.0;
            for (std::int64_t j = 0; j < last; ++j) dot += static_cast<double>(yr[j]) * gr[j];
            for (std::int64_t j = 0; j < last; ++j)
              dr[j] = yr[j] * (gr[j] - static_cast<float>(dot));
          }
        });
    an->accumulate_grad(dx);
  });
}

Variable log_softmax_last(const Variable& a) {
  Tensor y = a.value().log_softmax_last();
  auto an = a.node();
  return Variable::from_op(y, {a}, [an, y](const Tensor& g) {
    // dL/dx = g - softmax(x) * sum(g, last)
    const std::int64_t last = y.shape().back();
    const std::int64_t rows = y.numel() / last;
    Tensor dx = Tensor::uninitialized(y.shape());  // every row written below
    // Row-parallel with disjoint writes — bitwise the sequential loop.
    parallel::parallel_for(
        parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t r = begin; r < end; ++r) {
            const float* yr = y.data() + r * last;
            const float* gr = g.data() + r * last;
            float* dr = dx.data() + r * last;
            double gsum = 0.0;
            for (std::int64_t j = 0; j < last; ++j) gsum += gr[j];
            for (std::int64_t j = 0; j < last; ++j)
              dr[j] = gr[j] - std::exp(yr[j]) * static_cast<float>(gsum);
          }
        });
    an->accumulate_grad(dx);
  });
}

Variable embedding(const Variable& table, const std::vector<std::int64_t>& indices) {
  const Tensor& tv = table.value();
  if (tv.ndim() != 2) throw std::invalid_argument("embedding(): table must be rank 2");
  const std::int64_t vocab = tv.shape()[0];
  const std::int64_t dim = tv.shape()[1];
  // Fully covered by the row copies below (indices are validated first).
  Tensor out = Tensor::uninitialized({static_cast<std::int64_t>(indices.size()), dim});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t row = indices[i];
    if (row < 0 || row >= vocab) throw std::out_of_range("embedding(): index out of range");
    std::copy(tv.data() + row * dim, tv.data() + (row + 1) * dim,
              out.data() + static_cast<std::int64_t>(i) * dim);
  }
  auto tn = table.node();
  return Variable::from_op(std::move(out), {table}, [tn, indices, dim](const Tensor& g) {
    Tensor dt(tn->value.shape());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::int64_t row = indices[i];
      const float* src = g.data() + static_cast<std::int64_t>(i) * dim;
      float* dst = dt.data() + row * dim;
      for (std::int64_t d = 0; d < dim; ++d) dst[d] += src[d];
    }
    tn->accumulate_grad(dt);
  });
}

}  // namespace mlperf::autograd
