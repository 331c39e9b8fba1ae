#include "autograd/variable.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "tensor/pool.h"

namespace mlperf::autograd {

using tensor::Shape;
using tensor::Tensor;

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

void Node::accumulate_grad(Tensor&& g) {
  if (grad_initialized || g.shape() != value.shape()) {
    accumulate_grad(static_cast<const Tensor&>(g));
    return;
  }
  // First touch: adopt g's buffer. `0.0f + x` in place keeps the signed-zero
  // normalization of the copying path above.
  grad = std::move(g);
  float* p = grad.data();
  parallel::parallel_for(parallel::grain_for(1), grad.numel(),
                         [&](std::int64_t begin, std::int64_t end) {
                           for (std::int64_t i = begin; i < end; ++i) p[i] = 0.0f + p[i];
                         });
  grad_initialized = true;
}

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

bool grad_enabled() { return t_grad_enabled; }

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
  // Topological order via iterative post-order DFS over parents. Only taped
  // nodes are walked: a leaf has nothing to propagate and is never severed.
  // Each sweep draws a fresh stamp, so a node is visited once per sweep
  // without a visited set.
  static std::atomic<std::uint64_t> sweeps{0};
  const std::uint64_t stamp = ++sweeps;
  std::vector<Node*> order;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  node_->visit = stamp;
  while (!stack.empty()) {
    auto& [n, next] = stack.back();
    if (next < n->parents.size()) {
      Node* p = n->parents[next++].get();
      if (p->requires_grad && !p->parents.empty() && p->visit != stamp) {
        p->visit = stamp;
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(n);
      stack.pop_back();
    }
  }
  node_->accumulate_grad(seed);
  // Reverse topological order: node appears after all its parents in `order`.
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if ((*it)->grad_initialized) (*it)->propagate();
  // The step's graph is spent: sever it now so interior buffers return to
  // the TensorPool at backward completion instead of at the last Variable
  // handle's death. Interior nodes drop their gradient, their backward
  // closure (releasing what it saved), and their parent links — which
  // cascade-destroys nodes no caller holds, returning their values too.
  // Leaves keep their gradient for the optimizer, and any node the caller
  // still holds keeps its value. Walking `order` forward (parents before
  // children) keeps every raw pointer alive until its own entry: severing n
  // can only destroy nodes appearing earlier, or leaves, which were never in
  // `order`.
  for (Node* n : order)
    if (!n->parents.empty()) n->sever();  // a leaf root keeps its grad
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

// The identity gradient goes to each parent by reference: no copy per parent.
Variable add(const Variable& a, const Variable& b) {
  return Variable::from_op(a.value().add(b.value()), {a, b}, [](const Node& n, const Tensor& g) {
    for (const auto& p : n.parents)
      if (p->requires_grad) p->accumulate_grad(g);
  });
}

Variable mul(const Variable& a, const Variable& b) {
  return Variable::from_op(a.value().mul(b.value()), {a, b}, [](const Node& n, const Tensor& g) {
    Node &an = *n.parents[0], &bn = *n.parents[1];
    if (an.requires_grad) an.accumulate_grad(g.mul(bn.value));
    if (bn.requires_grad) bn.accumulate_grad(g.mul(an.value));
  });
}

Variable add_scalar(const Variable& a, float s) {
  return Variable::from_op(a.value().add_scalar(s), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(g);
  });
}

Variable mul_scalar(const Variable& a, float s) {
  return Variable::from_op(a.value().mul_scalar(s), {a}, [s](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(g.mul_scalar(s));
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
  return Variable::from_op(std::move(out), {a, b}, [ta, tb](const Node& n, const Tensor& g) {
    Node &an = *n.parents[0], &bn = *n.parents[1];
    if (an.requires_grad)
      an.accumulate_grad(ta == tensor::Trans::N ? g.matmul(bn.value, tensor::Trans::N, flip(tb))
                                                : bn.value.matmul(g, tb, tensor::Trans::T));
    if (bn.requires_grad)
      bn.accumulate_grad(tb == tensor::Trans::N ? an.value.matmul(g, flip(ta), tensor::Trans::N)
                                                : g.matmul(an.value, tensor::Trans::T, ta));
  });
}

Variable bmm(const Variable& a, const Variable& b, tensor::Trans ta, tensor::Trans tb) {
  Tensor out = a.value().bmm(b.value(), ta, tb);
  return Variable::from_op(std::move(out), {a, b}, [ta, tb](const Node& n, const Tensor& g) {
    Node &an = *n.parents[0], &bn = *n.parents[1];
    if (an.requires_grad)
      an.accumulate_grad(ta == tensor::Trans::N ? g.bmm(bn.value, tensor::Trans::N, flip(tb))
                                                : bn.value.bmm(g, tb, tensor::Trans::T));
    if (bn.requires_grad)
      bn.accumulate_grad(tb == tensor::Trans::N ? an.value.bmm(g, flip(ta), tensor::Trans::N)
                                                : g.bmm(an.value, tensor::Trans::T, ta));
  });
}

Variable relu(const Variable& a) {
  return Variable::from_op(a.value().relu(), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(g.binary(n.parents[0]->value,
                                           [](float gv, float x) { return x > 0.0f ? gv : 0.0f; }));
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
  return Variable::from_op(std::move(y), {a, b}, [](const Node& n, const Tensor& g) {
    // y > 0 iff the pre-activation sum > 0 (y equals the sum where positive,
    // 0 elsewhere; NaN compares false in both), so masking on the output is
    // the unfused relu-backward mask — and the one masked tensor feeds both
    // parents exactly as the unfused add node would pass it through. b reads
    // it by reference and a adopts it: a bias b reduces it anyway. Distinct
    // parents make the order irrelevant, and a == b sums the same m twice.
    Tensor masked = g.binary(n.value, [](float gv, float yv) { return yv > 0.0f ? gv : 0.0f; });
    Node &an = *n.parents[0], &bn = *n.parents[1];
    if (bn.requires_grad) bn.accumulate_grad(masked);
    if (an.requires_grad) an.accumulate_grad(std::move(masked));
  });
}

Variable tanh_op(const Variable& a) {
  return Variable::from_op(a.value().tanh(), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(
        g.binary(n.value, [](float gv, float yv) { return gv * (1.0f - yv * yv); }));
  });
}

Variable sigmoid(const Variable& a) {
  return Variable::from_op(a.value().sigmoid(), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(
        g.binary(n.value, [](float gv, float yv) { return gv * yv * (1.0f - yv); }));
  });
}

Variable reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().reshape(std::move(shape));
  return Variable::from_op(std::move(out), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(g.reshape(n.parents[0]->value.shape()));
  });
}

Variable permute(const Variable& a, const std::vector<std::int64_t>& dims) {
  Tensor out = a.value().permute(dims);
  std::vector<std::int64_t> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i)
    inverse[static_cast<std::size_t>(dims[i])] = static_cast<std::int64_t>(i);
  return Variable::from_op(std::move(out), {a}, [inverse](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(g.permute(inverse));
  });
}

Variable slice(const Variable& a, std::int64_t dim, std::int64_t begin, std::int64_t end) {
  Tensor out = a.value().slice(dim, begin, end);
  return Variable::from_op(std::move(out), {a}, [dim, begin](const Node& n, const Tensor& g) {
    // g's blocks land in the slice of a zero tensor of the parent's shape.
    const Shape& s = n.parents[0]->value.shape();
    Tensor full(s);
    std::int64_t inner = 1;
    for (std::size_t d = static_cast<std::size_t>(dim) + 1; d < s.size(); ++d) inner *= s[d];
    const std::int64_t block = g.shape()[static_cast<std::size_t>(dim)] * inner;
    const std::int64_t stride = s[static_cast<std::size_t>(dim)] * inner;
    for (std::int64_t o = 0; o * block < g.numel(); ++o)
      std::copy_n(g.data() + o * block, block, full.data() + o * stride + begin * inner);
    n.parents[0]->accumulate_grad(std::move(full));
  });
}

Variable cat(const std::vector<Variable>& parts, std::int64_t dim) {
  std::vector<const Tensor*> values;
  values.reserve(parts.size());
  for (const auto& p : parts) values.push_back(&p.value());
  return Variable::from_op(Tensor::cat(values, dim), parts, [dim](const Node& n, const Tensor& g) {
    const auto ud = static_cast<std::size_t>(dim);
    std::int64_t begin = 0;
    for (const auto& p : n.parents) {
      const std::int64_t extent = p->value.shape()[ud];
      if (p->requires_grad) p->accumulate_grad(g.slice(dim, begin, begin + extent));
      begin += extent;
    }
  });
}

Variable sum_all(const Variable& a) {
  Tensor out = Tensor::scalar(a.value().sum());
  return Variable::from_op(std::move(out), {a}, [](const Node& n, const Tensor& g) {
    n.parents[0]->accumulate_grad(Tensor(n.parents[0]->value.shape(), g[0]));
  });
}

Variable softmax_last(const Variable& a) {
  return Variable::from_op(a.value().softmax_last(), {a}, [](const Node& n, const Tensor& g) {
    // dL/dx = y * (g - sum(g*y, last))
    const Tensor& y = n.value;
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
    n.parents[0]->accumulate_grad(std::move(dx));
  });
}

Variable log_softmax_last(const Variable& a) {
  return Variable::from_op(a.value().log_softmax_last(), {a}, [](const Node& n, const Tensor& g) {
    // dL/dx = g - softmax(x) * sum(g, last)
    const Tensor& y = n.value;
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
    n.parents[0]->accumulate_grad(std::move(dx));
  });
}

Variable gather_rows(const Variable& table, const std::vector<std::int64_t>& indices) {
  const Tensor& tv = table.value();
  if (tv.ndim() != 2) throw std::invalid_argument("gather_rows(): table must be rank 2");
  const std::int64_t vocab = tv.shape()[0];
  const std::int64_t dim = tv.shape()[1];
  // Fully covered by the row copies below (indices are validated first).
  Tensor out = Tensor::uninitialized({static_cast<std::int64_t>(indices.size()), dim});
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t row = indices[i];
    if (row < 0 || row >= vocab) throw std::out_of_range("gather_rows(): index out of range");
    std::copy(tv.data() + row * dim, tv.data() + (row + 1) * dim,
              out.data() + static_cast<std::int64_t>(i) * dim);
  }
  return Variable::from_op(std::move(out), {table}, [indices, dim](const Node& n, const Tensor& g) {
    Tensor dt(n.parents[0]->value.shape());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::int64_t row = indices[i];
      const float* src = g.data() + static_cast<std::int64_t>(i) * dim;
      float* dst = dt.data() + row * dim;
      for (std::int64_t d = 0; d < dim; ++d) dst[d] += src[d];
    }
    n.parents[0]->accumulate_grad(std::move(dt));
  });
}

}  // namespace mlperf::autograd
