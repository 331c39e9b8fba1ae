#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "parallel/parallel_for.h"
#include "tensor/pool.h"
#include "tensor/scratch.h"

namespace mlperf::tensor {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw std::invalid_argument("Tensor: " + msg); }

// Ordered reductions use fixed chunks of this size (boundaries never depend
// on the thread count, so float accumulation is bitwise stable — see
// parallel_reduce). Disjoint-write elementwise kernels split at
// Tensor::kElemGrain (tensor.h).
constexpr std::int64_t kReduceGrain = std::int64_t{1} << 16;

std::string shape_str(const Shape& s) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ',';
    os << s[i];
  }
  os << ']';
  return os.str();
}

}  // namespace

std::int64_t Tensor::shape_numel(const Shape& s) {
  std::int64_t n = 1;
  for (auto d : s) {
    if (d < 0) fail("negative extent in shape " + shape_str(s));
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  const std::int64_t n = shape_numel(shape_);
  data_ = TensorPool::instance().acquire(n);
  data_.assign(static_cast<std::size_t>(n), 0.0f);
}

Tensor::Tensor(Shape shape, float fill) : shape_(std::move(shape)) {
  const std::int64_t n = shape_numel(shape_);
  data_ = TensorPool::instance().acquire(n);
  data_.assign(static_cast<std::size_t>(n), fill);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_numel(shape_) != static_cast<std::int64_t>(data_.size()))
    fail("data size " + std::to_string(data_.size()) + " does not match shape " +
         shape_str(shape_));
}

Tensor::~Tensor() { TensorPool::instance().release(std::move(data_)); }

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  data_ = TensorPool::instance().acquire(static_cast<std::int64_t>(other.data_.size()));
  data_.assign(other.data_.begin(), other.data_.end());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    shape_ = other.shape_;
    if (data_.capacity() < other.data_.size()) {
      TensorPool::instance().release(std::move(data_));
      data_ = TensorPool::instance().acquire(static_cast<std::int64_t>(other.data_.size()));
    }
    data_.assign(other.data_.begin(), other.data_.end());
  }
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    TensorPool::instance().release(std::move(data_));
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
  }
  return *this;
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  const std::int64_t n = shape_numel(t.shape_);
  t.data_ = TensorPool::instance().acquire(n);
  // Recycled buffers keep their released size, so within a bucket this
  // resize writes nothing (shrink) or zero-fills only the gap (grow) —
  // amortized free once the pool is warm.
  t.data_.resize(static_cast<std::size_t>(n));
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t = uninitialized({n});
  for (std::int64_t i = 0; i < n; ++i) t[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t = uninitialized(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = uninitialized(std::move(shape));
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

std::int64_t Tensor::size(std::int64_t dim) const {
  if (dim < 0) dim += ndim();
  if (dim < 0 || dim >= ndim()) fail("size(): dim out of range");
  return shape_[static_cast<std::size_t>(dim)];
}

std::vector<std::int64_t> Tensor::strides() const {
  std::vector<std::int64_t> st(shape_.size(), 1);
  for (std::int64_t i = ndim() - 2; i >= 0; --i)
    st[static_cast<std::size_t>(i)] =
        st[static_cast<std::size_t>(i + 1)] * shape_[static_cast<std::size_t>(i + 1)];
  return st;
}

std::int64_t Tensor::offset(std::initializer_list<std::int64_t> idx) const {
  if (static_cast<std::int64_t>(idx.size()) != ndim()) fail("offset(): rank mismatch");
  // Horner's rule over the row-major strides: no strides() vector per call,
  // which per-pixel callers (augmentation, mask crops) would pay per element.
  std::int64_t off = 0;
  std::size_t d = 0;
  for (auto i : idx) {
    if (i < 0 || i >= shape_[d]) fail("offset(): index out of range");
    off = off * shape_[d] + i;
    ++d;
  }
  return off;
}

float& Tensor::at(std::initializer_list<std::int64_t> idx) {
  return data_[static_cast<std::size_t>(offset(idx))];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  return data_[static_cast<std::size_t>(offset(idx))];
}

Tensor Tensor::reshape(Shape new_shape) const {
  std::int64_t known = 1;
  std::int64_t infer_at = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (infer_at >= 0) fail("reshape(): more than one -1");
      infer_at = static_cast<std::int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer_at >= 0) {
    if (known == 0 || numel() % known != 0) fail("reshape(): cannot infer extent");
    new_shape[static_cast<std::size_t>(infer_at)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel()) fail("reshape(): numel mismatch");
  Tensor out(*this);  // pooled copy (the old Tensor(shape, data_) bypassed the pool)
  out.shape_ = std::move(new_shape);
  return out;
}

Tensor Tensor::permute(const std::vector<std::int64_t>& dims) const {
  if (static_cast<std::int64_t>(dims.size()) != ndim()) fail("permute(): rank mismatch");
  std::vector<bool> seen(dims.size(), false);
  Shape new_shape(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const auto d = dims[i];
    if (d < 0 || d >= ndim() || seen[static_cast<std::size_t>(d)]) fail("permute(): bad dims");
    seen[static_cast<std::size_t>(d)] = true;
    new_shape[i] = shape_[static_cast<std::size_t>(d)];
  }
  Tensor out = uninitialized(new_shape);  // every element written below
  const auto in_st = strides();
  const auto out_st = out.strides();
  const std::size_t rank = dims.size();
  // Input stride of each OUTPUT dimension.
  std::vector<std::int64_t> src_st(rank);
  for (std::size_t i = 0; i < rank; ++i)
    src_st[i] = in_st[static_cast<std::size_t>(dims[i])];
  const std::int64_t n = numel();
  const float* src_p = data();
  float* dst = out.data();
  parallel::parallel_for(kElemGrain, n, [&](std::int64_t begin, std::int64_t end) {
    // Odometer over OUTPUT coordinates: decompose `begin` once, then advance
    // with carries — no per-element div/mod. Pure data movement, so the
    // result is identical to the naive per-element decomposition.
    std::vector<std::int64_t> coord(rank, 0);
    std::int64_t si = 0, rem = begin;
    for (std::size_t d = 0; d < rank; ++d) {
      coord[d] = rem / out_st[d];
      rem %= out_st[d];
      si += coord[d] * src_st[d];
    }
    for (std::int64_t flat = begin; flat < end; ++flat) {
      dst[flat] = src_p[si];
      for (std::size_t d = rank; d-- > 0;) {
        ++coord[d];
        si += src_st[d];
        if (coord[d] < new_shape[d]) break;
        si -= coord[d] * src_st[d];
        coord[d] = 0;
      }
    }
  });
  return out;
}

Tensor Tensor::slice0(std::int64_t begin, std::int64_t end) const {
  if (ndim() < 1) fail("slice0(): rank 0");
  if (begin < 0 || end > shape_[0] || begin > end) fail("slice0(): bad range");
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  const std::int64_t row = numel() / std::max<std::int64_t>(shape_[0], 1);
  Tensor out = uninitialized(std::move(out_shape));  // fully covered by the copy
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * row),
            data_.begin() + static_cast<std::ptrdiff_t>(end * row), out.data_.begin());
  return out;
}

Tensor Tensor::cat0(const std::vector<Tensor>& parts) {
  if (parts.empty()) fail("cat0(): empty");
  Shape out_shape = parts[0].shape_;
  std::int64_t total0 = 0;
  for (const auto& p : parts) {
    if (p.ndim() != static_cast<std::int64_t>(out_shape.size())) fail("cat0(): rank mismatch");
    for (std::size_t d = 1; d < out_shape.size(); ++d)
      if (p.shape_[d] != out_shape[d]) fail("cat0(): trailing extent mismatch");
    total0 += p.shape_[0];
  }
  out_shape[0] = total0;
  Tensor out = uninitialized(out_shape);  // the part copies cover every element
  std::size_t pos = 0;
  for (const auto& p : parts) {
    std::copy(p.data_.begin(), p.data_.end(), out.data_.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += p.data_.size();
  }
  return out;
}

Shape Tensor::broadcast_shape(const Shape& a, const Shape& b) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const std::int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da != db && da != 1 && db != 1)
      fail("broadcast: incompatible shapes " + shape_str(a) + " vs " + shape_str(b));
    out[i] = std::max(da, db);
  }
  return out;
}

Tensor::BroadcastPlan Tensor::broadcast_plan(const Tensor& a, const Tensor& b) {
  BroadcastPlan plan;
  plan.shape = broadcast_shape(a.shape_, b.shape_);
  const std::size_t rank = plan.shape.size();
  // Right-aligned strides with 0 for broadcast dims.
  auto bc_strides = [&](const Tensor& t) {
    std::vector<std::int64_t> st(rank, 0);
    std::int64_t run = 1;
    const std::size_t tr = t.shape_.size();
    for (std::size_t i = 0; i < tr; ++i) {
      const std::size_t d = tr - 1 - i;             // dim in t
      const std::size_t od = rank - 1 - i;          // dim in out
      st[od] = (t.shape_[d] == 1 && plan.shape[od] != 1) ? 0 : run;
      run *= t.shape_[d];
    }
    return st;
  };
  plan.sa = bc_strides(a);
  plan.sb = bc_strides(b);
  plan.so.assign(rank, 1);
  for (std::size_t i = rank; i-- > 1;) plan.so[i - 1] = plan.so[i] * plan.shape[i];
  return plan;
}

Tensor Tensor::reduce_to(const Shape& target) const {
  if (shape_ == target) return *this;
  // Verify target broadcasts to our shape, then sum the broadcast dims.
  if (broadcast_shape(shape_, target) != shape_)
    fail("reduce_to(): target " + shape_str(target) + " does not broadcast to " +
         shape_str(shape_));
  Tensor out(target);
  const std::int64_t n = numel();
  const std::int64_t tn = out.numel();
  const float* src = data();
  float* dst = out.data();
  // All paths accumulate in ascending flat order of the source — output slots
  // overlap, and per-slot accumulation order is part of the bitwise contract.
  if (tn == 1) {
    // Everything folds into one slot; a register accumulator performs the
    // exact same chain of float adds as the generic path.
    float acc = dst[0];
    for (std::int64_t flat = 0; flat < n; ++flat) acc += src[flat];
    dst[0] = acc;
    return out;
  }
  // Fast path: target matches a trailing run of our dims exactly (the classic
  // bias-gradient shape, e.g. [N,F] -> [F] or [B,T,D] -> [D]). Ascending flat
  // order visits each output slot with ascending leading index — precisely
  // the generic path's per-slot accumulation order.
  {
    bool trailing = tn > 0 && target.size() <= shape_.size();
    for (std::size_t i = 0; trailing && i < target.size(); ++i)
      trailing = target[target.size() - 1 - i] == shape_[shape_.size() - 1 - i];
    if (trailing) {
      const std::int64_t rows = n / tn;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* row = src + r * tn;
        for (std::int64_t c = 0; c < tn; ++c) dst[c] += row[c];
      }
      return out;
    }
  }
  const std::size_t rank = shape_.size();
  std::vector<std::int64_t> tstrides(rank, 0);
  {
    std::int64_t run = 1;
    const std::size_t tr = target.size();
    for (std::size_t i = 0; i < tr; ++i) {
      const std::size_t d = tr - 1 - i;
      const std::size_t od = rank - 1 - i;
      tstrides[od] = (target[d] == 1 && shape_[od] != 1) ? 0 : run;
      run *= target[d];
    }
  }
  // Odometer over source coordinates: same visit order as the old per-element
  // div/mod decomposition, without the div/mod.
  std::vector<std::int64_t> coord(rank, 0);
  std::int64_t ti = 0;
  for (std::int64_t flat = 0; flat < n; ++flat) {
    dst[ti] += src[flat];
    for (std::size_t d = rank; d-- > 0;) {
      ++coord[d];
      ti += tstrides[d];
      if (coord[d] < shape_[d]) break;
      ti -= coord[d] * tstrides[d];
      coord[d] = 0;
    }
  }
  return out;
}

Tensor Tensor::add_scalar(float s) const {
  return map([s](float x) { return x + s; });
}
Tensor Tensor::mul_scalar(float s) const {
  return map([s](float x) { return x * s; });
}

Tensor Tensor::relu() const {
  return map([](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Tensor::log() const {
  return map([](float x) { return std::log(x); });
}
Tensor Tensor::tanh() const {
  return map([](float x) { return std::tanh(x); });
}
Tensor Tensor::sigmoid() const {
  return map([](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

float Tensor::sum() const {
  const double s = parallel::parallel_reduce(
      kReduceGrain, numel(), 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double a = 0.0;
        for (std::int64_t i = begin; i < end; ++i) a += data_[static_cast<std::size_t>(i)];
        return a;
      },
      [](double a, double b) { return a + b; });
  return static_cast<float>(s);
}

float Tensor::mean() const {
  if (data_.empty()) fail("mean(): empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::max() const {
  if (data_.empty()) fail("max(): empty tensor");
  // min/max combines are exactly associative, so any chunking is bit-stable.
  return parallel::parallel_reduce(
      kReduceGrain, numel(), -std::numeric_limits<float>::infinity(),
      [&](std::int64_t begin, std::int64_t end) {
        return *std::max_element(data_.begin() + begin, data_.begin() + end);
      },
      [](float a, float b) { return std::max(a, b); });
}

float Tensor::min() const {
  if (data_.empty()) fail("min(): empty tensor");
  return parallel::parallel_reduce(
      kReduceGrain, numel(), std::numeric_limits<float>::infinity(),
      [&](std::int64_t begin, std::int64_t end) {
        return *std::min_element(data_.begin() + begin, data_.begin() + end);
      },
      [](float a, float b) { return std::min(a, b); });
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) fail("argmax(): empty tensor");
  return static_cast<std::int64_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::vector<std::int64_t> Tensor::argmax_last() const {
  if (ndim() < 1) fail("argmax_last(): rank 0");
  const std::int64_t last = shape_.back();
  if (last == 0) fail("argmax_last(): empty last axis");
  const std::int64_t rows = numel() / last;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  parallel::parallel_for(
      parallel::grain_for(last), rows, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* row = data() + r * last;
          out[static_cast<std::size_t>(r)] =
              static_cast<std::int64_t>(std::max_element(row, row + last) - row);
        }
      });
  return out;
}

Tensor Tensor::matmul(const Tensor& o) const { return matmul(o, Trans::N, Trans::N); }

Tensor Tensor::matmul(const Tensor& o, Trans ta, Trans tb) const {
  if (ndim() != 2 || o.ndim() != 2) fail("matmul(): expects rank-2 operands");
  const std::int64_t m = ta == Trans::N ? shape_[0] : shape_[1];
  const std::int64_t ka = ta == Trans::N ? shape_[1] : shape_[0];
  const std::int64_t kb = tb == Trans::N ? o.shape_[0] : o.shape_[1];
  const std::int64_t n = tb == Trans::N ? o.shape_[1] : o.shape_[0];
  if (ka != kb)
    fail("matmul(): inner extent mismatch " + shape_str(shape_) + " x " + shape_str(o.shape_));
  const std::int64_t lda = shape_[1], ldb = o.shape_[1];
  Tensor out({m, n});
  // Pack op(B) once on the calling thread; the packed panels are shared
  // read-only across the row-partitions below. Each row of C accumulates its
  // k-products in ascending order with a single accumulator, so any row
  // partition is bitwise identical to the single-threaded result.
  ScratchArena::Frame frame(ScratchArena::tls());
  float* bp = frame.alloc(gemm_packed_b_size(ka, n));
  gemm_pack_b(tb, o.data(), ldb, ka, n, bp);
  const std::int64_t a_row_stride = ta == Trans::N ? lda : 1;
  parallel::parallel_for(
      parallel::grain_for(ka * n), m, [&](std::int64_t begin, std::int64_t end) {
        gemm_packed(ta, data() + begin * a_row_stride, lda, bp, end - begin, n, ka,
                    out.data() + begin * n, n);
      });
  return out;
}

Tensor Tensor::bmm(const Tensor& o) const { return bmm(o, Trans::N, Trans::N); }

Tensor Tensor::bmm(const Tensor& o, Trans ta, Trans tb) const {
  if (ndim() != 3 || o.ndim() != 3) fail("bmm(): expects rank-3 operands");
  const std::int64_t b = shape_[0];
  const std::int64_t m = ta == Trans::N ? shape_[1] : shape_[2];
  const std::int64_t ka = ta == Trans::N ? shape_[2] : shape_[1];
  const std::int64_t kb = tb == Trans::N ? o.shape_[1] : o.shape_[2];
  const std::int64_t n = tb == Trans::N ? o.shape_[2] : o.shape_[1];
  if (o.shape_[0] != b || ka != kb)
    fail("bmm(): shape mismatch " + shape_str(shape_) + " x " + shape_str(o.shape_));
  const std::int64_t lda = shape_[2], ldb = o.shape_[2];
  const std::int64_t a_batch = shape_[1] * shape_[2], b_batch = o.shape_[1] * o.shape_[2];
  Tensor out({b, m, n});
  parallel::parallel_for(
      parallel::grain_for(m * ka * n), b, [&](std::int64_t begin, std::int64_t end) {
        ScratchArena::Frame frame(ScratchArena::tls());
        float* bp = frame.alloc(gemm_packed_b_size(ka, n));
        for (std::int64_t i = begin; i < end; ++i) {
          gemm_pack_b(tb, o.data() + i * b_batch, ldb, ka, n, bp);
          gemm_packed(ta, data() + i * a_batch, lda, bp, m, n, ka, out.data() + i * m * n, n);
        }
      });
  return out;
}

Tensor Tensor::softmax_last() const {
  if (ndim() < 1) fail("softmax_last(): rank 0");
  const std::int64_t last = shape_.back();
  const std::int64_t rows = numel() / std::max<std::int64_t>(last, 1);
  Tensor out = uninitialized(shape_);  // every row fully written below
  parallel::parallel_for(
      parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* src = data() + r * last;
          float* dst = out.data() + r * last;
          const float mx = *std::max_element(src, src + last);
          double denom = 0.0;
          for (std::int64_t j = 0; j < last; ++j) {
            dst[j] = std::exp(src[j] - mx);
            denom += dst[j];
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (std::int64_t j = 0; j < last; ++j) dst[j] *= inv;
        }
      });
  return out;
}

Tensor Tensor::log_softmax_last() const {
  if (ndim() < 1) fail("log_softmax_last(): rank 0");
  const std::int64_t last = shape_.back();
  const std::int64_t rows = numel() / std::max<std::int64_t>(last, 1);
  Tensor out = uninitialized(shape_);  // every row fully written below
  parallel::parallel_for(
      parallel::grain_for(4 * last), rows, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const float* src = data() + r * last;
          float* dst = out.data() + r * last;
          const float mx = *std::max_element(src, src + last);
          double denom = 0.0;
          for (std::int64_t j = 0; j < last; ++j) denom += std::exp(src[j] - mx);
          const float lse = mx + static_cast<float>(std::log(denom));
          for (std::int64_t j = 0; j < last; ++j) dst[j] = src[j] - lse;
        }
      });
  return out;
}

float Tensor::l2_norm_sq() const {
  const double s = parallel::parallel_reduce(
      kReduceGrain, numel(), 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double a = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          const double v = data_[static_cast<std::size_t>(i)];
          a += v * v;
        }
        return a;
      },
      [](double a, double b) { return a + b; });
  return static_cast<float>(s);
}

bool Tensor::all_finite() const {
  return std::all_of(data_.begin(), data_.end(), [](float v) { return std::isfinite(v); });
}

std::string Tensor::to_string(std::int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_str(shape_) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<std::size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << '}';
  return os.str();
}

}  // namespace mlperf::tensor
