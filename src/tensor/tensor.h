#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace mlperf::tensor {

using Shape = std::vector<std::int64_t>;

/// Dense, contiguous, row-major float32 tensor with value semantics.
///
/// This is the numeric substrate for the whole stack: autograd, layers and
/// models are built on it. It deliberately favours simplicity and
/// debuggability: one dtype, contiguous storage, explicit broadcast rules
/// (NumPy-style, right-aligned), no views. All shapes use signed 64-bit
/// extents; any rank mismatch or out-of-range access throws.
class Tensor {
 public:
  /// Empty scalar-less tensor (numel == 0, rank 0).
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Constant-filled tensor.
  Tensor(Shape shape, float fill);

  /// Tensor adopting the given data (size must match the shape's numel).
  Tensor(Shape shape, std::vector<float> data);

  /// Value semantics, with storage recycled through the TensorPool: the
  /// destructor parks the buffer on a free list, copies and the filling
  /// constructors draw from it. Only the storage's origin changes — fill
  /// and copy semantics (and therefore numerics) are untouched.
  ~Tensor();
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;

  // ----- factories ---------------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  static Tensor scalar(float v) { return Tensor({1}, {v}); }
  /// [0, 1, ..., n-1] as a 1-D tensor.
  static Tensor arange(std::int64_t n);
  /// I.i.d. N(mean, stddev) entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  /// Tensor whose elements are NOT initialized (recycled buffers carry stale
  /// values). Strictly for producers that overwrite every element before the
  /// tensor escapes — never for accumulation targets (GEMM `C +=`,
  /// scatter-add gradients), which rely on the zero fill of Tensor(Shape).
  static Tensor uninitialized(Shape shape);

  // ----- structure ---------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t dim) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::int64_t flat) { return data_[static_cast<std::size_t>(flat)]; }
  float operator[](std::int64_t flat) const { return data_[static_cast<std::size_t>(flat)]; }

  /// Bounds-checked multi-dimensional access.
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  /// Flat offset of a multi-dimensional index (bounds-checked).
  std::int64_t offset(std::initializer_list<std::int64_t> idx) const;

  // ----- shape manipulation (all return fresh tensors) ---------------------
  /// Same data, new shape; one extent may be -1 (inferred). Numel must match.
  Tensor reshape(Shape new_shape) const;
  /// Permute dimensions, e.g. permute({1,0}) is a 2-D transpose.
  Tensor permute(const std::vector<std::int64_t>& dims) const;
  /// Slice along dim 0: rows [begin, end).
  Tensor slice0(std::int64_t begin, std::int64_t end) const;
  /// Concatenate along dim 0 (all other extents must match).
  static Tensor cat0(const std::vector<Tensor>& parts);

  // ----- elementwise & broadcast binary ops ---------------------------------
  Tensor add(const Tensor& o) const { return binary(o, std::plus<float>{}); }
  Tensor mul(const Tensor& o) const { return binary(o, std::multiplies<float>{}); }
  Tensor add_scalar(float s) const;
  Tensor mul_scalar(float s) const;
  /// General broadcast binary op (NumPy right-aligned broadcast rules). The
  /// functor is a template parameter, so it inlines into the element loop.
  template <typename F>
  Tensor binary(const Tensor& o, F f) const {
    if (shape_ == o.shape_) {  // same-shape fast path
      Tensor out = uninitialized(shape_);
      const float* pa = data();
      const float* pb = o.data();
      float* po = out.data();
      parallel::parallel_for(kElemGrain, numel(), [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) po[i] = f(pa[i], pb[i]);
      });
      return out;
    }
    const BroadcastPlan plan = broadcast_plan(*this, o);
    Tensor out = uninitialized(plan.shape);
    const std::size_t rank = plan.shape.size();
    const float* pa = data();
    const float* pb = o.data();
    float* po = out.data();
    parallel::parallel_for(kElemGrain, out.numel(), [&](std::int64_t begin, std::int64_t end) {
      // Odometer iteration: decompose `begin` once, then advance coordinates
      // incrementally — no per-element div/mod.
      std::vector<std::int64_t> coord(rank, 0);
      std::int64_t ia = 0, ib = 0, rem = begin;
      for (std::size_t d = 0; d < rank; ++d) {
        coord[d] = rem / plan.so[d];
        rem %= plan.so[d];
        ia += coord[d] * plan.sa[d];
        ib += coord[d] * plan.sb[d];
      }
      for (std::int64_t flat = begin; flat < end; ++flat) {
        po[flat] = f(pa[ia], pb[ib]);
        for (std::size_t d = rank; d-- > 0;) {
          ++coord[d];
          ia += plan.sa[d];
          ib += plan.sb[d];
          if (coord[d] < plan.shape[d]) break;
          ia -= coord[d] * plan.sa[d];
          ib -= coord[d] * plan.sb[d];
          coord[d] = 0;
        }
      }
    });
    return out;
  }
  /// Shape of broadcasting `a` with `b`; throws if incompatible.
  static Shape broadcast_shape(const Shape& a, const Shape& b);
  /// Sum this tensor down to `target` shape (reverse of broadcast).
  Tensor reduce_to(const Shape& target) const;

  // ----- unary maps ---------------------------------------------------------
  /// Elementwise unary map; the functor inlines like binary()'s.
  template <typename F>
  Tensor map(F f) const {
    Tensor out = uninitialized(shape_);
    const float* ps = data();
    float* po = out.data();
    parallel::parallel_for(kElemGrain, numel(), [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) po[i] = f(ps[i]);
    });
    return out;
  }
  Tensor relu() const;
  Tensor log() const;
  Tensor tanh() const;
  Tensor sigmoid() const;

  // ----- reductions ---------------------------------------------------------
  float sum() const;
  float mean() const;
  float max() const;
  float min() const;
  /// Index of max element (flat).
  std::int64_t argmax() const;
  /// Argmax along the last axis: shape drops the last dim.
  std::vector<std::int64_t> argmax_last() const;

  // ----- linear algebra ------------------------------------------------------
  /// 2-D matrix product: [m,k] x [k,n] -> [m,n].
  Tensor matmul(const Tensor& o) const;
  /// 2-D matrix product with either operand consumed transposed in place:
  /// op(this) x op(o). The transpose is absorbed by the GEMM pack step — no
  /// materialized transpose copy — and the result is bitwise identical to
  /// matmul() of explicitly transposed operands.
  Tensor matmul(const Tensor& o, Trans ta, Trans tb) const;
  /// Batched matmul: [b,m,k] x [b,k,n] -> [b,m,n].
  Tensor bmm(const Tensor& o) const;
  /// Batched matmul with per-batch transposed operands (see matmul overload).
  Tensor bmm(const Tensor& o, Trans ta, Trans tb) const;

  // ----- softmax family ------------------------------------------------------
  /// Numerically-stable softmax over the last axis.
  Tensor softmax_last() const;
  /// Numerically-stable log-softmax over the last axis.
  Tensor log_softmax_last() const;

  // ----- misc ----------------------------------------------------------------
  /// Squared L2 norm of all entries.
  float l2_norm_sq() const;
  /// True if all finite.
  bool all_finite() const;
  std::string to_string(std::int64_t max_elems = 32) const;

  /// Elementwise kernels split at this many elements per parallel subrange.
  /// Boundaries never affect bits for disjoint-write ops; ordered reductions
  /// use their own fixed chunking (see tensor.cpp).
  static constexpr std::int64_t kElemGrain = std::int64_t{1} << 15;

 private:
  Shape shape_;
  std::vector<float> data_;

  /// Precomputed right-aligned broadcast strides (0 on broadcast dims) for
  /// binary()'s odometer loop.
  struct BroadcastPlan {
    Shape shape;                      ///< broadcast output shape
    std::vector<std::int64_t> sa;     ///< strides into `a`
    std::vector<std::int64_t> sb;     ///< strides into `b`
    std::vector<std::int64_t> so;     ///< contiguous strides of `shape`
  };
  static BroadcastPlan broadcast_plan(const Tensor& a, const Tensor& b);

  static std::int64_t shape_numel(const Shape& s);
  std::vector<std::int64_t> strides() const;
};

}  // namespace mlperf::tensor
