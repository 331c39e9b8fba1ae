#include "data/augment.h"

#include <algorithm>
#include <stdexcept>

namespace mlperf::data {

using tensor::Rng;
using tensor::Tensor;

Tensor RandomCrop::apply(const Tensor& img, Rng& rng) const {
  if (img.ndim() != 3) throw std::invalid_argument("RandomCrop: expects CHW");
  const std::int64_t c = img.shape()[0], h = img.shape()[1], w = img.shape()[2];
  const std::int64_t oi = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad_ + 1)));
  const std::int64_t oj = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(2 * pad_ + 1)));
  // Output pixel (i, j) reads source (i + oi - pad, j + oj - pad): each row
  // inside the source copies its valid column span, and everything else
  // keeps the zero border of the fresh tensor.
  Tensor out({c, h, w});
  const std::int64_t j0 = std::max<std::int64_t>(0, pad_ - oj);
  const std::int64_t j1 = std::min<std::int64_t>(w, w + pad_ - oj);
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t i = std::max<std::int64_t>(0, pad_ - oi);
         i < std::min<std::int64_t>(h, h + pad_ - oi); ++i)
      if (j0 < j1)
        std::copy_n(img.data() + (ch * h + i + oi - pad_) * w + j0 + oj - pad_, j1 - j0,
                    out.data() + (ch * h + i) * w + j0);
  return out;
}

Tensor RandomHorizontalFlip::apply(const Tensor& img, Rng& rng) const {
  if (img.ndim() != 3) throw std::invalid_argument("RandomHorizontalFlip: expects CHW");
  if (rng.uniform() >= p_) return img;
  const std::int64_t w = img.shape()[2];
  Tensor out = Tensor::uninitialized(img.shape());  // every row reversed into
  for (std::int64_t r = 0; r < img.numel() / std::max<std::int64_t>(w, 1); ++r)
    std::reverse_copy(img.data() + r * w, img.data() + (r + 1) * w, out.data() + r * w);
  return out;
}

Tensor ColorJitter::apply(const Tensor& img, Rng& rng) const {
  const float scale = 1.0f + rng.uniform(-strength_, strength_);
  const float shift = rng.uniform(-strength_ * 0.5f, strength_ * 0.5f);
  return img.map([scale, shift](float v) { return std::clamp(v * scale + shift, 0.0f, 1.0f); });
}

AugmentationPipeline AugmentationPipeline::reference_image_pipeline() {
  AugmentationPipeline p;
  p.add(std::make_unique<RandomCrop>(2))
      .add(std::make_unique<RandomHorizontalFlip>(0.5f))
      .add(std::make_unique<ColorJitter>(0.15f));
  return p;
}

}  // namespace mlperf::data
