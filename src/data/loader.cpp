#include "data/loader.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.h"

namespace mlperf::data {

using tensor::Tensor;

ImageLoader::ImageLoader(const ReformattedImageSet& set, std::int64_t batch_size,
                         const AugmentationPipeline* augment, tensor::Rng& rng, bool drop_last,
                         bool prefetch)
    : set_(&set), batch_size_(batch_size), augment_(augment), rng_(&rng),
      drop_last_(drop_last), prefetch_(prefetch) {
  if (batch_size <= 0) throw std::invalid_argument("ImageLoader: batch_size must be > 0");
  start_epoch();
}

void ImageLoader::start_epoch() {
  inflight_ = {};  // a running batch still reads order_: this waits for it
  order_ = rng_->permutation(static_cast<std::size_t>(set_->size()));
  cursor_ = 0;
  limit_ = set_->size();
  if (drop_last_) limit_ -= limit_ % batch_size_;
  if (prefetch_) schedule_next();
}

bool ImageLoader::has_next() const {
  if (prefetch_) return inflight_.valid();
  return cursor_ < limit_;
}

ImageBatch ImageLoader::assemble(std::int64_t begin, std::int64_t end, tensor::Rng& rng) const {
  const std::int64_t n = end - begin;
  const ImageExample& first =
      set_->get(static_cast<std::int64_t>(order_[static_cast<std::size_t>(begin)]));
  const auto& ishape = first.image.shape();
  ImageBatch batch;
  // Every element is covered by the per-example copies below, so the batch
  // buffer can come from the pool without zero-fill. Producer-thread acquire /
  // consumer-thread release recycles through the pool's shared (not TLS) tier
  // because batch buffers exceed kSharedBucketFloats.
  batch.images = Tensor::uninitialized({n, ishape[0], ishape[1], ishape[2]});
  batch.labels.resize(static_cast<std::size_t>(n));
  const std::int64_t img_numel = first.image.numel();
  for (std::int64_t b = 0; b < n; ++b) {
    const ImageExample& ex =
        set_->get(static_cast<std::int64_t>(order_[static_cast<std::size_t>(begin + b)]));
    Tensor img = augment_ ? augment_->apply(ex.image, rng) : ex.image;
    if (img.numel() != img_numel) throw std::logic_error("ImageLoader: inconsistent image size");
    std::copy(img.vec().begin(), img.vec().end(), batch.images.vec().begin() + b * img_numel);
    batch.labels[static_cast<std::size_t>(b)] = ex.label;
  }
  return batch;
}

void ImageLoader::schedule_next() {
  if (cursor_ >= limit_) return;
  const std::int64_t begin = cursor_;
  const std::int64_t end = std::min(cursor_ + batch_size_, limit_);
  cursor_ = end;
  // The batch's augmentation stream is split off on this (consumer) thread,
  // in batch order, so the draws are a function of the seed alone — never of
  // how the producer task is scheduled.
  tensor::Rng batch_rng = augment_ ? rng_->split() : tensor::Rng(0);
  const auto policy =
      parallel::num_threads() > 1 ? std::launch::async : std::launch::deferred;
  inflight_ = std::async(policy, [this, begin, end, batch_rng]() mutable {
    return assemble(begin, end, batch_rng);
  });
}

ImageBatch ImageLoader::next() {
  if (!has_next()) throw std::logic_error("ImageLoader: epoch exhausted");
  if (prefetch_) {
    std::future<ImageBatch> job = std::move(inflight_);
    job.wait();       // one producer at a time
    schedule_next();  // overlap batch k+1 with the consumer's work on batch k
    return job.get();  // rethrows the producer's exception
  }
  // Non-prefetch path: thread the run Rng through every example, exactly as
  // the original single-threaded loader did.
  const std::int64_t end = std::min(cursor_ + batch_size_, limit_);
  ImageBatch batch = assemble(cursor_, end, *rng_);
  cursor_ = end;
  return batch;
}

}  // namespace mlperf::data
