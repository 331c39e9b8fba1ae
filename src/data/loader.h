#pragma once

#include <future>

#include "data/augment.h"
#include "data/dataset.h"

namespace mlperf::data {

/// A minibatch of images: NCHW tensor plus labels.
struct ImageBatch {
  tensor::Tensor images;             // [N, C, H, W]
  std::vector<std::int64_t> labels;  // size N
};

/// Epoch-based minibatch loader over a reformatted image set.
///
/// Each epoch draws a fresh shuffle from the run's Rng (the paper §2.2.3
/// lists "random data traversal" as a variance source — fixing the seed fixes
/// the traversal). Augmentation runs per example at load time, i.e. inside
/// the timed portion of training (paper §3.2.1).
///
/// With `prefetch` enabled the loader double-buffers: batch k+1 is augmented
/// and assembled on its own thread (std::async) while batch k trains. At
/// parallel::num_threads() == 1 the batch is instead deferred and assembled
/// on the consumer thread when it is waited for, so a 1-thread run starts no
/// thread. The shuffle order is unchanged, and each batch's augmentation
/// draws come from a child Rng split off the run Rng on the consumer thread,
/// in batch order — so a fixed seed yields the same batches at any thread
/// count, just not the same draws as the non-prefetch path, which threads
/// one Rng through every example.
class ImageLoader {
 public:
  ImageLoader(const ReformattedImageSet& set, std::int64_t batch_size,
              const AugmentationPipeline* augment, tensor::Rng& rng, bool drop_last = false,
              bool prefetch = false);

  ImageLoader(const ImageLoader&) = delete;
  ImageLoader& operator=(const ImageLoader&) = delete;

  /// Start a new epoch (reshuffles; discards any in-flight prefetched batch).
  /// The constructor starts the first one, so a fresh loader over the same
  /// Rng draws what start_epoch() on a used loader would.
  void start_epoch();

  /// True if another batch is available this epoch.
  bool has_next() const;

  /// Next minibatch; the last one may be smaller unless drop_last.
  ImageBatch next();

 private:
  /// Kick off assembly of the next batch (prefetch mode). Advances cursor_.
  void schedule_next();
  /// Build the batch for shuffle positions [begin, end); `rng` drives the
  /// augmentation draws (ignored without an augmentation pipeline). Reads
  /// only epoch state that is frozen while a batch is in flight, so it is
  /// safe to run off-thread with a private rng.
  ImageBatch assemble(std::int64_t begin, std::int64_t end, tensor::Rng& rng) const;

  const ReformattedImageSet* set_;
  std::int64_t batch_size_;
  const AugmentationPipeline* augment_;  // nullptr = no augmentation (eval)
  tensor::Rng* rng_;
  bool drop_last_;
  bool prefetch_;
  std::vector<std::size_t> order_;
  std::int64_t cursor_ = 0;
  std::int64_t limit_ = 0;
  // Valid = one batch pending or ready. Declared last: destroying or
  // replacing a std::async future waits for its producer, which reads the
  // members above.
  std::future<ImageBatch> inflight_;
};

}  // namespace mlperf::data
