#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "data/translation.h"
#include "metrics/metrics.h"
#include "numerics/format.h"
#include "optim/optimizer.h"

namespace mlperf::checkpoint {
class CheckpointWriter;
class CheckpointReader;
}  // namespace mlperf::checkpoint

namespace mlperf::models {

/// The reference-implementation interface (paper §3.4). A workload packages a
/// dataset, model and training procedure; the harness drives it through the
/// timing rules:
///
///   prepare_data()   -> inside the untimed reformat region
///   build_model(seed)-> inside the (capped) untimed model-creation region
///   train_epoch()    -> timed, once per epoch; each optimizer step goes
///                       through models::train_step (below), so the
///                       workload supplies only its batch source and loss
///   evaluate()       -> timed, returns the quality metric value
///
/// All stochasticity must derive from the seed passed to build_model so that
/// a run is exactly reproducible (§2.2.3 protocol: runs differ only by seed).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual void prepare_data() = 0;
  virtual void build_model(std::uint64_t seed) = 0;
  virtual void train_epoch() = 0;
  virtual double evaluate() = 0;

  /// ---- checkpoint/restore (opt-in) --------------------------------------
  /// A checkpointable workload serializes its COMPLETE training state —
  /// model parameters and buffers, optimizer slot buffers and step counters,
  /// every RNG stream, and data-traversal position — such that a restored
  /// run continues bitwise-identically to one that was never interrupted.
  /// save_state may only be called at an epoch boundary (after train_epoch /
  /// evaluate returned, before the next train_epoch); implementations must
  /// drain any asynchronous work (e.g. a prefetching loader) before
  /// snapshotting. The harness stores its own sections ("meta", "curve",
  /// "timer", "log") alongside the workload's.
  virtual bool supports_checkpoint() const { return false; }
  virtual void save_state(checkpoint::CheckpointWriter& /*out*/) const {
    throw std::logic_error(name() + ": workload does not support checkpointing");
  }
  virtual void restore_state(const checkpoint::CheckpointReader& /*in*/) {
    throw std::logic_error(name() + ": workload does not support checkpointing");
  }

  /// Hyperparameters to log (names should match the Closed-division
  /// whitelist vocabulary where applicable).
  virtual std::map<std::string, double> hyperparameters() const = 0;
  virtual std::int64_t global_batch_size() const = 0;
  /// Signature for Closed-division equivalence checking (model identity).
  virtual std::string model_signature() const = 0;
  virtual std::string optimizer_name() const = 0;
  virtual std::string augmentation_signature() const { return ""; }
};

/// How one optimizer step updates the weights. Every field comes from a
/// workload Config field.
struct StepRule {
  float lr = 0.0f;
  /// Global gradient-norm clip (optim::clip_grad_norm); 0 = off.
  float clip_norm = 0.0f;
  /// Figure-1 weight representation. Anything but FP32 keeps FP32 master
  /// weights: forward/backward see the quantized copy, the update lands on
  /// the masters, and the result is re-quantized.
  numerics::Format weights = numerics::Format::kFP32;
};

namespace detail {
/// Quantizes every parameter to `weights` and returns the FP32 masters
/// (empty, and nothing touched, at FP32).
std::vector<tensor::Tensor> quantize_masters(const optim::Optimizer& optimizer,
                                             numerics::Format weights);
/// zero_grad, backward, restore the masters, clip, step, re-quantize.
void update(optim::Optimizer& optimizer, const StepRule& rule, const autograd::Variable& loss,
            std::vector<tensor::Tensor>& masters);
}  // namespace detail

/// The one training step every reference workload runs (paper §3.4): the
/// workload's `loss_fn()` builds this step's batch and returns its scalar
/// loss; the step owns everything after that. The step is a GraphEpoch, so
/// its tensor-pool traffic is what GraphEpoch::last_pool_misses() reports.
/// Returns the loss.
template <typename LossFn>
autograd::Variable train_step(optim::Optimizer& optimizer, const StepRule& rule,
                              LossFn&& loss_fn) {
  autograd::GraphEpoch step_scope;
  std::vector<tensor::Tensor> masters = detail::quantize_masters(optimizer, rule.weights);
  autograd::Variable loss = std::forward<LossFn>(loss_fn)();
  detail::update(optimizer, rule, loss, masters);
  return loss;
}

/// Corpus BLEU of `translate(sources, max_len)` over the held-out split,
/// decoded in equal-length batches of up to `batch_size` (batched greedy
/// decode needs equal source lengths), shortest bucket first.
template <typename Translate>
double bleu_by_length(const data::SyntheticTranslationDataset& dataset, std::int64_t batch_size,
                      std::int64_t max_len, Translate&& translate) {
  std::vector<data::TokenSeq> hyps, refs;
  for (const auto& bucket : data::length_buckets(dataset, data::Split::kVal)) {
    for (std::size_t off = 0; off < bucket.size(); off += static_cast<std::size_t>(batch_size)) {
      const std::size_t end = std::min(off + static_cast<std::size_t>(batch_size), bucket.size());
      std::vector<data::TokenSeq> src;
      for (std::size_t k = off; k < end; ++k) src.push_back(dataset.val(bucket[k]).source);
      std::vector<data::TokenSeq> out = translate(src, max_len);
      for (std::size_t k = off; k < end; ++k) {
        refs.push_back(dataset.val(bucket[k]).target);
        hyps.push_back(std::move(out[k - off]));
      }
    }
  }
  return metrics::bleu(hyps, refs);
}

}  // namespace mlperf::models
