#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "data/translation.h"
#include "nn/module.h"
#include "numerics/format.h"
#include "optim/optimizer.h"
#include "tensor/rng.h"

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

  /// The model whose parameters and buffers the "model" checkpoint section
  /// holds; nullptr before build_model. Workloads override it with their
  /// own model type.
  virtual nn::Module* model() const = 0;

  /// ---- checkpoint/restore ------------------------------------------------
  /// save_state writes the COMPLETE training state — sections "model"
  /// (parameters and buffers), "optimizer" (slot buffers and step counters),
  /// "rng" (the run rng), then whatever save_sections adds — such that a
  /// restored run continues bitwise-identically to one that was never
  /// interrupted. It may only be called at an epoch boundary (after
  /// train_epoch / evaluate returned, before the next train_epoch). The
  /// harness stores its own sections ("meta", "curve", "timer", "log")
  /// alongside. Both throw std::logic_error before build_model; restore_state
  /// throws checkpoint::CheckpointError on any section that does not fit.
  void save_state(checkpoint::CheckpointWriter& out) const;
  void restore_state(const checkpoint::CheckpointReader& in);

  /// Hyperparameters to log (names should match the Closed-division
  /// whitelist vocabulary where applicable).
  virtual std::map<std::string, double> hyperparameters() const = 0;
  virtual std::int64_t global_batch_size() const = 0;
  /// Signature for Closed-division equivalence checking (model identity).
  virtual std::string model_signature() const = 0;
  virtual std::string optimizer_name() const = 0;
  virtual std::string augmentation_signature() const { return ""; }

 protected:
  /// Sections for state the base does not hold, written after "rng" and
  /// read strictly (default: none).
  virtual void save_sections(checkpoint::CheckpointWriter& /*out*/) const {}
  virtual void restore_sections(const checkpoint::CheckpointReader& /*in*/) {}

  /// Seeds the run rng and returns the stream that initializes the model.
  tensor::Rng reseed(std::uint64_t seed) {
    rng_ = tensor::Rng(seed);
    return rng_.split();
  }

  /// The run rng: every draw of data order, augmentation and self-play.
  tensor::Rng rng_{1};
  /// Created by build_model over model()->parameters().
  std::unique_ptr<optim::Optimizer> optimizer_;
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

/// The translation reference workloads (Table 1 rows 4 and 5): one synthetic
/// language pair, teacher-forced training over length-bucketed batches, and
/// corpus BLEU of greedy decodes over the held-out split. The base owns the
/// dataset, the training buckets and their checkpoint section ("buckets");
/// a subclass builds its model and supplies the three hooks below.
class TranslationWorkload : public Workload {
 public:
  void prepare_data() override;
  /// One epoch of shuffled_bucket_batches, one train_step per batch.
  void train_epoch() override;
  /// Corpus BLEU of greedy_translate over the held-out split, decoded in
  /// equal-length batches of up to the batch size (batched greedy decode
  /// needs equal source lengths), shortest bucket first.
  double evaluate() override;
  std::int64_t global_batch_size() const override { return batch_size_; }
  std::string optimizer_name() const override { return "adam"; }

 protected:
  TranslationWorkload(data::SyntheticTranslationDataset::Config dataset, std::int64_t batch_size)
      : dataset_config_(dataset), batch_size_(batch_size) {}

  /// How every step updates the weights (e.g. GNMT's gradient clip).
  virtual StepRule step_rule() const = 0;
  /// One batch's scalar training loss.
  virtual autograd::Variable batch_loss(const data::TranslationBatch& batch) = 0;
  /// Greedy decode of a batch of equal-length sources, up to `max_len` tokens.
  virtual std::vector<data::TokenSeq> greedy_translate(const std::vector<data::TokenSeq>& src,
                                                       std::int64_t max_len) = 0;

 private:
  /// Section "buckets": the training buckets' shuffled order.
  void save_sections(checkpoint::CheckpointWriter& out) const override;
  void restore_sections(const checkpoint::CheckpointReader& in) override;

  data::SyntheticTranslationDataset::Config dataset_config_;
  std::int64_t batch_size_;
  std::unique_ptr<data::SyntheticTranslationDataset> dataset_;
  data::LengthBuckets length_buckets_;  ///< training split, by source length
};

}  // namespace mlperf::models
