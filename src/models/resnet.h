#pragma once

#include <memory>
#include <optional>

#include "data/dataset.h"
#include "data/loader.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "numerics/format.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// A residual bottleneck block implementing the three ResNet-v1.5 deviations
/// the paper pins down (§3.1.1):
///   1. downsampling is applied by the 3x3 convolution (stride on the 3x3,
///      not the first 1x1);
///   2. the first residual block's skip connection has no 1x1 projection
///      when the shapes already match;
///   3. the residual addition happens after batch normalization.
class BottleneckBlock : public nn::Module {
 public:
  BottleneckBlock(std::int64_t in_ch, std::int64_t mid_ch, std::int64_t out_ch,
                  std::int64_t stride, tensor::Rng& rng);

  autograd::Variable forward(const autograd::Variable& x);

 private:
  nn::Conv2d conv1_, conv2_, conv3_;
  nn::BatchNorm2d bn1_, bn2_, bn3_;
  std::unique_ptr<nn::Conv2d> proj_;      // nullptr = identity skip (v1.5 rule 2)
  std::unique_ptr<nn::BatchNorm2d> proj_bn_;
};

/// Scaled-down ResNet-v1.5 classifier (DESIGN.md: ImageNet -> synthetic).
class ResNetMini : public nn::Module {
 public:
  struct Config {
    std::int64_t num_classes = 10;
    std::int64_t in_channels = 3;
    std::int64_t stem_channels = 8;
    std::vector<std::int64_t> stage_channels = {8, 16};  ///< mid channels per stage
    std::vector<std::int64_t> stage_blocks = {1, 1};
    std::int64_t expansion = 2;  ///< out = mid * expansion (ResNet-50 uses 4)
  };

  ResNetMini(const Config& config, tensor::Rng& rng);

  /// images: [N, C, H, W] -> logits [N, num_classes].
  autograd::Variable forward(const autograd::Variable& images);

  const Config& config() const { return config_; }

 private:
  Config config_;
  nn::Conv2d stem_;
  nn::BatchNorm2d stem_bn_;
  std::vector<std::unique_ptr<BottleneckBlock>> blocks_;
  nn::Linear fc_;
};

/// The image-classification reference workload (Table 1 row 1).
class ResNetWorkload : public Workload {
 public:
  struct Config {
    data::SyntheticImageDataset::Config dataset;
    ResNetMini::Config model;
    std::int64_t batch_size = 32;
    float base_lr = 0.08f;
    std::int64_t base_batch = 32;      ///< linear-scaling reference batch
    std::int64_t warmup_steps = 10;
    float lr_decay_gamma = 0.6f;
    std::int64_t lr_decay_epochs = 4;  ///< decay every N epochs
    float momentum = 0.9f;
    float weight_decay = 5e-4f;
    /// Figure-1 study: quantize weights through this format each step.
    numerics::Format weight_format = numerics::Format::kFP32;
    /// Eq.1 vs Eq.2 momentum semantics (§2.2.4 ablation).
    optim::MomentumSemantics momentum_semantics =
        optim::MomentumSemantics::kLrOutsideMomentum;
    /// Double-buffer the training loader: batch k+1 is augmented/assembled
    /// on its own thread while batch k trains. Deterministic for a
    /// fixed seed at any thread count, but a different (per-batch split)
    /// augmentation stream than the default in-line loader — so it defaults
    /// off to keep legacy trajectories bit-for-bit.
    bool prefetch_loader = false;
  };

  explicit ResNetWorkload(Config config);

  std::string name() const override { return "image_classification"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "ResNet-50 v1.5"; }
  std::string optimizer_name() const override { return "sgd_momentum"; }
  std::string augmentation_signature() const override { return augment_.signature(); }

  /// Direct access for tests and the precision/batch-size benches.
  ResNetMini* model() const override { return model_.get(); }
  std::int64_t step() const { return step_; }

 private:
  Config config_;
  data::SyntheticImageDataset dataset_;
  data::ReformattedSplits splits_;
  bool data_prepared_ = false;
  data::AugmentationPipeline augment_;
  std::unique_ptr<ResNetMini> model_;
  std::unique_ptr<optim::LrSchedule> schedule_;
  std::int64_t step_ = 0;
  std::int64_t epochs_trained_ = 0;
  /// Epochs the loader had started before this session began (restore_state
  /// sets it to the cumulative epochs_trained_). The loader is rebuilt lazily
  /// after a resume, so its epochs_started() counts this session only;
  /// checkpoints record base + session so the audit stays cumulative across
  /// any number of preempt/restart generations.
  std::int64_t loader_epoch_base_ = 0;
  /// Persistent training loader, created lazily on the first train_epoch so
  /// the rng draw order (one permutation per epoch start, then the per-batch
  /// augmentation draws) is exactly the draw order of the historical
  /// loader-per-epoch code. Declared after splits_/augment_, which it
  /// references, so it is destroyed first (the base's rng_ outlives it too).
  std::unique_ptr<data::ImageLoader> train_loader_;

  /// Sections "progress" (global step, epochs trained) and "loader"
  /// (cumulative epochs started, cursor, limit); drains the loader first
  /// and requires an epoch boundary.
  void save_sections(checkpoint::CheckpointWriter& out) const override;
  void restore_sections(const checkpoint::CheckpointReader& in) override;
};

}  // namespace mlperf::models
