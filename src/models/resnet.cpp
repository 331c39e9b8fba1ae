#include "models/resnet.h"

#include <stdexcept>

#include "checkpoint/format.h"
#include "metrics/metrics.h"

namespace mlperf::models {

using autograd::Variable;

BottleneckBlock::BottleneckBlock(std::int64_t in_ch, std::int64_t mid_ch, std::int64_t out_ch,
                                 std::int64_t stride, tensor::Rng& rng)
    : conv1_(in_ch, mid_ch, 1, 1, 0, rng),
      conv2_(mid_ch, mid_ch, 3, stride, 1, rng),  // v1.5: stride lives on the 3x3
      conv3_(mid_ch, out_ch, 1, 1, 0, rng),
      bn1_(mid_ch), bn2_(mid_ch), bn3_(out_ch) {
  register_module("conv1", conv1_);
  register_module("conv2", conv2_);
  register_module("conv3", conv3_);
  register_module("bn1", bn1_);
  register_module("bn2", bn2_);
  register_module("bn3", bn3_);
  if (in_ch != out_ch || stride != 1) {
    proj_ = std::make_unique<nn::Conv2d>(in_ch, out_ch, 1, stride, 0, rng);
    proj_bn_ = std::make_unique<nn::BatchNorm2d>(out_ch);
    register_module("proj", *proj_);
    register_module("proj_bn", *proj_bn_);
  }
  // else: identity skip — v1.5's "no 1x1 in the first block's skip".
}

Variable BottleneckBlock::forward(const Variable& x) {
  Variable y = autograd::relu(bn1_.forward(conv1_.forward(x)));
  y = autograd::relu(bn2_.forward(conv2_.forward(y)));
  y = bn3_.forward(conv3_.forward(y));  // v1.5: add AFTER batch norm
  Variable skip = proj_ ? proj_bn_->forward(proj_->forward(x)) : x;
  // Fused residual-add+ReLU: one pass, bitwise identical to relu(add(..)).
  return autograd::add_relu(y, skip);
}

ResNetMini::ResNetMini(const Config& config, tensor::Rng& rng)
    : config_(config),
      stem_(config.in_channels, config.stem_channels, 3, 1, 1, rng),
      stem_bn_(config.stem_channels),
      fc_(config.stage_channels.back() * config.expansion, config.num_classes, rng) {
  if (config.stage_channels.size() != config.stage_blocks.size())
    throw std::invalid_argument("ResNetMini: stage config mismatch");
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);
  std::int64_t in_ch = config.stem_channels;
  for (std::size_t s = 0; s < config.stage_channels.size(); ++s) {
    const std::int64_t mid = config.stage_channels[s];
    const std::int64_t out = mid * config.expansion;
    for (std::int64_t b = 0; b < config.stage_blocks[s]; ++b) {
      const std::int64_t stride = (s > 0 && b == 0) ? 2 : 1;
      blocks_.push_back(std::make_unique<BottleneckBlock>(in_ch, mid, out, stride, rng));
      register_module("stage" + std::to_string(s) + "_block" + std::to_string(b),
                      *blocks_.back());
      in_ch = out;
    }
  }
  register_module("fc", fc_);
}

Variable ResNetMini::forward(const Variable& images) {
  Variable y = autograd::relu(stem_bn_.forward(stem_.forward(images)));
  for (auto& block : blocks_) y = block->forward(y);
  return fc_.forward(nn::global_avg_pool(y));
}

ResNetWorkload::ResNetWorkload(Config config)
    : config_(std::move(config)), dataset_(config_.dataset),
      augment_(data::AugmentationPipeline::reference_image_pipeline()) {}

void ResNetWorkload::prepare_data() {
  splits_ = data::reformat(dataset_);
  data_prepared_ = true;
}

void ResNetWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<ResNetMini>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::SgdMomentum>(model_->parameters(), config_.momentum,
                                                    config_.weight_decay,
                                                    config_.momentum_semantics);
  const std::int64_t steps_per_epoch =
      (dataset_.train_size() + config_.batch_size - 1) / config_.batch_size;
  schedule_ = std::make_unique<optim::LinearScalingWarmupLr>(
      config_.base_lr, config_.batch_size, config_.base_batch, config_.warmup_steps,
      config_.lr_decay_gamma, config_.lr_decay_epochs * steps_per_epoch);
  step_ = 0;
  epochs_trained_ = 0;
  loader_epoch_base_ = 0;
  train_loader_.reset();
}

void ResNetWorkload::train_epoch() {
  if (!data_prepared_ || !model_) throw std::logic_error("ResNetWorkload: not prepared");
  model_->set_training(true);
  // Lazy construction + start_epoch() replays the historical per-epoch-local
  // loader's rng draws exactly (the constructor starts the first epoch).
  if (!train_loader_) {
    train_loader_ = std::make_unique<data::ImageLoader>(splits_.train, config_.batch_size,
                                                        &augment_, rng_, /*drop_last=*/false,
                                                        config_.prefetch_loader);
  } else {
    train_loader_->start_epoch();
  }
  data::ImageLoader& loader = *train_loader_;
  while (loader.has_next()) {
    train_step(*optimizer_,
               {.lr = schedule_->lr(step_), .weights = config_.weight_format}, [&] {
                 data::ImageBatch batch = loader.next();
                 return nn::cross_entropy(model_->forward(Variable(batch.images)), batch.labels);
               });
    ++step_;
  }
  ++epochs_trained_;
}

double ResNetWorkload::evaluate() {
  if (!data_prepared_ || !model_) throw std::logic_error("ResNetWorkload: not prepared");
  model_->set_training(false);
  tensor::Rng eval_rng(0);  // no augmentation, order irrelevant
  data::ImageLoader loader(splits_.val, config_.batch_size, nullptr, eval_rng);
  std::vector<std::int64_t> preds, targets;
  while (loader.has_next()) {
    data::ImageBatch batch = loader.next();
    Variable logits = model_->forward(Variable(batch.images));
    for (std::int64_t p : logits.value().argmax_last()) preds.push_back(p);
    targets.insert(targets.end(), batch.labels.begin(), batch.labels.end());
  }
  model_->set_training(true);
  return metrics::top1_accuracy(preds, targets);
}

void ResNetWorkload::save_sections(checkpoint::CheckpointWriter& out) const {
  checkpoint::ByteWriter& progress = out.section("progress");
  progress.put_i64(step_);
  progress.put_i64(epochs_trained_);
  // Loader traversal position. Checkpoints are epoch-boundary-only: between
  // epochs the traversal is a pure function of the (saved) rng, so epoch
  // count + an exhausted cursor is the complete loader state.
  checkpoint::ByteWriter& loader = out.section("loader");
  if (train_loader_) {
    train_loader_->drain();
    if (!train_loader_->epoch_exhausted())
      throw std::logic_error(
          "ResNetWorkload: checkpoint requested mid-epoch (loader not exhausted)");
    // epochs_started() counts this session only (the loader is rebuilt after
    // a resume); add the restored base so the recorded count is cumulative.
    loader.put_i64(loader_epoch_base_ + train_loader_->epochs_started());
    loader.put_i64(train_loader_->cursor());
    loader.put_i64(train_loader_->epoch_limit());
  } else {
    loader.put_i64(loader_epoch_base_);
    loader.put_i64(0);
    loader.put_i64(0);
  }
}

void ResNetWorkload::restore_sections(const checkpoint::CheckpointReader& in) {
  checkpoint::ByteReader progress = in.section("progress");
  step_ = progress.get_i64();
  epochs_trained_ = progress.get_i64();
  checkpoint::ByteReader loader = in.section("loader");
  const std::int64_t epochs_started = loader.get_i64();
  if (epochs_started != epochs_trained_)
    throw checkpoint::CheckpointError(
        "ResNetWorkload: loader epoch count " + std::to_string(epochs_started) +
        " does not match trained epochs " + std::to_string(epochs_trained_));
  // The loader itself is rebuilt lazily on the next train_epoch; constructing
  // it from the restored rng replays the shuffle the uninterrupted run drew.
  // The rebuilt loader counts epochs from zero, so remember the cumulative
  // count it resumes from for the next generation's checkpoint.
  loader_epoch_base_ = epochs_trained_;
  train_loader_.reset();
}

std::map<std::string, double> ResNetWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.base_lr},
          {"warmup_steps", static_cast<double>(config_.warmup_steps)},
          {"momentum", config_.momentum},
          {"lr_decay_steps", static_cast<double>(config_.lr_decay_epochs)}};
}

}  // namespace mlperf::models
