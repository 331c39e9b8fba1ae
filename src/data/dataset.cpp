#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mlperf::data {

using tensor::Rng;
using tensor::Tensor;

SyntheticImageDataset::SyntheticImageDataset(const Config& config) : config_(config) {
  Rng proto_rng(config_.seed);
  prototypes_.reserve(static_cast<std::size_t>(config_.num_classes));
  for (std::int64_t k = 0; k < config_.num_classes; ++k) {
    Tensor proto({config_.channels, config_.height, config_.width});
    // Class-keyed gratings: orientation and frequency depend on the class and
    // a per-class random phase, plus 2 random Gaussian blobs.
    const float angle = static_cast<float>(k) * static_cast<float>(std::numbers::pi) /
                        static_cast<float>(config_.num_classes);
    const float freq = 1.5f + 0.7f * static_cast<float>(k % 4);
    const float phase = proto_rng.uniform(0.0f, 6.28f);
    const float cx[2] = {proto_rng.uniform(0.2f, 0.8f), proto_rng.uniform(0.2f, 0.8f)};
    const float cy[2] = {proto_rng.uniform(0.2f, 0.8f), proto_rng.uniform(0.2f, 0.8f)};
    for (std::int64_t c = 0; c < config_.channels; ++c) {
      const float chan_shift = 0.5f * static_cast<float>(c);
      for (std::int64_t i = 0; i < config_.height; ++i) {
        for (std::int64_t j = 0; j < config_.width; ++j) {
          const float y = static_cast<float>(i) / static_cast<float>(config_.height);
          const float x = static_cast<float>(j) / static_cast<float>(config_.width);
          const float u = x * std::cos(angle) + y * std::sin(angle);
          float v = 0.5f + 0.35f * std::sin(2.0f * static_cast<float>(std::numbers::pi) * freq * u +
                                            phase + chan_shift);
          for (int b = 0; b < 2; ++b) {
            const float dx = x - cx[b], dy = y - cy[b];
            v += 0.25f * std::exp(-(dx * dx + dy * dy) / 0.02f) * (b == (k % 2) ? 1.0f : -1.0f);
          }
          proto.at({c, i, j}) = std::clamp(v, 0.0f, 1.0f);
        }
      }
    }
    prototypes_.push_back(std::move(proto));
  }

  Rng data_rng(config_.seed ^ 0xD1CEBA5Eull);
  train_.reserve(static_cast<std::size_t>(config_.train_size));
  for (std::int64_t i = 0; i < config_.train_size; ++i)
    train_.push_back(make_example(i % config_.num_classes, data_rng));
  val_.reserve(static_cast<std::size_t>(config_.val_size));
  for (std::int64_t i = 0; i < config_.val_size; ++i)
    val_.push_back(make_example(i % config_.num_classes, data_rng));
}

RawImageRecord SyntheticImageDataset::make_example(std::int64_t label, Rng& rng) const {
  const Tensor& proto = prototypes_[static_cast<std::size_t>(label)];
  RawImageRecord rec;
  rec.channels = config_.channels;
  rec.height = config_.height;
  rec.width = config_.width;
  rec.label = label;
  rec.pixels.resize(static_cast<std::size_t>(proto.numel()));
  // Per-example random circular shift + brightness + pixel noise.
  const std::int64_t si = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(config_.height)));
  const std::int64_t sj = static_cast<std::int64_t>(rng.randint(static_cast<std::uint64_t>(config_.width)));
  const float brightness = rng.uniform(-0.1f, 0.1f);
  std::uint8_t* dst = rec.pixels.data();
  for (std::int64_t c = 0; c < config_.channels; ++c)
    for (std::int64_t i = 0; i < config_.height; ++i) {
      const float* row = proto.data() + (c * config_.height + (i + si) % config_.height) *
                                            config_.width;
      for (std::int64_t j = 0; j < config_.width; ++j) {
        float v = row[(j + sj) % config_.width] + brightness +
                  static_cast<float>(rng.normal(0.0, config_.noise));
        v = std::clamp(v, 0.0f, 1.0f);
        *dst++ = static_cast<std::uint8_t>(std::lround(v * 255.0f));
      }
    }
  return rec;
}

ImageExample SyntheticImageDataset::decode(const RawImageRecord& rec) {
  ImageExample ex;
  ex.label = rec.label;
  ex.image = Tensor({rec.channels, rec.height, rec.width});
  for (std::int64_t i = 0; i < ex.image.numel(); ++i)
    ex.image[i] = static_cast<float>(rec.pixels[static_cast<std::size_t>(i)]) / 255.0f;
  return ex;
}

ReformattedImageSet ReformattedImageSet::from_raw(
    const std::vector<const RawImageRecord*>& records) {
  ReformattedImageSet set;
  set.examples_.reserve(records.size());
  for (const auto* r : records) set.examples_.push_back(SyntheticImageDataset::decode(*r));
  return set;
}

ReformattedSplits reformat(const SyntheticImageDataset& ds) {
  std::vector<const RawImageRecord*> train, val;
  train.reserve(static_cast<std::size_t>(ds.train_size()));
  for (std::int64_t i = 0; i < ds.train_size(); ++i) train.push_back(&ds.train_raw(i));
  val.reserve(static_cast<std::size_t>(ds.val_size()));
  for (std::int64_t i = 0; i < ds.val_size(); ++i) val.push_back(&ds.val_raw(i));
  return {ReformattedImageSet::from_raw(train), ReformattedImageSet::from_raw(val)};
}

}  // namespace mlperf::data
