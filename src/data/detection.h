#pragma once

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace mlperf::data {

/// Axis-aligned box in normalized [0,1] image coordinates.
struct Box {
  float x1 = 0, y1 = 0, x2 = 0, y2 = 0;

  float area() const { return std::max(0.0f, x2 - x1) * std::max(0.0f, y2 - y1); }
  float cx() const { return 0.5f * (x1 + x2); }
  float cy() const { return 0.5f * (y1 + y2); }
  float w() const { return x2 - x1; }
  float h() const { return y2 - y1; }
};

/// Intersection-over-union of two boxes.
float iou(const Box& a, const Box& b);

/// One ground-truth object: box, class, and a binary mask over the image grid
/// (for the Mask R-CNN workload's segmentation branch).
struct GtObject {
  Box box;
  std::int64_t cls = 0;              // in [0, num_classes)
  tensor::Tensor mask;               // [H, W] in {0,1}
};

struct DetectionExample {
  tensor::Tensor image;              // [C, H, W]
  std::vector<GtObject> objects;
};

/// Mirrors `ex` left-right in place: the image, every box and every mask.
void horizontal_flip(DetectionExample& ex);

/// Synthetic stand-in for COCO (see DESIGN.md): images contain 1..max_objects
/// solid geometric shapes; shape kind = class (0 square, 1 disc, 2 diamond).
/// Backgrounds have textured noise so detection is non-trivial. Boxes and
/// pixel-accurate masks are derived from the rendered geometry, so the COCO-
/// style AP evaluation pipeline is exercised for real.
class SyntheticDetectionDataset {
 public:
  struct Config {
    std::int64_t height = 24;
    std::int64_t width = 24;
    std::int64_t channels = 3;
    std::int64_t num_classes = 3;
    std::int64_t max_objects = 3;
    std::int64_t train_size = 128;
    std::int64_t val_size = 64;
    float noise = 0.15f;
    std::uint64_t seed = 2020;
  };

  explicit SyntheticDetectionDataset(const Config& config);

  const Config& config() const { return config_; }
  std::int64_t train_size() const { return static_cast<std::int64_t>(train_.size()); }
  std::int64_t val_size() const { return static_cast<std::int64_t>(val_.size()); }
  const DetectionExample& train(std::int64_t i) const { return train_.at(static_cast<std::size_t>(i)); }
  const DetectionExample& val(std::int64_t i) const { return val_.at(static_cast<std::size_t>(i)); }

 private:
  DetectionExample make_example(tensor::Rng& rng) const;

  Config config_;
  std::vector<DetectionExample> train_;
  std::vector<DetectionExample> val_;
};

}  // namespace mlperf::data
