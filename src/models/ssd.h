#pragma once

#include <memory>

#include "data/detection.h"
#include "metrics/metrics.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// Anchor geometry shared by SSD and the Mask R-CNN RPN.
struct AnchorSet {
  std::vector<data::Box> anchors;  ///< normalized coordinates

  /// Grid anchors: one per cell per scale, centered, square.
  static AnchorSet make_grid(std::int64_t grid_h, std::int64_t grid_w,
                             const std::vector<float>& scales);
  void append(const AnchorSet& other);
  std::int64_t size() const { return static_cast<std::int64_t>(anchors.size()); }
};

/// SSD box encoding (offsets relative to an anchor, with the standard
/// variance scaling 0.1 / 0.2).
struct BoxCodec {
  float center_variance = 0.1f;
  float size_variance = 0.2f;

  std::array<float, 4> encode(const data::Box& gt, const data::Box& anchor) const;
  data::Box decode(const float* offsets, const data::Box& anchor) const;
};

/// Result of matching anchors to ground truth for one image.
struct MatchResult {
  /// Per anchor: matched gt index, or -1 (background).
  std::vector<std::int64_t> gt_index;
};

/// SSD-style matching: each gt gets its best anchor; every anchor with
/// IoU >= threshold also matches that gt.
MatchResult match_anchors(const AnchorSet& anchors, const std::vector<data::GtObject>& gts,
                          float iou_threshold);

/// Greedy non-maximum suppression; returns indices of kept detections.
std::vector<std::size_t> nms(const std::vector<data::Box>& boxes,
                             const std::vector<float>& scores, float iou_threshold);

/// Mini SSD detector: a small residual backbone producing two feature maps,
/// each with a conv head predicting per-anchor class logits (+background)
/// and box offsets (Liu et al. 2016, Table 1 row 2).
class SsdModel : public nn::Module {
 public:
  struct Config {
    std::int64_t in_channels = 3;
    std::int64_t image_size = 24;
    std::int64_t num_classes = 3;       ///< foreground classes
    std::int64_t c1 = 12, c2 = 24;      ///< feature channels per map
    std::vector<float> scales1 = {0.25f};
    std::vector<float> scales2 = {0.5f, 0.75f};
  };

  SsdModel(const Config& config, tensor::Rng& rng);

  struct Output {
    autograd::Variable class_logits;  ///< [N * A_total, C+1]
    autograd::Variable box_offsets;   ///< [N * A_total, 4]
  };
  Output forward(const autograd::Variable& images);

  const AnchorSet& anchors() const { return anchors_; }
  std::int64_t num_classes() const { return config_.num_classes; }

 private:
  Config config_;
  AnchorSet anchors_;
  std::int64_t f1_, f2_;  ///< feature map sizes
  nn::Conv2d stem_, down1_, down2_;
  nn::BatchNorm2d bn_stem_, bn1_, bn2_;
  nn::Conv2d head1_cls_, head1_box_, head2_cls_, head2_box_;
};

/// The light-weight object-detection reference workload (Table 1 row 2).
class SsdWorkload : public Workload {
 public:
  struct Config {
    data::SyntheticDetectionDataset::Config dataset;
    SsdModel::Config model;
    std::int64_t batch_size = 8;
    float lr = 0.01f;
    float momentum = 0.9f;
    float match_iou = 0.5f;
    float neg_pos_ratio = 3.0f;   ///< hard-negative mining ratio
    float nms_iou = 0.45f;
    float score_threshold = 0.05f;
  };

  explicit SsdWorkload(Config config);

  std::string name() const override { return "object_detection_light"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return config_.batch_size; }
  std::string model_signature() const override { return "SSD-ResNet-34"; }
  std::string optimizer_name() const override { return "sgd_momentum"; }
  SsdModel* model() const override { return model_.get(); }
  std::string augmentation_signature() const override { return "horizontal_flip"; }

  /// Run inference on one image; exposed for examples and tests.
  std::vector<metrics::Detection> detect(const tensor::Tensor& image, std::int64_t image_id);

 private:
  Config config_;
  std::unique_ptr<data::SyntheticDetectionDataset> dataset_;
  std::unique_ptr<SsdModel> model_;
  BoxCodec codec_;
};

}  // namespace mlperf::models
