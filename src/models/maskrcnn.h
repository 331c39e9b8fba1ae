#pragma once

#include <memory>

#include "data/detection.h"
#include "metrics/metrics.h"
#include "models/ssd.h"  // AnchorSet, BoxCodec, nms, match_anchors
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

namespace mlperf::models {

/// Differentiable ROIAlign: crop a [C, H, W] feature plane to [C, P, P] per
/// ROI with bilinear sampling (one sample per bin). features: [1, C, H, W];
/// rois in normalized image coordinates. Output: [R, C, P, P].
autograd::Variable roi_align(const autograd::Variable& features,
                             const std::vector<data::Box>& rois, std::int64_t pool);

/// Mini Mask R-CNN (He et al. 2017a): shared backbone, region-proposal
/// network, ROIAlign, and parallel box + mask heads (Table 1 row 3).
class MaskRcnnModel : public nn::Module {
 public:
  struct Config {
    std::int64_t in_channels = 3;
    std::int64_t image_size = 24;
    std::int64_t num_classes = 3;
    std::int64_t feat_channels = 24;
    std::int64_t roi_pool = 4;       ///< ROIAlign output P
    std::int64_t mask_size = 8;      ///< mask head output resolution
    std::vector<float> rpn_scales = {0.3f, 0.55f};
    std::int64_t proposals_per_image = 8;
    float rpn_nms_iou = 0.7f;
  };

  MaskRcnnModel(const Config& config, tensor::Rng& rng);

  /// Backbone: [N, C, H, W] -> [N, F, H/2, W/2].
  autograd::Variable backbone(const autograd::Variable& images);

  struct RpnOutput {
    autograd::Variable objectness;  ///< [A_total] logits (single image)
    autograd::Variable deltas;      ///< [A_total, 4]
  };
  RpnOutput rpn(const autograd::Variable& features);

  /// Decode proposals from RPN output (no gradient; standard practice).
  std::vector<data::Box> decode_proposals(const RpnOutput& out) const;

  struct RoiOutput {
    autograd::Variable class_logits;  ///< [R, C+1]
    autograd::Variable box_deltas;    ///< [R, 4] (class-agnostic)
  };
  RoiOutput box_head(const autograd::Variable& roi_feats);

  /// Mask head: per-ROI per-class mask logits [R, C, M, M].
  autograd::Variable mask_head(const autograd::Variable& roi_feats);

  const Config& config() const { return config_; }
  const AnchorSet& rpn_anchors() const { return anchors_; }
  const BoxCodec& codec() const { return codec_; }

 private:
  Config config_;
  AnchorSet anchors_;
  BoxCodec codec_;
  nn::Conv2d conv1_, conv2_;
  nn::BatchNorm2d bn1_, bn2_;
  nn::Conv2d rpn_conv_, rpn_obj_, rpn_delta_;
  nn::Linear fc1_, fc_cls_, fc_box_;
  nn::Conv2d mask_conv1_, mask_conv2_;
};

/// The heavy-weight detection + instance segmentation workload (Table 1 row 3).
class MaskRcnnWorkload : public Workload {
 public:
  struct Config {
    /// Smaller splits than SSD: two-stage training is per-image and heavier.
    data::SyntheticDetectionDataset::Config dataset{.train_size = 96, .val_size = 48};
    MaskRcnnModel::Config model;
    float lr = 0.01f;
    float momentum = 0.9f;
    float roi_match_iou = 0.5f;
    float nms_iou = 0.45f;
    float score_threshold = 0.05f;
  };

  explicit MaskRcnnWorkload(Config config);

  std::string name() const override { return "object_detection_heavy"; }
  void prepare_data() override;
  void build_model(std::uint64_t seed) override;
  void train_epoch() override;
  /// Returns min(box mAP, mask mAP): both Table-1 thresholds must hold.
  double evaluate() override;
  std::map<std::string, double> hyperparameters() const override;
  std::int64_t global_batch_size() const override { return 1; }  // per-image training
  std::string model_signature() const override { return "Mask R-CNN"; }
  std::string optimizer_name() const override { return "sgd_momentum"; }
  std::string augmentation_signature() const override { return "horizontal_flip"; }

  struct EvalDetail {
    double box_map = 0.0;
    double mask_map = 0.0;
  };
  EvalDetail evaluate_detail();

 private:
  /// One image's summed RPN, box-head and mask-head training loss.
  autograd::Variable image_loss(const data::DetectionExample& ex);
  std::vector<metrics::Detection> detect(const tensor::Tensor& image, std::int64_t image_id);

  Config config_;
  std::unique_ptr<data::SyntheticDetectionDataset> dataset_;
  std::unique_ptr<MaskRcnnModel> model_;
  std::unique_ptr<optim::SgdMomentum> optimizer_;
  tensor::Rng rng_;
};

}  // namespace mlperf::models
