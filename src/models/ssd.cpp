#include "models/ssd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using data::Box;
using tensor::Tensor;

AnchorSet AnchorSet::make_grid(std::int64_t grid_h, std::int64_t grid_w,
                               const std::vector<float>& scales) {
  AnchorSet set;
  for (std::int64_t i = 0; i < grid_h; ++i)
    for (std::int64_t j = 0; j < grid_w; ++j)
      for (float s : scales) {
        const float cy = (static_cast<float>(i) + 0.5f) / static_cast<float>(grid_h);
        const float cx = (static_cast<float>(j) + 0.5f) / static_cast<float>(grid_w);
        set.anchors.push_back(
            Box{cx - s / 2.0f, cy - s / 2.0f, cx + s / 2.0f, cy + s / 2.0f});
      }
  return set;
}

void AnchorSet::append(const AnchorSet& other) {
  anchors.insert(anchors.end(), other.anchors.begin(), other.anchors.end());
}

std::array<float, 4> BoxCodec::encode(const Box& gt, const Box& anchor) const {
  return {(gt.cx() - anchor.cx()) / (anchor.w() * center_variance),
          (gt.cy() - anchor.cy()) / (anchor.h() * center_variance),
          std::log(std::max(gt.w(), 1e-4f) / anchor.w()) / size_variance,
          std::log(std::max(gt.h(), 1e-4f) / anchor.h()) / size_variance};
}

Box BoxCodec::decode(const float* offsets, const Box& anchor) const {
  const float cx = offsets[0] * center_variance * anchor.w() + anchor.cx();
  const float cy = offsets[1] * center_variance * anchor.h() + anchor.cy();
  const float w = std::exp(std::clamp(offsets[2] * size_variance, -4.0f, 4.0f)) * anchor.w();
  const float h = std::exp(std::clamp(offsets[3] * size_variance, -4.0f, 4.0f)) * anchor.h();
  return Box{cx - w / 2.0f, cy - h / 2.0f, cx + w / 2.0f, cy + h / 2.0f};
}

MatchResult match_anchors(const AnchorSet& anchors, const std::vector<data::GtObject>& gts,
                          float iou_threshold) {
  MatchResult result;
  result.gt_index.assign(static_cast<std::size_t>(anchors.size()), -1);
  if (gts.empty()) return result;
  // Pass 1: every anchor above threshold matches its best gt.
  for (std::int64_t a = 0; a < anchors.size(); ++a) {
    float best = 0.0f;
    std::int64_t best_g = -1;
    for (std::size_t g = 0; g < gts.size(); ++g) {
      const float overlap = data::iou(anchors.anchors[static_cast<std::size_t>(a)], gts[g].box);
      if (overlap > best) {
        best = overlap;
        best_g = static_cast<std::int64_t>(g);
      }
    }
    if (best >= iou_threshold) result.gt_index[static_cast<std::size_t>(a)] = best_g;
  }
  // Pass 2: every gt claims its single best anchor (guarantees a positive).
  for (std::size_t g = 0; g < gts.size(); ++g) {
    float best = -1.0f;
    std::int64_t best_a = -1;
    for (std::int64_t a = 0; a < anchors.size(); ++a) {
      const float overlap = data::iou(anchors.anchors[static_cast<std::size_t>(a)], gts[g].box);
      if (overlap > best) {
        best = overlap;
        best_a = a;
      }
    }
    if (best_a >= 0) result.gt_index[static_cast<std::size_t>(best_a)] = static_cast<std::int64_t>(g);
  }
  return result;
}

std::vector<std::size_t> nms(const std::vector<Box>& boxes, const std::vector<float>& scores,
                             float iou_threshold) {
  if (boxes.size() != scores.size()) throw std::invalid_argument("nms: size mismatch");
  std::vector<std::size_t> order(boxes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  std::vector<std::size_t> keep;
  std::vector<bool> suppressed(boxes.size(), false);
  for (std::size_t i : order) {
    if (suppressed[i]) continue;
    keep.push_back(i);
    for (std::size_t j : order) {
      if (j == i || suppressed[j]) continue;
      if (data::iou(boxes[i], boxes[j]) > iou_threshold) suppressed[j] = true;
    }
  }
  return keep;
}

SsdModel::SsdModel(const Config& config, tensor::Rng& rng)
    : config_(config),
      f1_(config.image_size / 2), f2_(config.image_size / 4),
      stem_(config.in_channels, config.c1, 3, 1, 1, rng),
      down1_(config.c1, config.c1, 3, 2, 1, rng),
      down2_(config.c1, config.c2, 3, 2, 1, rng),
      bn_stem_(config.c1), bn1_(config.c1), bn2_(config.c2),
      head1_cls_(config.c1,
                 static_cast<std::int64_t>(config.scales1.size()) * (config.num_classes + 1), 3,
                 1, 1, rng, /*bias=*/true),
      head1_box_(config.c1, static_cast<std::int64_t>(config.scales1.size()) * 4, 3, 1, 1, rng,
                 /*bias=*/true),
      head2_cls_(config.c2,
                 static_cast<std::int64_t>(config.scales2.size()) * (config.num_classes + 1), 3,
                 1, 1, rng, /*bias=*/true),
      head2_box_(config.c2, static_cast<std::int64_t>(config.scales2.size()) * 4, 3, 1, 1, rng,
                 /*bias=*/true) {
  register_module("stem", stem_);
  register_module("down1", down1_);
  register_module("down2", down2_);
  register_module("bn_stem", bn_stem_);
  register_module("bn1", bn1_);
  register_module("bn2", bn2_);
  register_module("head1_cls", head1_cls_);
  register_module("head1_box", head1_box_);
  register_module("head2_cls", head2_cls_);
  register_module("head2_box", head2_box_);
  anchors_ = AnchorSet::make_grid(f1_, f1_, config.scales1);
  anchors_.append(AnchorSet::make_grid(f2_, f2_, config.scales2));
}

namespace {
/// [N, A*K, H, W] -> [N*H*W*A, K]: put per-anchor predictions in the same
/// order as AnchorSet::make_grid enumerates anchors (row, col, scale).
Variable flatten_head(const Variable& head, std::int64_t num_anchors, std::int64_t k) {
  const std::int64_t n = head.shape()[0], h = head.shape()[2], w = head.shape()[3];
  Variable x = autograd::reshape(head, {n, num_anchors, k, h, w});
  x = autograd::permute(x, {0, 3, 4, 1, 2});  // [N, H, W, A, K]
  return autograd::reshape(x, {n * h * w * num_anchors, k});
}
}  // namespace

SsdModel::Output SsdModel::forward(const Variable& images) {
  Variable x = autograd::relu(bn_stem_.forward(stem_.forward(images)));
  Variable feat1 = autograd::relu(bn1_.forward(down1_.forward(x)));   // stride 2
  Variable feat2 = autograd::relu(bn2_.forward(down2_.forward(feat1)));  // stride 4

  const std::int64_t a1 = static_cast<std::int64_t>(config_.scales1.size());
  const std::int64_t a2 = static_cast<std::int64_t>(config_.scales2.size());
  const std::int64_t ncls = config_.num_classes + 1;
  Variable cls1 = flatten_head(head1_cls_.forward(feat1), a1, ncls);
  Variable box1 = flatten_head(head1_box_.forward(feat1), a1, 4);
  Variable cls2 = flatten_head(head2_cls_.forward(feat2), a2, ncls);
  Variable box2 = flatten_head(head2_box_.forward(feat2), a2, 4);

  // Per-image concat order must match anchors_ (map1 then map2). With batch
  // N we interleave per image: reshape to [N, A_i, K], cat along anchors.
  const std::int64_t n = images.shape()[0];
  const std::int64_t na1 = f1_ * f1_ * a1, na2 = f2_ * f2_ * a2;
  Variable c1 = autograd::reshape(cls1, {n, na1, ncls});
  Variable c2 = autograd::reshape(cls2, {n, na2, ncls});
  Variable b1 = autograd::reshape(box1, {n, na1, 4});
  Variable b2 = autograd::reshape(box2, {n, na2, 4});
  // cat along dim1 via permute->cat0->permute.
  auto cat1 = [](const Variable& p, const Variable& q) {
    Variable pp = autograd::permute(p, {1, 0, 2});
    Variable qq = autograd::permute(q, {1, 0, 2});
    return autograd::permute(autograd::cat0({pp, qq}), {1, 0, 2});
  };
  Variable cls = cat1(c1, c2);  // [N, A, ncls]
  Variable box = cat1(b1, b2);  // [N, A, 4]
  return {autograd::reshape(cls, {n * (na1 + na2), ncls}),
          autograd::reshape(box, {n * (na1 + na2), 4})};
}

SsdWorkload::SsdWorkload(Config config) : config_(std::move(config)) {
  config_.model.in_channels = config_.dataset.channels;
  config_.model.image_size = config_.dataset.height;
  config_.model.num_classes = config_.dataset.num_classes;
}

void SsdWorkload::prepare_data() {
  dataset_ = std::make_unique<data::SyntheticDetectionDataset>(config_.dataset);
}

void SsdWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<SsdModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::SgdMomentum>(model_->parameters(), config_.momentum);
}

void SsdWorkload::train_epoch() {
  if (!dataset_ || !model_) throw std::logic_error("SsdWorkload: not prepared");
  model_->set_training(true);
  const AnchorSet& anchors = model_->anchors();
  const std::int64_t num_anchors = anchors.size();
  std::vector<std::size_t> order = rng_.permutation(static_cast<std::size_t>(dataset_->train_size()));

  for (std::size_t off = 0; off < order.size(); off += static_cast<std::size_t>(config_.batch_size)) {
    const std::size_t end =
        std::min(off + static_cast<std::size_t>(config_.batch_size), order.size());
    const std::int64_t n = static_cast<std::int64_t>(end - off);

    // Assemble image batch (with reference flip augmentation) and targets.
    const auto& first = dataset_->train(static_cast<std::int64_t>(order[off]));
    Tensor images({n, first.image.shape()[0], first.image.shape()[1], first.image.shape()[2]});
    std::vector<std::int64_t> cls_targets(static_cast<std::size_t>(n * num_anchors), 0);
    Tensor box_targets({n * num_anchors, 4});
    std::vector<float> pos_weight(static_cast<std::size_t>(n * num_anchors), 0.0f);

    for (std::int64_t b = 0; b < n; ++b) {
      data::DetectionExample ex = dataset_->train(static_cast<std::int64_t>(order[off + static_cast<std::size_t>(b)]));
      if (rng_.uniform() < 0.5) data::horizontal_flip(ex);  // reference augmentation
      std::copy(ex.image.vec().begin(), ex.image.vec().end(),
                images.vec().begin() + b * ex.image.numel());
      const MatchResult match = match_anchors(anchors, ex.objects, config_.match_iou);
      for (std::int64_t a = 0; a < num_anchors; ++a) {
        const std::int64_t g = match.gt_index[static_cast<std::size_t>(a)];
        if (g < 0) continue;
        const std::int64_t row = b * num_anchors + a;
        cls_targets[static_cast<std::size_t>(row)] = ex.objects[static_cast<std::size_t>(g)].cls + 1;
        pos_weight[static_cast<std::size_t>(row)] = 1.0f;
        const auto enc = codec_.encode(ex.objects[static_cast<std::size_t>(g)].box,
                                       anchors.anchors[static_cast<std::size_t>(a)]);
        for (int k = 0; k < 4; ++k) box_targets[row * 4 + k] = enc[static_cast<std::size_t>(k)];
      }
    }

    train_step(*optimizer_, {.lr = config_.lr}, [&] {
      SsdModel::Output out = model_->forward(Variable(images));
      // Hard-negative mining (3:1): rank negatives by background log-loss.
      std::vector<float> cls_weight = pos_weight;
      const Tensor logp = out.class_logits.value().log_softmax_last();
      const std::int64_t ncls = logp.shape()[1];
      std::int64_t num_pos = 0;
      for (float w : pos_weight)
        if (w > 0.0f) ++num_pos;
      std::vector<std::pair<float, std::int64_t>> neg_losses;
      for (std::int64_t row = 0; row < n * num_anchors; ++row) {
        if (pos_weight[static_cast<std::size_t>(row)] > 0.0f) continue;
        neg_losses.emplace_back(-logp[row * ncls + 0], row);  // background NLL
      }
      std::sort(neg_losses.begin(), neg_losses.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const std::int64_t num_neg = std::min<std::int64_t>(
          static_cast<std::int64_t>(neg_losses.size()),
          std::max<std::int64_t>(static_cast<std::int64_t>(config_.neg_pos_ratio *
                                                           static_cast<float>(num_pos)),
                                 4));
      for (std::int64_t k = 0; k < num_neg; ++k)
        cls_weight[static_cast<std::size_t>(neg_losses[static_cast<std::size_t>(k)].second)] = 1.0f;

      Variable cls_loss = nn::weighted_cross_entropy(out.class_logits, cls_targets, cls_weight);
      Variable box_loss = nn::smooth_l1(out.box_offsets, box_targets, pos_weight);
      return autograd::add(cls_loss, box_loss);
    });
  }
}

std::vector<metrics::Detection> SsdWorkload::detect(const Tensor& image, std::int64_t image_id) {
  model_->set_training(false);
  SsdModel::Output out = model_->forward(
      Variable(image.reshape({1, image.shape()[0], image.shape()[1], image.shape()[2]})));
  model_->set_training(true);
  const AnchorSet& anchors = model_->anchors();
  const Tensor probs = out.class_logits.value().softmax_last();
  const std::int64_t ncls = probs.shape()[1];

  std::vector<metrics::Detection> detections;
  for (std::int64_t cls = 1; cls < ncls; ++cls) {
    std::vector<data::Box> boxes;
    std::vector<float> scores;
    for (std::int64_t a = 0; a < anchors.size(); ++a) {
      const float score = probs[a * ncls + cls];
      if (score < config_.score_threshold) continue;
      boxes.push_back(codec_.decode(out.box_offsets.value().data() + a * 4,
                                    anchors.anchors[static_cast<std::size_t>(a)]));
      scores.push_back(score);
    }
    for (std::size_t k : nms(boxes, scores, config_.nms_iou))
      detections.push_back({image_id, cls - 1, scores[k], boxes[k], {}});
  }
  return detections;
}

double SsdWorkload::evaluate() {
  if (!dataset_ || !model_) throw std::logic_error("SsdWorkload: not prepared");
  metrics::GroundTruth gt;
  std::vector<metrics::Detection> detections;
  gt.per_image.resize(static_cast<std::size_t>(dataset_->val_size()));
  for (std::int64_t i = 0; i < dataset_->val_size(); ++i) {
    const auto& ex = dataset_->val(i);
    gt.per_image[static_cast<std::size_t>(i)] = ex.objects;
    auto dets = detect(ex.image, i);
    detections.insert(detections.end(), dets.begin(), dets.end());
  }
  return metrics::coco_map(detections, gt, config_.model.num_classes);
}

std::map<std::string, double> SsdWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"momentum", config_.momentum}};
}

}  // namespace mlperf::models
