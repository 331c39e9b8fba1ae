#include "models/maskrcnn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using data::Box;
using tensor::Tensor;

namespace {
/// `b` with each coordinate clamped to the image's [0, 1] extent.
Box clamp_unit(Box b) {
  b.x1 = std::clamp(b.x1, 0.0f, 1.0f);
  b.y1 = std::clamp(b.y1, 0.0f, 1.0f);
  b.x2 = std::clamp(b.x2, 0.0f, 1.0f);
  b.y2 = std::clamp(b.y2, 0.0f, 1.0f);
  return b;
}
}  // namespace

Variable roi_align(const Variable& features, const std::vector<Box>& rois, std::int64_t pool) {
  const Tensor& f = features.value();
  if (f.ndim() != 4 || f.shape()[0] != 1)
    throw std::invalid_argument("roi_align: features must be [1, C, H, W]");
  const std::int64_t c = f.shape()[1], h = f.shape()[2], w = f.shape()[3];
  const std::int64_t r = static_cast<std::int64_t>(rois.size());
  Tensor out({r, c, pool, pool});
  // Record bilinear sample corners/weights for the backward scatter.
  struct Sample {
    std::int64_t i0, j0;
    float wi, wj;  // weight of the (i0, j0) corner along each axis
  };
  auto samples = std::make_shared<std::vector<Sample>>(
      static_cast<std::size_t>(r * pool * pool));
  for (std::int64_t rr = 0; rr < r; ++rr) {
    const Box& roi = rois[static_cast<std::size_t>(rr)];
    for (std::int64_t pi = 0; pi < pool; ++pi)
      for (std::int64_t pj = 0; pj < pool; ++pj) {
        const float y = roi.y1 + (static_cast<float>(pi) + 0.5f) / static_cast<float>(pool) *
                                     std::max(roi.h(), 1e-4f);
        const float x = roi.x1 + (static_cast<float>(pj) + 0.5f) / static_cast<float>(pool) *
                                     std::max(roi.w(), 1e-4f);
        // Normalized -> feature coordinates (align_corners=false convention).
        float fy = y * static_cast<float>(h) - 0.5f;
        float fx = x * static_cast<float>(w) - 0.5f;
        fy = std::clamp(fy, 0.0f, static_cast<float>(h - 1));
        fx = std::clamp(fx, 0.0f, static_cast<float>(w - 1));
        const std::int64_t i0 = std::min<std::int64_t>(static_cast<std::int64_t>(fy), h - 2 >= 0 ? h - 2 : 0);
        const std::int64_t j0 = std::min<std::int64_t>(static_cast<std::int64_t>(fx), w - 2 >= 0 ? w - 2 : 0);
        const float wi = 1.0f - (fy - static_cast<float>(i0));
        const float wj = 1.0f - (fx - static_cast<float>(j0));
        (*samples)[static_cast<std::size_t>((rr * pool + pi) * pool + pj)] =
            Sample{i0, j0, wi, wj};
        for (std::int64_t ch = 0; ch < c; ++ch) {
          const float* plane = f.data() + (ch * h) * w;
          const std::int64_t i1 = std::min(i0 + 1, h - 1), j1 = std::min(j0 + 1, w - 1);
          const float v = wi * wj * plane[i0 * w + j0] + wi * (1 - wj) * plane[i0 * w + j1] +
                          (1 - wi) * wj * plane[i1 * w + j0] +
                          (1 - wi) * (1 - wj) * plane[i1 * w + j1];
          out[((rr * c + ch) * pool + pi) * pool + pj] = v;
        }
      }
  }
  return Variable::from_op(std::move(out), {features},
                           [samples, r, c, h, w, pool](const autograd::Node& n, const Tensor& g) {
                             Tensor df(n.parents[0]->value.shape());
                             for (std::int64_t rr = 0; rr < r; ++rr)
                               for (std::int64_t pi = 0; pi < pool; ++pi)
                                 for (std::int64_t pj = 0; pj < pool; ++pj) {
                                   const auto& s = (*samples)[static_cast<std::size_t>(
                                       (rr * pool + pi) * pool + pj)];
                                   const std::int64_t i1 = std::min(s.i0 + 1, h - 1);
                                   const std::int64_t j1 = std::min(s.j0 + 1, w - 1);
                                   for (std::int64_t ch = 0; ch < c; ++ch) {
                                     const float gv =
                                         g[((rr * c + ch) * pool + pi) * pool + pj];
                                     float* plane = df.data() + (ch * h) * w;
                                     plane[s.i0 * w + s.j0] += gv * s.wi * s.wj;
                                     plane[s.i0 * w + j1] += gv * s.wi * (1 - s.wj);
                                     plane[i1 * w + s.j0] += gv * (1 - s.wi) * s.wj;
                                     plane[i1 * w + j1] += gv * (1 - s.wi) * (1 - s.wj);
                                   }
                                 }
                             n.parents[0]->accumulate_grad(std::move(df));
                           });
}

MaskRcnnModel::MaskRcnnModel(const Config& config, tensor::Rng& rng)
    : config_(config),
      conv1_(config.in_channels, config.feat_channels / 2, 3, 1, 1, rng),
      conv2_(config.feat_channels / 2, config.feat_channels, 3, 2, 1, rng),
      bn1_(config.feat_channels / 2), bn2_(config.feat_channels),
      rpn_conv_(config.feat_channels, config.feat_channels, 3, 1, 1, rng),
      rpn_obj_(config.feat_channels, static_cast<std::int64_t>(config.rpn_scales.size()), 1, 1,
               0, rng, /*bias=*/true),
      rpn_delta_(config.feat_channels, static_cast<std::int64_t>(config.rpn_scales.size()) * 4,
                 1, 1, 0, rng, /*bias=*/true),
      fc1_(config.feat_channels * config.roi_pool * config.roi_pool, 64, rng),
      fc_cls_(64, config.num_classes + 1, rng),
      fc_box_(64, 4, rng),
      mask_conv1_(config.feat_channels, 16, 3, 1, 1, rng, /*bias=*/true),
      mask_conv2_(16, config.num_classes, 1, 1, 0, rng, /*bias=*/true) {
  register_module("conv1", conv1_);
  register_module("conv2", conv2_);
  register_module("bn1", bn1_);
  register_module("bn2", bn2_);
  register_module("rpn_conv", rpn_conv_);
  register_module("rpn_obj", rpn_obj_);
  register_module("rpn_delta", rpn_delta_);
  register_module("fc1", fc1_);
  register_module("fc_cls", fc_cls_);
  register_module("fc_box", fc_box_);
  register_module("mask_conv1", mask_conv1_);
  register_module("mask_conv2", mask_conv2_);
  const std::int64_t grid = config.image_size / 2;
  anchors_ = AnchorSet::make_grid(grid, grid, config.rpn_scales);
}

Variable MaskRcnnModel::backbone(const Variable& images) {
  Variable x = autograd::relu(bn1_.forward(conv1_.forward(images)));
  return autograd::relu(bn2_.forward(conv2_.forward(x)));
}

MaskRcnnModel::RpnOutput MaskRcnnModel::rpn(const Variable& features) {
  Variable x = autograd::relu(rpn_conv_.forward(features));
  const std::int64_t a = static_cast<std::int64_t>(config_.rpn_scales.size());
  const std::int64_t grid = config_.image_size / 2;
  // [1, A, H, W] -> [H*W*A] matching AnchorSet order (row, col, scale).
  Variable obj = autograd::reshape(
      autograd::permute(rpn_obj_.forward(x), {0, 2, 3, 1}), {grid * grid * a});
  Variable delta4 = autograd::reshape(rpn_delta_.forward(x), {1, a, 4, grid, grid});
  Variable delta = autograd::reshape(autograd::permute(delta4, {0, 3, 4, 1, 2}),
                                     {grid * grid * a, 4});
  return {obj, delta};
}

std::vector<Box> MaskRcnnModel::decode_proposals(const RpnOutput& out) const {
  const Tensor& obj = out.objectness.value();
  std::vector<std::pair<float, std::int64_t>> ranked;
  ranked.reserve(static_cast<std::size_t>(obj.numel()));
  for (std::int64_t i = 0; i < obj.numel(); ++i) ranked.emplace_back(obj[i], i);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  // Decode the top pool, NMS, keep proposals_per_image.
  const std::int64_t top = std::min<std::int64_t>(obj.numel(), 4 * config_.proposals_per_image);
  std::vector<Box> boxes;
  std::vector<float> scores;
  for (std::int64_t k = 0; k < top; ++k) {
    const std::int64_t a = ranked[static_cast<std::size_t>(k)].second;
    const Box b = clamp_unit(codec_.decode(out.deltas.value().data() + a * 4,
                                           anchors_.anchors[static_cast<std::size_t>(a)]));
    if (b.w() <= 0.01f || b.h() <= 0.01f) continue;
    boxes.push_back(b);
    scores.push_back(ranked[static_cast<std::size_t>(k)].first);
  }
  std::vector<Box> proposals;
  for (std::size_t k : nms(boxes, scores, config_.rpn_nms_iou)) {
    proposals.push_back(boxes[k]);
    if (static_cast<std::int64_t>(proposals.size()) >= config_.proposals_per_image) break;
  }
  return proposals;
}

MaskRcnnModel::RoiOutput MaskRcnnModel::box_head(const Variable& roi_feats) {
  const std::int64_t r = roi_feats.shape()[0];
  Variable flat = autograd::reshape(
      roi_feats, {r, config_.feat_channels * config_.roi_pool * config_.roi_pool});
  Variable h = fc1_.forward_relu(flat);  // fused bias+ReLU
  return {fc_cls_.forward(h), fc_box_.forward(h)};
}

Variable MaskRcnnModel::mask_head(const Variable& roi_feats) {
  Variable x = autograd::relu(mask_conv1_.forward(roi_feats));
  x = nn::upsample2x(x);  // P -> 2P (= mask_size with P=4, M=8)
  return mask_conv2_.forward(x);
}

// ---- workload ---------------------------------------------------------------

MaskRcnnWorkload::MaskRcnnWorkload(Config config) : config_(std::move(config)) {
  config_.model.in_channels = config_.dataset.channels;
  config_.model.image_size = config_.dataset.height;
  config_.model.num_classes = config_.dataset.num_classes;
}

void MaskRcnnWorkload::prepare_data() {
  dataset_ = std::make_unique<data::SyntheticDetectionDataset>(config_.dataset);
}

void MaskRcnnWorkload::build_model(std::uint64_t seed) {
  tensor::Rng init_rng = reseed(seed);
  model_ = std::make_unique<MaskRcnnModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::SgdMomentum>(model_->parameters(), config_.momentum);
}

namespace {
/// Resample a full-image binary mask to MxM inside a ROI (nearest).
Tensor crop_mask(const Tensor& mask, const Box& roi, std::int64_t m) {
  const std::int64_t h = mask.shape()[0], w = mask.shape()[1];
  Tensor out({m, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < m; ++j) {
      const float y = roi.y1 + (static_cast<float>(i) + 0.5f) / static_cast<float>(m) * roi.h();
      const float x = roi.x1 + (static_cast<float>(j) + 0.5f) / static_cast<float>(m) * roi.w();
      const std::int64_t ii =
          std::clamp<std::int64_t>(static_cast<std::int64_t>(y * static_cast<float>(h)), 0, h - 1);
      const std::int64_t jj =
          std::clamp<std::int64_t>(static_cast<std::int64_t>(x * static_cast<float>(w)), 0, w - 1);
      out.at({i, j}) = mask.at({ii, jj});
    }
  return out;
}

/// Paste an MxM soft mask back into an HxW image grid inside the ROI.
Tensor paste_mask(const Tensor& soft, const Box& roi, std::int64_t h, std::int64_t w) {
  const std::int64_t m = soft.shape()[0];
  Tensor out({h, w});
  for (std::int64_t i = 0; i < h; ++i)
    for (std::int64_t j = 0; j < w; ++j) {
      const float y = (static_cast<float>(i) + 0.5f) / static_cast<float>(h);
      const float x = (static_cast<float>(j) + 0.5f) / static_cast<float>(w);
      if (y < roi.y1 || y > roi.y2 || x < roi.x1 || x > roi.x2) continue;
      const std::int64_t mi = std::clamp<std::int64_t>(
          static_cast<std::int64_t>((y - roi.y1) / std::max(roi.h(), 1e-4f) *
                                    static_cast<float>(m)),
          0, m - 1);
      const std::int64_t mj = std::clamp<std::int64_t>(
          static_cast<std::int64_t>((x - roi.x1) / std::max(roi.w(), 1e-4f) *
                                    static_cast<float>(m)),
          0, m - 1);
      out.at({i, j}) = soft.at({mi, mj});
    }
  return out;
}
}  // namespace

Variable MaskRcnnWorkload::image_loss(const data::DetectionExample& ex) {
  Variable feats = model_->backbone(Variable(
      ex.image.reshape({1, ex.image.shape()[0], ex.image.shape()[1], ex.image.shape()[2]})));

  // ---- RPN loss: balanced-sampled objectness BCE + positive box regression.
  MaskRcnnModel::RpnOutput rpn_out = model_->rpn(feats);
  const AnchorSet& anchors = model_->rpn_anchors();
  const MatchResult match = match_anchors(anchors, ex.objects, 0.4f);
  std::vector<float> obj_targets;
  std::vector<std::int64_t> sampled;  // anchor indices used for objectness loss
  std::vector<std::int64_t> positives;
  for (std::int64_t a = 0; a < anchors.size(); ++a)
    if (match.gt_index[static_cast<std::size_t>(a)] >= 0) positives.push_back(a);
  std::vector<std::int64_t> negatives;
  for (std::int64_t a = 0; a < anchors.size(); ++a)
    if (match.gt_index[static_cast<std::size_t>(a)] < 0) negatives.push_back(a);
  rng_.shuffle(negatives);
  const std::size_t n_neg = std::min<std::size_t>(negatives.size(), positives.size() * 2 + 4);
  for (std::int64_t a : positives) {
    sampled.push_back(a);
    obj_targets.push_back(1.0f);
  }
  for (std::size_t k = 0; k < n_neg; ++k) {
    sampled.push_back(negatives[k]);
    obj_targets.push_back(0.0f);
  }
  Variable obj_logits = autograd::reshape(
      autograd::gather_rows(autograd::reshape(rpn_out.objectness, {anchors.size(), 1}), sampled),
      {static_cast<std::int64_t>(sampled.size())});
  Variable rpn_cls_loss = nn::bce_with_logits(obj_logits, obj_targets);

  Variable loss = rpn_cls_loss;
  if (!positives.empty()) {
    Tensor delta_targets({static_cast<std::int64_t>(positives.size()), 4});
    std::vector<float> wts(positives.size(), 1.0f);
    for (std::size_t k = 0; k < positives.size(); ++k) {
      const std::int64_t a = positives[k];
      const std::int64_t g = match.gt_index[static_cast<std::size_t>(a)];
      const auto enc = model_->codec().encode(ex.objects[static_cast<std::size_t>(g)].box,
                                              anchors.anchors[static_cast<std::size_t>(a)]);
      for (int q = 0; q < 4; ++q)
        delta_targets[static_cast<std::int64_t>(k) * 4 + q] = enc[static_cast<std::size_t>(q)];
    }
    Variable rpn_box_loss =
        nn::smooth_l1(autograd::gather_rows(rpn_out.deltas, positives), delta_targets, wts);
    loss = autograd::add(loss, rpn_box_loss);
  }

  // ---- ROI heads: proposals = RPN proposals + gt + jittered gt.
  std::vector<Box> rois = model_->decode_proposals(rpn_out);
  for (const auto& o : ex.objects) {
    rois.push_back(o.box);
    const float dx = rng_.uniform(-0.05f, 0.05f), dy = rng_.uniform(-0.05f, 0.05f);
    const Box jit = clamp_unit({o.box.x1 + dx, o.box.y1 + dy, o.box.x2 + dx, o.box.y2 + dy});
    if (jit.w() > 0.02f && jit.h() > 0.02f) rois.push_back(jit);
  }

  // Match ROIs to gt.
  std::vector<std::int64_t> roi_cls(rois.size(), 0);
  std::vector<std::int64_t> roi_gt(rois.size(), -1);
  for (std::size_t r = 0; r < rois.size(); ++r) {
    float best = 0.0f;
    for (std::size_t g = 0; g < ex.objects.size(); ++g) {
      const float overlap = data::iou(rois[r], ex.objects[g].box);
      if (overlap > best) {
        best = overlap;
        roi_gt[r] = static_cast<std::int64_t>(g);
      }
    }
    if (best >= config_.roi_match_iou && roi_gt[r] >= 0) {
      roi_cls[r] = ex.objects[static_cast<std::size_t>(roi_gt[r])].cls + 1;
    } else {
      roi_gt[r] = -1;
    }
  }

  Variable roi_feats = roi_align(feats, rois, config_.model.roi_pool);
  MaskRcnnModel::RoiOutput roi_out = model_->box_head(roi_feats);
  Variable roi_cls_loss = nn::cross_entropy(roi_out.class_logits, roi_cls);
  loss = autograd::add(loss, roi_cls_loss);

  // Box regression for positive ROIs (targets encoded relative to the ROI).
  Tensor box_targets({static_cast<std::int64_t>(rois.size()), 4});
  std::vector<float> box_w(rois.size(), 0.0f);
  for (std::size_t r = 0; r < rois.size(); ++r) {
    if (roi_gt[r] < 0) continue;
    box_w[r] = 1.0f;
    const auto enc = model_->codec().encode(
        ex.objects[static_cast<std::size_t>(roi_gt[r])].box, rois[r]);
    for (int q = 0; q < 4; ++q)
      box_targets[static_cast<std::int64_t>(r) * 4 + q] = enc[static_cast<std::size_t>(q)];
  }
  loss = autograd::add(loss, nn::smooth_l1(roi_out.box_deltas, box_targets, box_w));

  // Mask loss on positive ROIs: BCE between the matched class's mask logits
  // and the gt mask cropped to the ROI.
  std::vector<std::int64_t> pos_rois;
  for (std::size_t r = 0; r < rois.size(); ++r)
    if (roi_gt[r] >= 0) pos_rois.push_back(static_cast<std::int64_t>(r));
  if (!pos_rois.empty()) {
    Variable masks = model_->mask_head(roi_feats);  // [R, C, M, M]
    const std::int64_t m = config_.model.mask_size;
    const std::int64_t ncls = config_.model.num_classes;
    std::vector<std::int64_t> mask_rows;  // rows r*C + cls of masks read as [R*C, M*M]
    std::vector<float> mask_targets;
    for (std::int64_t r : pos_rois) {
      const std::int64_t g = roi_gt[static_cast<std::size_t>(r)];
      const std::int64_t cls = ex.objects[static_cast<std::size_t>(g)].cls;
      mask_rows.push_back(r * ncls + cls);
      const Tensor gt_crop = crop_mask(ex.objects[static_cast<std::size_t>(g)].mask,
                                       rois[static_cast<std::size_t>(r)], m);
      for (std::int64_t q = 0; q < m * m; ++q) mask_targets.push_back(gt_crop[q]);
    }
    Variable mask_logits = autograd::reshape(
        autograd::gather_rows(autograd::reshape(masks, {masks.shape()[0] * ncls, m * m}),
                              mask_rows),
        {static_cast<std::int64_t>(pos_rois.size()) * m * m});
    loss = autograd::add(loss, nn::bce_with_logits(mask_logits, mask_targets));
  }

  return loss;
}

void MaskRcnnWorkload::train_epoch() {
  if (!dataset_ || !model_) throw std::logic_error("MaskRcnnWorkload: not prepared");
  model_->set_training(true);
  std::vector<std::size_t> order =
      rng_.permutation(static_cast<std::size_t>(dataset_->train_size()));
  for (std::size_t idx : order) {
    data::DetectionExample ex = dataset_->train(static_cast<std::int64_t>(idx));
    if (rng_.uniform() < 0.5) data::horizontal_flip(ex);  // reference augmentation
    train_step(*optimizer_, {.lr = config_.lr}, [&] { return image_loss(ex); });
  }
}

std::vector<metrics::Detection> MaskRcnnWorkload::detect(const Tensor& image,
                                                         std::int64_t image_id) {
  const nn::EvalModeGuard eval_mode(*model_);
  Variable feats = model_->backbone(
      Variable(image.reshape({1, image.shape()[0], image.shape()[1], image.shape()[2]})));
  MaskRcnnModel::RpnOutput rpn_out = model_->rpn(feats);
  std::vector<Box> proposals = model_->decode_proposals(rpn_out);
  if (proposals.empty()) return {};

  Variable roi_feats = roi_align(feats, proposals, config_.model.roi_pool);
  MaskRcnnModel::RoiOutput roi_out = model_->box_head(roi_feats);
  Variable mask_logits = model_->mask_head(roi_feats);  // [R, C, M, M]

  const Tensor probs = roi_out.class_logits.value().softmax_last();
  const std::int64_t ncls = probs.shape()[1];
  const std::int64_t m = config_.model.mask_size;
  const std::int64_t h = image.shape()[1], w = image.shape()[2];

  std::vector<metrics::Detection> all;
  for (std::int64_t cls = 1; cls < ncls; ++cls) {
    std::vector<Box> boxes;
    std::vector<float> scores;
    std::vector<std::int64_t> roi_idx;
    for (std::size_t r = 0; r < proposals.size(); ++r) {
      const float score = probs[static_cast<std::int64_t>(r) * ncls + cls];
      if (score < config_.score_threshold) continue;
      const Box refined = clamp_unit(model_->codec().decode(
          roi_out.box_deltas.value().data() + static_cast<std::int64_t>(r) * 4, proposals[r]));
      if (refined.w() <= 0.01f || refined.h() <= 0.01f) continue;
      boxes.push_back(refined);
      scores.push_back(score);
      roi_idx.push_back(static_cast<std::int64_t>(r));
    }
    for (std::size_t k : nms(boxes, scores, config_.nms_iou)) {
      // Mask: sigmoid of this class's logits, pasted into the refined box.
      Tensor soft({m, m});
      const std::int64_t r = roi_idx[k];
      for (std::int64_t q = 0; q < m * m; ++q) {
        const float logit = mask_logits.value()[((r * (ncls - 1)) + (cls - 1)) * m * m + q];
        soft[q] = 1.0f / (1.0f + std::exp(-logit));
      }
      all.push_back({image_id, cls - 1, scores[k], boxes[k], paste_mask(soft, boxes[k], h, w)});
    }
  }
  return all;
}

MaskRcnnWorkload::EvalDetail MaskRcnnWorkload::evaluate_detail() {
  if (!dataset_ || !model_) throw std::logic_error("MaskRcnnWorkload: not prepared");
  const ValDetections val = detect_val_split(
      *dataset_, [&](const Tensor& image, std::int64_t i) { return detect(image, i); });
  EvalDetail d;
  d.box_map = metrics::coco_map(val.detections, val.gt, config_.model.num_classes, false);
  d.mask_map = metrics::coco_map(val.detections, val.gt, config_.model.num_classes, true);
  return d;
}

double MaskRcnnWorkload::evaluate() {
  const EvalDetail d = evaluate_detail();
  return std::min(d.box_map, d.mask_map);
}

std::map<std::string, double> MaskRcnnWorkload::hyperparameters() const {
  return {{"global_batch_size", 1.0},
          {"learning_rate", config_.lr},
          {"momentum", config_.momentum}};
}

}  // namespace mlperf::models
