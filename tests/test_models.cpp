#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "models/gnmt.h"
#include "models/maskrcnn.h"
#include "models/minigo.h"
#include "models/ncf.h"
#include "models/resnet.h"
#include "models/ssd.h"
#include "models/transformer.h"
#include "parallel/parallel_for.h"

namespace mlperf::models {
namespace {

using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// ---- ResNet ------------------------------------------------------------------

TEST(ResNet, ForwardShape) {
  Rng rng(1);
  ResNetMini::Config cfg;
  ResNetMini net(cfg, rng);
  Variable out = net.forward(Variable(Tensor({2, 3, 16, 16})));
  EXPECT_EQ(out.value().shape(), (Shape{2, 10}));
}

TEST(ResNet, V15FirstBlockHasIdentitySkipWhenShapesMatch) {
  // A block with in==out channels and stride 1 must have exactly the 6
  // conv/bn modules' parameters — no projection (the v1.5 rule).
  Rng rng(2);
  BottleneckBlock same(16, 8, 16, 1, rng);
  BottleneckBlock proj(8, 8, 16, 1, rng);
  EXPECT_LT(same.num_parameters(), proj.num_parameters());
}

TEST(ResNet, StrideTwoHalvesResolutionViaThreeByThree) {
  Rng rng(3);
  BottleneckBlock block(8, 8, 16, 2, rng);
  Variable out = block.forward(Variable(Tensor({1, 8, 8, 8})));
  EXPECT_EQ(out.value().shape(), (Shape{1, 16, 4, 4}));
}

TEST(ResNet, GradientsFlowToAllParameters) {
  Rng rng(4);
  ResNetMini::Config cfg;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  cfg.stem_channels = 4;
  ResNetMini net(cfg, rng);
  Variable out = net.forward(Variable(Tensor::randn({2, 3, 8, 8}, rng)));
  autograd::sum_all(out).backward();
  for (const auto& [name, p] : net.named_parameters())
    EXPECT_GT(p.grad().l2_norm_sq(), 0.0f) << name;
}

TEST(ResNetWorkload, SmokeRunsConvergeAndAreSeedDeterministic) {
  ResNetWorkload::Config cfg;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.num_classes = 4;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 32;
  cfg.dataset.noise = 0.2f;
  cfg.model.num_classes = 4;
  cfg.model.stage_channels = {6, 8};

  auto run_once = [&](std::uint64_t seed) {
    ResNetWorkload w(cfg);
    w.prepare_data();
    w.build_model(seed);
    std::vector<double> curve;
    for (int e = 0; e < 3; ++e) {
      w.train_epoch();
      curve.push_back(w.evaluate());
    }
    return curve;
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  const auto c = run_once(12);
  EXPECT_EQ(a, b);  // §2.2.3 protocol: seed fixes the trajectory
  EXPECT_NE(a, c);
  EXPECT_GT(a.back(), 0.3);  // learning is happening (chance = 0.25)
}

TEST(ResNetWorkload, QuantizedTrainingStillLearnsButDiffers) {
  ResNetWorkload::Config cfg;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.num_classes = 4;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 32;
  cfg.model.num_classes = 4;
  cfg.model.stage_channels = {6, 8};
  cfg.weight_format = numerics::Format::kBF16;
  ResNetWorkload w(cfg);
  w.prepare_data();
  w.build_model(5);
  for (int e = 0; e < 8; ++e) w.train_epoch();
  EXPECT_GT(w.evaluate(), 0.30);  // > chance (0.25) with margin
}

// ---- SSD ---------------------------------------------------------------------

TEST(Ssd, AnchorGridCoversUnitSquare) {
  AnchorSet set = AnchorSet::make_grid(4, 4, {0.25f});
  EXPECT_EQ(set.size(), 16);
  for (const auto& a : set.anchors) {
    EXPECT_GT(a.cx(), 0.0f);
    EXPECT_LT(a.cx(), 1.0f);
    EXPECT_NEAR(a.w(), 0.25f, 1e-5);
  }
}

TEST(Ssd, BoxCodecRoundTrips) {
  BoxCodec codec;
  data::Box anchor{0.4f, 0.4f, 0.6f, 0.6f};
  data::Box gt{0.35f, 0.42f, 0.58f, 0.66f};
  const auto enc = codec.encode(gt, anchor);
  const data::Box dec = codec.decode(enc.data(), anchor);
  EXPECT_NEAR(dec.x1, gt.x1, 1e-4);
  EXPECT_NEAR(dec.y1, gt.y1, 1e-4);
  EXPECT_NEAR(dec.x2, gt.x2, 1e-4);
  EXPECT_NEAR(dec.y2, gt.y2, 1e-4);
}

TEST(Ssd, MatchingGuaranteesEveryGtGetsAnAnchor) {
  AnchorSet set = AnchorSet::make_grid(6, 6, {0.3f});
  std::vector<data::GtObject> gts(2);
  gts[0].box = data::Box{0.05f, 0.05f, 0.25f, 0.25f};
  gts[0].cls = 0;
  gts[1].box = data::Box{0.6f, 0.6f, 0.95f, 0.95f};
  gts[1].cls = 1;
  const MatchResult m = match_anchors(set, gts, 0.5f);
  std::set<std::int64_t> matched;
  for (std::int64_t g : m.gt_index)
    if (g >= 0) matched.insert(g);
  EXPECT_EQ(matched.size(), 2u);
}

TEST(Ssd, NmsSuppressesOverlaps) {
  std::vector<data::Box> boxes = {{0.1f, 0.1f, 0.5f, 0.5f},
                                  {0.12f, 0.12f, 0.52f, 0.52f},
                                  {0.7f, 0.7f, 0.9f, 0.9f}};
  std::vector<float> scores = {0.9f, 0.8f, 0.7f};
  const auto keep = nms(boxes, scores, 0.45f);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(keep[0], 0u);
  EXPECT_EQ(keep[1], 2u);
}

TEST(Ssd, NmsKeepsHighestScoreFirst) {
  std::vector<data::Box> boxes = {{0.1f, 0.1f, 0.5f, 0.5f}, {0.1f, 0.1f, 0.5f, 0.5f}};
  std::vector<float> scores = {0.3f, 0.9f};
  const auto keep = nms(boxes, scores, 0.5f);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 1u);
}

TEST(Ssd, ModelOutputShapesMatchAnchors) {
  Rng rng(6);
  SsdModel::Config cfg;
  SsdModel model(cfg, rng);
  SsdModel::Output out = model.forward(Variable(Tensor({2, 3, 24, 24})));
  const std::int64_t a = model.anchors().size();
  EXPECT_EQ(out.class_logits.value().shape(), (Shape{2 * a, cfg.num_classes + 1}));
  EXPECT_EQ(out.box_offsets.value().shape(), (Shape{2 * a, 4}));
}

TEST(SsdWorkload, LearnsOnSmokeConfig) {
  SsdWorkload::Config cfg;
  cfg.dataset.train_size = 48;
  cfg.dataset.val_size = 24;
  SsdWorkload w(cfg);
  w.prepare_data();
  w.build_model(3);
  const double before = w.evaluate();
  for (int e = 0; e < 4; ++e) w.train_epoch();
  const double after = w.evaluate();
  EXPECT_GT(after, before + 0.05);
}

// ---- Mask R-CNN -----------------------------------------------------------------

TEST(MaskRcnn, RoiAlignExtractsAndBackprops) {
  Rng rng(7);
  Tensor feats = Tensor::randn({1, 2, 8, 8}, rng);
  Variable vf(feats, true);
  std::vector<data::Box> rois = {{0.0f, 0.0f, 0.5f, 0.5f}, {0.25f, 0.25f, 1.0f, 1.0f}};
  Variable out = roi_align(vf, rois, 4);
  EXPECT_EQ(out.value().shape(), (Shape{2, 2, 4, 4}));
  autograd::sum_all(out).backward();
  EXPECT_GT(vf.grad().l2_norm_sq(), 0.0f);
}

TEST(MaskRcnn, RoiAlignConstantFeatureGivesConstantOutput) {
  Tensor feats({1, 1, 6, 6}, 3.25f);
  Variable out = roi_align(Variable(feats), {{0.1f, 0.2f, 0.8f, 0.9f}}, 3);
  for (std::int64_t i = 0; i < out.value().numel(); ++i)
    EXPECT_NEAR(out.value()[i], 3.25f, 1e-5);
}

TEST(MaskRcnn, RoiAlignGradcheck) {
  Rng rng(8);
  Tensor feats = Tensor::randn({1, 1, 5, 5}, rng);
  std::vector<data::Box> rois = {{0.1f, 0.1f, 0.7f, 0.8f}};
  const float eps = 1e-2f;
  Variable vf(feats, true);
  autograd::sum_all(roi_align(vf, rois, 3)).backward();
  for (std::int64_t i = 0; i < feats.numel(); i += 3) {
    Tensor fp = feats, fm = feats;
    fp[i] += eps;
    fm[i] -= eps;
    const float lp = roi_align(Variable(fp), rois, 3).value().sum();
    const float lm = roi_align(Variable(fm), rois, 3).value().sum();
    EXPECT_NEAR(vf.grad()[i], (lp - lm) / (2 * eps), 5e-2) << i;
  }
}

TEST(MaskRcnn, RpnShapesMatchAnchors) {
  Rng rng(9);
  MaskRcnnModel::Config cfg;
  MaskRcnnModel model(cfg, rng);
  Variable feats = model.backbone(Variable(Tensor({1, 3, 24, 24})));
  auto rpn = model.rpn(feats);
  EXPECT_EQ(rpn.objectness.value().numel(), model.rpn_anchors().size());
  EXPECT_EQ(rpn.deltas.value().shape(), (Shape{model.rpn_anchors().size(), 4}));
}

TEST(MaskRcnn, ProposalsAreValidBoxes) {
  Rng rng(10);
  MaskRcnnModel::Config cfg;
  MaskRcnnModel model(cfg, rng);
  Variable feats = model.backbone(Variable(Tensor::randn({1, 3, 24, 24}, rng)));
  auto rpn = model.rpn(feats);
  const auto proposals = model.decode_proposals(rpn);
  EXPECT_LE(static_cast<std::int64_t>(proposals.size()), cfg.proposals_per_image);
  for (const auto& p : proposals) {
    EXPECT_GE(p.x1, 0.0f);
    EXPECT_LE(p.x2, 1.0f);
    EXPECT_GT(p.area(), 0.0f);
  }
}

TEST(MaskRcnnWorkload, LearnsOnSmokeConfig) {
  MaskRcnnWorkload::Config cfg;
  cfg.dataset.train_size = 24;
  cfg.dataset.val_size = 12;
  MaskRcnnWorkload w(cfg);
  w.prepare_data();
  w.build_model(4);
  for (int e = 0; e < 4; ++e) w.train_epoch();
  const auto detail = w.evaluate_detail();
  EXPECT_GT(detail.box_map, 0.05);
  EXPECT_GT(detail.mask_map, 0.05);
  EXPECT_DOUBLE_EQ(w.evaluate(), std::min(detail.box_map, detail.mask_map));
}

// ---- Transformer ------------------------------------------------------------------

TEST(Transformer, TeacherForcedShapes) {
  Rng rng(11);
  TransformerModel::Config cfg;
  cfg.vocab = 20;
  TransformerModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}, {6, 7, 8}};
  std::vector<data::TokenSeq> tgt_in = {{1, 9, 10}, {1, 11, 12}};
  Variable mem = model.encode(src);
  EXPECT_EQ(mem.value().shape(), (Shape{2, 3, cfg.model_dim}));
  Variable logits = model.decode(tgt_in, mem);
  EXPECT_EQ(logits.value().shape(), (Shape{6, 20}));
}

TEST(Transformer, RaggedBatchThrows) {
  Rng rng(12);
  TransformerModel model({}, rng);
  EXPECT_THROW(model.encode({{3, 4}, {3, 4, 5}}), std::invalid_argument);
}

TEST(Transformer, GreedyDecodeStopsAtEosAndTrims) {
  Rng rng(13);
  TransformerModel model({}, rng);
  const auto out = model.greedy_translate({{3, 4, 5, 6}}, 8);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LE(out[0].size(), 8u);
  for (auto tok : out[0]) {
    EXPECT_NE(tok, data::kEos);
    EXPECT_NE(tok, data::kBos);
    EXPECT_NE(tok, data::kPad);
  }
}

TEST(Transformer, TrainingStepReducesLoss) {
  TransformerWorkload::Config cfg;
  cfg.dataset.vocab = 12;
  cfg.dataset.min_len = 3;
  cfg.dataset.max_len = 5;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 16;
  TransformerWorkload w(cfg);
  w.prepare_data();
  w.build_model(6);
  const double before = w.evaluate();
  for (int e = 0; e < 12; ++e) w.train_epoch();
  EXPECT_GE(w.evaluate(), before);  // BLEU should not regress from ~0
}

// ---- Transformer incremental decode ---------------------------------------------

namespace decode_oracle {

// The full-prefix greedy decode: re-runs decode() over the whole generated
// prefix at every position and reads each sequence's last row — O(T^2)
// decoder rows per sentence. It lives only here, as the reference the
// KV-cached greedy_translate must reproduce bit for bit.
struct Trace {
  std::vector<std::vector<std::int64_t>> fed;  ///< tokens fed at each step
  std::vector<Tensor> logits;                  ///< [B, vocab] last-position rows per step
  std::vector<data::TokenSeq> out;             ///< trimmed at the first EOS/PAD
  bool pad_fed = false;                        ///< some finished row was fed PAD
};

Trace full_prefix_greedy(TransformerModel& model, const std::vector<data::TokenSeq>& src,
                         std::int64_t max_len) {
  const std::int64_t vocab = model.config().vocab;
  const Variable memory = model.encode(src);
  const auto b = static_cast<std::int64_t>(src.size());
  std::vector<data::TokenSeq> generated(src.size(), data::TokenSeq{data::kBos});
  std::vector<bool> done(src.size(), false);
  Trace trace;
  for (std::int64_t step = 0; step < max_len; ++step) {
    std::vector<std::int64_t> fed;
    for (const auto& g : generated) fed.push_back(g.back());
    trace.fed.push_back(fed);
    const Variable logits = model.decode(generated, memory);  // [b*t, vocab]
    const std::int64_t t = step + 1;
    Tensor last({b, vocab});
    for (std::int64_t i = 0; i < b; ++i)
      std::copy_n(logits.value().data() + (i * t + t - 1) * vocab, vocab,
                  last.data() + i * vocab);
    trace.logits.push_back(last);
    bool all_done = true;
    for (std::int64_t i = 0; i < b; ++i) {
      auto& g = generated[static_cast<std::size_t>(i)];
      if (done[static_cast<std::size_t>(i)]) {
        g.push_back(data::kPad);
        trace.pad_fed = trace.pad_fed || step + 1 < max_len;
        continue;
      }
      const float* rp = last.data() + i * vocab;
      std::int64_t best = 0;
      for (std::int64_t v = 1; v < vocab; ++v)
        if (rp[v] > rp[best]) best = v;
      g.push_back(best);
      if (best == data::kEos) {
        done[static_cast<std::size_t>(i)] = true;
      } else {
        all_done = false;
      }
    }
    if (all_done) break;
  }
  for (const auto& g : generated) {
    data::TokenSeq t;
    for (std::size_t i = 1; i < g.size() && g[i] != data::kEos && g[i] != data::kPad; ++i)
      t.push_back(g[i]);
    trace.out.push_back(std::move(t));
  }
  return trace;
}

}  // namespace decode_oracle

// KV-cached decode_step/greedy_translate against the full-prefix oracle:
// logits at every step by memcmp, emitted tokens (rows that finished early
// are fed PAD), B in {1, 3, 16}, source lengths up to max_len, 1 and 4
// threads. The EOS logit is biased so rows finish at different steps.
TEST(Transformer, IncrementalDecodeMatchesFullPrefixOracleBitwise) {
  TransformerModel::Config cfg;
  Rng rng(17);
  TransformerModel model(cfg, rng);
  for (auto& [name, p] : model.named_parameters())
    if (name == "out.bias") p.mutable_value()[data::kEos] = 1.5f;
  bool saw_pad_fed = false, saw_full_length = false;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Rng data_rng(18);
    for (std::int64_t b : {1, 3, 16}) {
      for (std::int64_t len : {std::int64_t{1}, std::int64_t{5}, cfg.max_len}) {
        std::vector<data::TokenSeq> src(static_cast<std::size_t>(b));
        for (auto& seq : src)
          for (std::int64_t k = 0; k < len; ++k)
            seq.push_back(data::kFirstWord + static_cast<std::int64_t>(data_rng.randint(
                static_cast<std::uint64_t>(cfg.vocab - data::kFirstWord))));
        const decode_oracle::Trace want =
            decode_oracle::full_prefix_greedy(model, src, cfg.max_len);
        saw_pad_fed = saw_pad_fed || want.pad_fed;
        saw_full_length = saw_full_length || want.fed.size() == std::size_t(cfg.max_len);

        EXPECT_EQ(model.greedy_translate(src, cfg.max_len), want.out)
            << "B=" << b << " len=" << len << " threads=" << threads;

        autograd::NoGradGuard no_grad;
        TransformerModel::DecodeState state = model.start_decode(model.encode(src), cfg.max_len);
        for (std::size_t step = 0; step < want.fed.size(); ++step) {
          const Tensor got = model.decode_step(want.fed[step], state).value();
          ASSERT_EQ(got.shape(), want.logits[step].shape());
          EXPECT_EQ(0, std::memcmp(got.data(), want.logits[step].data(),
                                   static_cast<std::size_t>(got.numel()) * sizeof(float)))
              << "B=" << b << " len=" << len << " threads=" << threads << " step=" << step;
        }
      }
    }
  }
  parallel::set_num_threads(1);
  EXPECT_TRUE(saw_pad_fed) << "no row finished early: the PAD-feeding path went unchecked";
  EXPECT_TRUE(saw_full_length) << "no decode ran to max_len";
}

TEST(Transformer, DecodeStepPastMaxLenThrows) {
  TransformerModel::Config cfg;
  cfg.max_len = 3;
  Rng rng(19);
  TransformerModel model(cfg, rng);
  autograd::NoGradGuard no_grad;
  TransformerModel::DecodeState state = model.start_decode(model.encode({{3, 4}}), cfg.max_len);
  for (std::int64_t step = 0; step < cfg.max_len; ++step)
    EXPECT_EQ(model.decode_step({data::kBos}, state).value().shape(), (Shape{1, cfg.vocab}));
  EXPECT_THROW(model.decode_step({data::kBos}, state), std::invalid_argument);
}

// ---- GNMT ---------------------------------------------------------------------------

TEST(Gnmt, TeacherForcedShapes) {
  Rng rng(14);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}, {6, 7, 8}};
  std::vector<data::TokenSeq> tgt_in = {{1, 9}, {1, 10}};
  Variable logits = model.forward_teacher(src, tgt_in);
  EXPECT_EQ(logits.value().shape(), (Shape{4, 16}));
}

TEST(Gnmt, GreedyDecodeProducesTokensInVocab) {
  Rng rng(15);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  const auto out = model.greedy_translate({{3, 4, 5}}, 6);
  ASSERT_EQ(out.size(), 1u);
  for (auto tok : out[0]) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, 16);
  }
}

TEST(Gnmt, GradientsReachEncoderThroughAttention) {
  Rng rng(16);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}};
  std::vector<data::TokenSeq> tgt_in = {{1, 6, 7}};
  Variable logits = model.forward_teacher(src, tgt_in);
  autograd::sum_all(logits).backward();
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("encoder", 0) == 0) {
      EXPECT_GT(p.grad().l2_norm_sq(), 0.0f) << name;
    }
  }
}

// ---- NCF -----------------------------------------------------------------------------

TEST(Ncf, ScoreShape) {
  Rng rng(17);
  NeuMf::Config cfg;
  NeuMf model(cfg, rng);
  Variable s = model.forward({0, 1, 2}, {5, 6, 7});
  EXPECT_EQ(s.value().shape(), (Shape{3, 1}));
}

TEST(Ncf, MismatchedInputsThrow) {
  Rng rng(18);
  NeuMf model({}, rng);
  EXPECT_THROW(model.forward({0, 1}, {5}), std::invalid_argument);
}

TEST(NcfWorkload, SmokeConvergesAboveChance) {
  NcfWorkload::Config cfg;
  cfg.dataset.num_users = 32;
  cfg.dataset.num_items = 64;
  cfg.dataset.interactions_per_user = 10;
  cfg.dataset.num_eval_negatives = 30;
  NcfWorkload w(cfg);
  w.prepare_data();
  w.build_model(9);
  for (int e = 0; e < 10; ++e) w.train_epoch();
  // Chance HR@10 with 51 candidates ~ 0.196.
  EXPECT_GT(w.evaluate(), 0.3);
}

// ---- MiniGo -------------------------------------------------------------------------

TEST(Transformer, LabelSmoothingConfigTrains) {
  TransformerWorkload::Config cfg;
  cfg.dataset.vocab = 12;
  cfg.dataset.min_len = 3;
  cfg.dataset.max_len = 5;
  cfg.dataset.train_size = 48;
  cfg.dataset.val_size = 16;
  cfg.label_smoothing = 0.1f;
  TransformerWorkload w(cfg);
  w.prepare_data();
  w.build_model(3);
  for (int e = 0; e < 4; ++e) w.train_epoch();  // must not throw / diverge
  EXPECT_GE(w.evaluate(), 0.0);
}

TEST(MiniGo, BoardPlanesPerspective) {
  go::Board b(9);
  b.play(go::Move::at(0));  // black
  Tensor planes_white_view = board_planes(b);  // white to play
  // Plane 0 = own (white) stones: empty. Plane 1 = opponent (black): point 0.
  EXPECT_EQ(planes_white_view[0], 0.0f);
  EXPECT_EQ(planes_white_view[81], 1.0f);
  EXPECT_EQ(planes_white_view[2 * 81], 0.0f);  // colour plane: white
}

TEST(MiniGo, NetOutputShapes) {
  Rng rng(19);
  PolicyValueNet net({}, rng);
  auto out = net.forward(Variable(Tensor({2, 3, 9, 9})));
  EXPECT_EQ(out.policy_logits.value().shape(), (Shape{2, 82}));
  EXPECT_EQ(out.value.value().shape(), (Shape{2, 1}));
  EXPECT_LE(out.value.value().max(), 1.0f);
  EXPECT_GE(out.value.value().min(), -1.0f);
}

TEST(MiniGo, InferReturnsDistribution) {
  Rng rng(20);
  PolicyValueNet net({}, rng);
  go::Board b(9);
  auto [prior, value] = net.infer(b);
  EXPECT_EQ(prior.size(), 82u);
  double sum = 0.0;
  for (float p : prior) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_GE(value, -1.0f);
  EXPECT_LE(value, 1.0f);
}

TEST(MiniGo, MctsVisitsSumToOneAndRespectLegality) {
  Rng rng(21);
  go::Board b(9);
  b.play(go::Move::at(40));
  Mcts mcts({.simulations = 32}, heuristic_evaluator());
  const auto pi = mcts.search(b, rng);
  double sum = 0.0;
  for (float p : pi) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_EQ(pi[40], 0.0f);  // occupied point cannot be visited
}

TEST(MiniGo, MctsPrefersCapturingValue) {
  // Teacher MCTS with the score-based heuristic should put most visits on
  // legal moves (sanity of the search plumbing, not strength).
  Rng rng(22);
  go::Board b(5, 0.5f);
  Mcts mcts({.simulations = 64}, heuristic_evaluator());
  const auto pi = mcts.search(b, rng);
  const go::Move best = Mcts::select_move(pi, b, 0.0f, rng);
  EXPECT_TRUE(b.is_legal(best));
}

TEST(MiniGo, SelfPlayProducesConsistentExamples) {
  Rng rng(23);
  SelfPlayResult game = self_play_game({.simulations = 8}, heuristic_evaluator(), 5, 0.5f,
                                       /*max_moves=*/20, /*temperature_moves=*/4, rng);
  EXPECT_FALSE(game.examples.empty());
  EXPECT_EQ(game.examples.size(), game.record.moves.size());
  for (const auto& ex : game.examples) {
    EXPECT_EQ(ex.planes.shape(), (Shape{3, 5, 5}));
    EXPECT_TRUE(ex.z == 1.0f || ex.z == -1.0f || ex.z == 0.0f);
    double sum = 0.0;
    for (float p : ex.pi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(MiniGo, MctsSearchIsSeedDeterministic) {
  go::Board b(9);
  Mcts mcts({.simulations = 16}, heuristic_evaluator());
  Rng r1(5), r2(5), r3(6);
  const auto pi1 = mcts.search(b, r1);
  const auto pi2 = mcts.search(b, r2);
  EXPECT_EQ(pi1, pi2);
  const auto pi3 = mcts.search(b, r3);  // different seed -> different noise
  EXPECT_NE(pi1, pi3);
}

TEST(MiniGo, MctsMoreSimulationsConcentrateVisits) {
  // With more simulations, the visit distribution's max should not decrease
  // dramatically — the search converges on preferred moves. (Weak sanity
  // property; exact values depend on the evaluator.)
  go::Board b(5, 0.5f);
  Mcts small({.simulations = 8, .dirichlet_weight = 0.0f}, heuristic_evaluator());
  Mcts big({.simulations = 128, .dirichlet_weight = 0.0f}, heuristic_evaluator());
  Rng r1(9), r2(9);
  const auto pi_small = small.search(b, r1);
  const auto pi_big = big.search(b, r2);
  auto max_of = [](const std::vector<float>& v) {
    float m = 0.0f;
    for (float x : v) m = std::max(m, x);
    return m;
  };
  EXPECT_GT(max_of(pi_big), 0.0f);
  EXPECT_GT(max_of(pi_small), 0.0f);
}

TEST(MiniGo, SelectMoveTemperatureZeroIsArgmax) {
  go::Board b(9);
  std::vector<float> visits(82, 0.0f);
  visits[40] = 0.7f;
  visits[41] = 0.3f;
  Rng rng(10);
  const go::Move m = Mcts::select_move(visits, b, 0.0f, rng);
  EXPECT_EQ(m.point, 40);
}

TEST(MiniGo, SelectMoveSamplesWithTemperature) {
  go::Board b(9);
  std::vector<float> visits(82, 0.0f);
  visits[10] = 0.5f;
  visits[20] = 0.5f;
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(Mcts::select_move(visits, b, 1.0f, rng).point);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(MiniGoWorkload, MovePredictionImprovesOnSmoke) {
  MiniGoWorkload::Config cfg;
  cfg.mcts.simulations = 8;
  cfg.selfplay_games_per_epoch = 1;
  cfg.max_game_moves = 16;
  cfg.train_batches_per_epoch = 12;
  cfg.reference_games = 2;
  cfg.reference_teacher_sims = 16;
  cfg.reference_moves_per_game = 8;
  MiniGoWorkload w(cfg);
  w.prepare_data();
  EXPECT_EQ(w.reference_games().size(), 2u);
  w.build_model(10);
  const double before = w.evaluate();
  for (int e = 0; e < 6; ++e) w.train_epoch();
  EXPECT_GT(w.evaluate(), before);
}

TEST(MiniGoWorkload, FixedSeedNondeterminismFlag) {
  // With the flag off, same seed => same first evaluation after an epoch.
  MiniGoWorkload::Config cfg;
  cfg.mcts.simulations = 4;
  cfg.selfplay_games_per_epoch = 1;
  cfg.max_game_moves = 10;
  cfg.train_batches_per_epoch = 4;
  cfg.reference_games = 1;
  cfg.reference_teacher_sims = 8;
  cfg.reference_moves_per_game = 6;
  auto run = [&](bool nondet) {
    cfg.nondeterministic_scheduling = nondet;
    MiniGoWorkload w(cfg);
    w.prepare_data();
    w.build_model(77);
    w.train_epoch();
    return w.evaluate();
  };
  EXPECT_EQ(run(false), run(false));
}

}  // namespace
}  // namespace mlperf::models
