#include "data/augment.h"
#include "data/dataset.h"
#include "data/detection.h"
#include "data/loader.h"
#include "data/recsys.h"
#include "data/translation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>

#include "parallel/parallel_for.h"

namespace mlperf::data {
namespace {

using tensor::Rng;
using tensor::Tensor;

TEST(ImageDataset, SizesAndDeterminism) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 64;
  cfg.val_size = 32;
  SyntheticImageDataset a(cfg), b(cfg);
  EXPECT_EQ(a.train_size(), 64);
  EXPECT_EQ(a.val_size(), 32);
  // Same seed -> byte-identical records (the dataset is a fixed artifact).
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(a.train_raw(i).pixels, b.train_raw(i).pixels);
}

TEST(ImageDataset, DifferentSeedDifferentData) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 8;
  SyntheticImageDataset a(cfg);
  cfg.seed = 999;
  SyntheticImageDataset b(cfg);
  EXPECT_NE(a.train_raw(0).pixels, b.train_raw(0).pixels);
}

TEST(ImageDataset, ClassesBalancedRoundRobin) {
  SyntheticImageDataset::Config cfg;
  cfg.num_classes = 4;
  cfg.train_size = 40;
  SyntheticImageDataset ds(cfg);
  std::vector<int> counts(4, 0);
  for (std::int64_t i = 0; i < 40; ++i) ++counts[static_cast<std::size_t>(ds.train_raw(i).label)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(ImageDataset, DecodeNormalizesToUnitRange) {
  SyntheticImageDataset ds({});
  const ImageExample ex = SyntheticImageDataset::decode(ds.train_raw(0));
  EXPECT_EQ(ex.image.ndim(), 3);
  for (std::int64_t i = 0; i < ex.image.numel(); ++i) {
    EXPECT_GE(ex.image[i], 0.0f);
    EXPECT_LE(ex.image[i], 1.0f);
  }
}

TEST(Reformat, PreservesCountAndLabels) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 16;
  cfg.val_size = 8;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  EXPECT_EQ(splits.train.size(), 16);
  EXPECT_EQ(splits.val.size(), 8);
  for (std::int64_t i = 0; i < 16; ++i)
    EXPECT_EQ(splits.train.get(i).label, ds.train_raw(i).label);
}

TEST(Augment, CropPreservesShape) {
  Rng rng(1);
  Tensor img = Tensor::rand({3, 8, 8}, rng);
  RandomCrop crop(2);
  Tensor out = crop.apply(img, rng);
  EXPECT_EQ(out.shape(), img.shape());
}

// Output (c, i, j) is source (c, i + oi - pad, j + oj - pad), or 0 outside
// it, with oi and oj the crop's two draws. Seeds run until every offset in
// [0, 2 * pad] has been drawn on both axes.
TEST(Augment, CropMatchesShiftedZeroPaddedOracle) {
  const std::int64_t pad = 2, c = 2, h = 5, w = 7;
  RandomCrop crop(pad);
  std::set<std::int64_t> rows_seen, cols_seen;
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    Rng init(seed);
    const Tensor img = Tensor::rand({c, h, w}, init, 0.5f, 1.5f);  // no source zeros
    Rng rng(seed), probe(seed);
    const Tensor out = crop.apply(img, rng);
    const auto oi = static_cast<std::int64_t>(probe.randint(2 * pad + 1));
    const auto oj = static_cast<std::int64_t>(probe.randint(2 * pad + 1));
    EXPECT_EQ(rng.next_u64(), probe.next_u64()) << "the crop draws exactly two offsets";
    rows_seen.insert(oi);
    cols_seen.insert(oj);
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t i = 0; i < h; ++i)
        for (std::int64_t j = 0; j < w; ++j) {
          const std::int64_t si = i + oi - pad, sj = j + oj - pad;
          const bool inside = si >= 0 && si < h && sj >= 0 && sj < w;
          ASSERT_EQ(inside ? img.at({ch, si, sj}) : 0.0f, out.at({ch, i, j}))
              << "seed " << seed << " at " << ch << "," << i << "," << j;
        }
    if (std::ssize(rows_seen) == 2 * pad + 1 && std::ssize(cols_seen) == 2 * pad + 1) return;
  }
  FAIL() << "the seeds did not cover every offset";
}

TEST(Augment, FlipIsExactMirror) {
  Rng rng(2);
  Tensor img = Tensor::rand({1, 2, 4}, rng);
  RandomHorizontalFlip flip(1.0f);  // always
  Tensor out = flip.apply(img, rng);
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_EQ(out.at({0, i, j}), img.at({0, i, 3 - j}));
}

TEST(Augment, FlipProbabilityZeroIsIdentity) {
  Rng rng(3);
  Tensor img = Tensor::rand({1, 2, 2}, rng);
  RandomHorizontalFlip flip(0.0f);
  Tensor out = flip.apply(img, rng);
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(out[i], img[i]);
}

TEST(Augment, JitterStaysInRange) {
  Rng rng(4);
  Tensor img = Tensor::rand({3, 4, 4}, rng);
  ColorJitter jitter(0.5f);
  Tensor out = jitter.apply(img, rng);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], 0.0f);
    EXPECT_LE(out[i], 1.0f);
  }
}

TEST(Augment, PipelineSignatureEncodesOrder) {
  // §2.2.4: augmentation order is part of workload identity.
  AugmentationPipeline p1;
  p1.add(std::make_unique<RandomCrop>(2)).add(std::make_unique<RandomHorizontalFlip>());
  AugmentationPipeline p2;
  p2.add(std::make_unique<RandomHorizontalFlip>()).add(std::make_unique<RandomCrop>(2));
  EXPECT_NE(p1.signature(), p2.signature());
  EXPECT_EQ(p1.signature(), "random_crop|horizontal_flip");
}

TEST(Augment, ReferencePipelineSignature) {
  EXPECT_EQ(AugmentationPipeline::reference_image_pipeline().signature(),
            "random_crop|horizontal_flip|color_jitter");
}

TEST(Augment, DeterministicGivenRngState) {
  Tensor img({3, 6, 6}, 0.5f);
  AugmentationPipeline p = AugmentationPipeline::reference_image_pipeline();
  Rng r1(7), r2(7);
  Tensor a = p.apply(img, r1);
  Tensor b = p.apply(img, r2);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Loader, EpochCoversEverySampleOnce) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 20;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(5);
  ImageLoader loader(splits.train, 6, nullptr, rng);
  std::int64_t total = 0;
  std::vector<int> label_counts(cfg.num_classes, 0);
  while (loader.has_next()) {
    ImageBatch b = loader.next();
    total += static_cast<std::int64_t>(b.labels.size());
    for (auto l : b.labels) ++label_counts[static_cast<std::size_t>(l)];
  }
  EXPECT_EQ(total, 20);
  EXPECT_THROW(loader.next(), std::logic_error);
}

TEST(Loader, DropLastMakesFullBatchesOnly) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 20;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(6);
  ImageLoader loader(splits.train, 6, nullptr, rng, /*drop_last=*/true);
  std::int64_t batches = 0;
  while (loader.has_next()) {
    EXPECT_EQ(loader.next().labels.size(), 6u);
    ++batches;
  }
  EXPECT_EQ(batches, 3);
}

TEST(Loader, RaggedLastBatchKeptWithoutDropLast) {
  // dataset_size % batch_size != 0: 10 = 4 + 4 + 2.
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 10;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    Rng rng(21);
    ImageLoader loader(splits.train, 4, nullptr, rng, /*drop_last=*/false, prefetch);
    std::vector<std::size_t> sizes;
    while (loader.has_next()) sizes.push_back(loader.next().labels.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2})) << "prefetch=" << prefetch;
    EXPECT_EQ(sizes.size(), 3u);
    EXPECT_THROW(loader.next(), std::logic_error);
  }
}

TEST(Loader, RaggedLastBatchDroppedWithDropLast) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 10;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    Rng rng(22);
    ImageLoader loader(splits.train, 4, nullptr, rng, /*drop_last=*/true, prefetch);
    std::vector<std::size_t> sizes;
    while (loader.has_next()) sizes.push_back(loader.next().labels.size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4})) << "prefetch=" << prefetch;
    EXPECT_EQ(sizes.size(), 2u);
  }
}

TEST(Loader, BatchLargerThanDataset) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 3;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (bool prefetch : {false, true}) {
    // drop_last off: one short batch holding the whole dataset.
    Rng rng(23);
    ImageLoader keep(splits.train, 8, nullptr, rng, /*drop_last=*/false, prefetch);
    ASSERT_TRUE(keep.has_next());
    EXPECT_EQ(keep.next().labels.size(), 3u);
    EXPECT_FALSE(keep.has_next());
    // drop_last on: no full batch exists -> the epoch is empty.
    ImageLoader drop(splits.train, 8, nullptr, rng, /*drop_last=*/true, prefetch);
    EXPECT_FALSE(drop.has_next());
    EXPECT_THROW(drop.next(), std::logic_error);
  }
}

TEST(Loader, InvalidBatchSizeThrows) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 4;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(24);
  EXPECT_THROW(ImageLoader(splits.train, 0, nullptr, rng), std::invalid_argument);
  EXPECT_THROW(ImageLoader(splits.train, -2, nullptr, rng), std::invalid_argument);
}

TEST(Loader, PrefetchWithoutAugmentMatchesInlineLoader) {
  // With no augmentation the prefetching loader consumes no Rng draws per
  // batch, so its batches must equal the inline loader's exactly.
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 14;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng_a(31), rng_b(31);
  ImageLoader inline_loader(splits.train, 4, nullptr, rng_a);
  ImageLoader prefetch_loader(splits.train, 4, nullptr, rng_b, /*drop_last=*/false,
                              /*prefetch=*/true);
  while (inline_loader.has_next()) {
    ASSERT_TRUE(prefetch_loader.has_next());
    ImageBatch a = inline_loader.next();
    ImageBatch b = prefetch_loader.next();
    EXPECT_EQ(a.labels, b.labels);
    ASSERT_EQ(a.images.numel(), b.images.numel());
    for (std::int64_t i = 0; i < a.images.numel(); ++i) EXPECT_EQ(a.images[i], b.images[i]);
  }
  EXPECT_FALSE(prefetch_loader.has_next());
}

/// Prefetch tests that change the thread count restore the default after.
class PrefetchLoader : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_num_threads(1); }
};

/// Passes images through unchanged, except that call number `fail_at`
/// (counting from 0 across all batches) throws.
class FailingAugmentation final : public Augmentation {
 public:
  explicit FailingAugmentation(int fail_at) : fail_at_(fail_at) {}
  Tensor apply(const Tensor& img, Rng&) const override {
    if (calls_.fetch_add(1) == fail_at_) throw std::runtime_error("augmentation failed");
    return img;
  }
  std::string name() const override { return "failing"; }

 private:
  int fail_at_;
  mutable std::atomic<int> calls_{0};
};

TEST_F(PrefetchLoader, AugmentationErrorSurfacesFromNext) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 12;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  for (std::int64_t threads : {1, 4}) {
    parallel::set_num_threads(threads);
    AugmentationPipeline aug;
    aug.add(std::make_unique<FailingAugmentation>(5));  // 2nd example of batch 2
    Rng rng(41);
    ImageLoader loader(splits.train, 4, &aug, rng, /*drop_last=*/false, /*prefetch=*/true);
    EXPECT_EQ(loader.next().labels.size(), 4u);
    EXPECT_THROW(loader.next(), std::runtime_error) << "threads=" << threads;
    // Batch 3 is in flight here; destroying the loader waits for it.
  }
}

TEST_F(PrefetchLoader, RestartAndDestroyWithBatchInFlight) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 24;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  const AugmentationPipeline aug = AugmentationPipeline::reference_image_pipeline();
  std::multiset<std::int64_t> all_labels;
  for (std::int64_t i = 0; i < splits.train.size(); ++i)
    all_labels.insert(splits.train.get(i).label);

  // Abandon three epochs mid-way, each with its next batch being assembled,
  // then return one full epoch; the last loader dies with a batch in flight.
  auto run = [&](std::int64_t threads) {
    parallel::set_num_threads(threads);
    Rng rng(43);
    ImageLoader loader(splits.train, 4, &aug, rng, /*drop_last=*/false, /*prefetch=*/true);
    for (int restart = 0; restart < 3; ++restart) {
      loader.next();
      loader.start_epoch();
    }
    std::vector<ImageBatch> epoch;
    while (loader.has_next()) epoch.push_back(loader.next());
    loader.start_epoch();
    loader.next();
    return epoch;
  };

  const std::vector<ImageBatch> ref = run(1);
  ASSERT_EQ(ref.size(), 6u);
  std::multiset<std::int64_t> seen;
  for (const ImageBatch& b : ref) seen.insert(b.labels.begin(), b.labels.end());
  EXPECT_EQ(seen, all_labels);
  const std::vector<ImageBatch> got = run(4);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].labels, ref[i].labels);
    EXPECT_EQ(got[i].images.vec(), ref[i].images.vec());
  }
}

// A training loop may keep one loader and call start_epoch() between epochs,
// or build a fresh loader over the same Rng each epoch (the constructor
// starts the first epoch). Both must draw the same shuffles and the same
// augmentation, inline and prefetching, at 1 and 4 threads.
TEST(Loader, FreshLoaderPerEpochMatchesRestartedLoader) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 22;  // ragged last batch
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  const AugmentationPipeline aug = AugmentationPipeline::reference_image_pipeline();
  constexpr int kEpochs = 3;
  for (const bool prefetch : {false, true}) {
    for (const std::int64_t threads : {1, 4}) {
      parallel::set_num_threads(threads);
      std::vector<ImageBatch> restarted, fresh;
      Rng rng_a(61);
      ImageLoader kept(splits.train, 4, &aug, rng_a, /*drop_last=*/false, prefetch);
      for (int e = 0; e < kEpochs; ++e) {
        if (e > 0) kept.start_epoch();
        while (kept.has_next()) restarted.push_back(kept.next());
      }
      Rng rng_b(61);
      for (int e = 0; e < kEpochs; ++e) {
        ImageLoader loader(splits.train, 4, &aug, rng_b, /*drop_last=*/false, prefetch);
        while (loader.has_next()) fresh.push_back(loader.next());
      }
      ASSERT_EQ(fresh.size(), restarted.size());
      EXPECT_EQ(fresh.size(), static_cast<std::size_t>(kEpochs * 6));
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const ImageBatch& a = restarted[i];
        const ImageBatch& b = fresh[i];
        EXPECT_EQ(a.labels, b.labels) << "prefetch=" << prefetch << " threads=" << threads
                                      << " batch " << i;
        ASSERT_EQ(a.images.numel(), b.images.numel());
        EXPECT_EQ(std::memcmp(a.images.data(), b.images.data(),
                              static_cast<std::size_t>(a.images.numel()) * sizeof(float)),
                  0)
            << "prefetch=" << prefetch << " threads=" << threads << " batch " << i;
      }
      // Both sides drew the same number of values from their Rngs.
      EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
    }
  }
  parallel::set_num_threads(1);
}

TEST(Loader, ReshufflesBetweenEpochs) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 32;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(7);
  ImageLoader loader(splits.train, 32, nullptr, rng);
  const auto e1 = loader.next().labels;
  loader.start_epoch();
  const auto e2 = loader.next().labels;
  EXPECT_NE(e1, e2);  // astronomically unlikely to coincide
}

TEST(Loader, BatchTensorShape) {
  SyntheticImageDataset::Config cfg;
  cfg.train_size = 8;
  SyntheticImageDataset ds(cfg);
  ReformattedSplits splits = reformat(ds);
  Rng rng(8);
  ImageLoader loader(splits.train, 4, nullptr, rng);
  ImageBatch b = loader.next();
  EXPECT_EQ(b.images.shape(),
            (tensor::Shape{4, cfg.channels, cfg.height, cfg.width}));
}

TEST(DetectionData, BoxesMatchMasks) {
  SyntheticDetectionDataset ds({});
  for (std::int64_t i = 0; i < 10; ++i) {
    const auto& ex = ds.train(i);
    EXPECT_GE(ex.objects.size(), 1u);
    for (const auto& o : ex.objects) {
      EXPECT_GT(o.box.area(), 0.0f);
      EXPECT_GE(o.box.x1, 0.0f);
      EXPECT_LE(o.box.x2, 1.0f);
      // The mask must live inside the (slightly padded) box.
      const std::int64_t h = o.mask.shape()[0], w = o.mask.shape()[1];
      float mask_area = 0.0f;
      for (std::int64_t r = 0; r < h; ++r)
        for (std::int64_t c = 0; c < w; ++c) {
          if (o.mask.at({r, c}) < 0.5f) continue;
          mask_area += 1.0f;
          const float y = (static_cast<float>(r) + 0.5f) / static_cast<float>(h);
          const float x = (static_cast<float>(c) + 0.5f) / static_cast<float>(w);
          EXPECT_GE(y, o.box.y1 - 0.05f);
          EXPECT_LE(y, o.box.y2 + 0.05f);
          EXPECT_GE(x, o.box.x1 - 0.05f);
          EXPECT_LE(x, o.box.x2 + 0.05f);
        }
      EXPECT_GT(mask_area, 0.0f);
    }
  }
}

TEST(DetectionData, HorizontalFlipMirrorsImageBoxesAndMasks) {
  SyntheticDetectionDataset::Config cfg;
  cfg.train_size = 4;
  cfg.val_size = 1;
  SyntheticDetectionDataset ds(cfg);
  const DetectionExample& orig = ds.train(0);
  DetectionExample ex = orig;
  horizontal_flip(ex);
  const std::int64_t c = cfg.channels, h = cfg.height, w = cfg.width;
  for (std::int64_t ch = 0; ch < c; ++ch)
    for (std::int64_t i = 0; i < h; ++i)
      for (std::int64_t j = 0; j < w; ++j)
        ASSERT_EQ(ex.image.at({ch, i, j}), orig.image.at({ch, i, w - 1 - j}));
  ASSERT_EQ(ex.objects.size(), orig.objects.size());
  for (std::size_t k = 0; k < ex.objects.size(); ++k) {
    const GtObject& o = orig.objects[k];
    const GtObject& f = ex.objects[k];
    EXPECT_EQ(f.cls, o.cls);
    EXPECT_EQ(f.box.x1, 1.0f - o.box.x2);
    EXPECT_EQ(f.box.x2, 1.0f - o.box.x1);
    EXPECT_EQ(f.box.y1, o.box.y1);
    EXPECT_EQ(f.box.y2, o.box.y2);
    for (std::int64_t i = 0; i < h; ++i)
      for (std::int64_t j = 0; j < w; ++j)
        ASSERT_EQ(f.mask.at({i, j}), o.mask.at({i, w - 1 - j}));
  }
  horizontal_flip(ex);  // an involution on the pixels
  EXPECT_EQ(ex.image.vec(), orig.image.vec());
}

TEST(DetectionData, IouSelfIsOneDisjointIsZero) {
  Box a{0.1f, 0.1f, 0.5f, 0.5f};
  Box b{0.6f, 0.6f, 0.9f, 0.9f};
  EXPECT_FLOAT_EQ(iou(a, a), 1.0f);
  EXPECT_FLOAT_EQ(iou(a, b), 0.0f);
}

TEST(DetectionData, IouPartialOverlap) {
  Box a{0.0f, 0.0f, 0.5f, 0.5f};
  Box b{0.25f, 0.0f, 0.75f, 0.5f};
  // inter = 0.25*0.5 = 0.125; union = 0.25 + 0.25 - 0.125.
  EXPECT_NEAR(iou(a, b), 0.125f / 0.375f, 1e-5);
}

TEST(TranslationData, ReferenceMappingIsBijective) {
  SyntheticTranslationDataset ds({});
  std::set<std::int64_t> images;
  for (std::int64_t word = 0; word < ds.config().vocab; ++word) {
    TokenSeq one = {kFirstWord + word, kFirstWord + word};
    const TokenSeq t = ds.translate_reference(one);
    images.insert(t[0]);
  }
  EXPECT_EQ(static_cast<std::int64_t>(images.size()), ds.config().vocab);
}

TEST(TranslationData, ReorderRules) {
  SyntheticTranslationDataset::Config cfg;
  cfg.reorder = ReorderRule::kSwapAdjacent;
  SyntheticTranslationDataset swap_ds(cfg);
  cfg.reorder = ReorderRule::kNone;
  SyntheticTranslationDataset none_ds(cfg);
  TokenSeq src = {kFirstWord, kFirstWord + 1, kFirstWord + 2, kFirstWord + 3};
  const TokenSeq plain = none_ds.translate_reference(src);
  const TokenSeq swapped = swap_ds.translate_reference(src);
  EXPECT_EQ(plain[0], swapped[1]);
  EXPECT_EQ(plain[1], swapped[0]);
  EXPECT_EQ(plain[2], swapped[3]);
}

TEST(TranslationData, TargetsAreConsistentWithReference) {
  SyntheticTranslationDataset ds({});
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto& p = ds.train(i);
    EXPECT_EQ(p.target, ds.translate_reference(p.source));
  }
}

TEST(TranslationData, LengthsWithinConfig) {
  SyntheticTranslationDataset::Config cfg;
  cfg.min_len = 4;
  cfg.max_len = 7;
  SyntheticTranslationDataset ds(cfg);
  for (std::int64_t i = 0; i < ds.train_size(); ++i) {
    const auto len = static_cast<std::int64_t>(ds.train(i).source.size());
    EXPECT_GE(len, 4);
    EXPECT_LE(len, 7);
  }
}

TEST(TranslationData, BucketBatchesCoverEveryPairOnceInEqualLengthBatches) {
  SyntheticTranslationDataset::Config cfg;
  cfg.train_size = 50;
  SyntheticTranslationDataset ds(cfg);
  LengthBuckets buckets = length_buckets(ds, Split::kTrain);
  ASSERT_EQ(buckets.size(), static_cast<std::size_t>(cfg.max_len + 1));
  Rng rng(3);
  const std::int64_t batch_size = 4;
  std::multiset<std::int64_t> seen_tokens;
  std::size_t pairs = 0;
  for (const TranslationBatch& b : shuffled_bucket_batches(ds, buckets, batch_size, rng)) {
    ASSERT_FALSE(b.src.empty());
    ASSERT_LE(b.src.size(), static_cast<std::size_t>(batch_size));
    ASSERT_EQ(b.tgt_in.size(), b.src.size());
    std::size_t target_tokens = 0;
    for (std::size_t i = 0; i < b.src.size(); ++i) {
      EXPECT_EQ(b.src[i].size(), b.src[0].size());  // equal-length by construction
      EXPECT_EQ(b.tgt_in[i].front(), kBos);
      target_tokens += b.tgt_in[i].size();  // target + BOS == target + EOS
      seen_tokens.insert(b.src[i].begin(), b.src[i].end());
    }
    EXPECT_EQ(b.targets.size(), target_tokens);
    EXPECT_EQ(b.targets.back(), kEos);
    pairs += b.src.size();
  }
  EXPECT_EQ(pairs, static_cast<std::size_t>(ds.train_size()));
  std::multiset<std::int64_t> all_tokens;
  for (std::int64_t i = 0; i < ds.train_size(); ++i)
    all_tokens.insert(ds.train(i).source.begin(), ds.train(i).source.end());
  EXPECT_EQ(seen_tokens, all_tokens);
}

TEST(RecsysData, HoldoutDisjointFromTraining) {
  ImplicitCfDataset ds({});
  for (const auto& inter : ds.train_interactions())
    EXPECT_NE(inter.item, ds.holdout()[static_cast<std::size_t>(inter.user)])
        << "user " << inter.user;
}

TEST(RecsysData, EvalCandidatesStartWithHoldout) {
  ImplicitCfDataset ds({});
  for (std::int64_t u = 0; u < ds.num_users(); ++u) {
    const auto& cand = ds.eval_candidates()[static_cast<std::size_t>(u)];
    EXPECT_EQ(cand[0], ds.holdout()[static_cast<std::size_t>(u)]);
    EXPECT_EQ(static_cast<std::int64_t>(cand.size()), ds.config().num_eval_negatives + 1);
    // Negatives are not positives.
    for (std::size_t i = 1; i < cand.size(); ++i) EXPECT_FALSE(ds.is_positive(u, cand[i]));
  }
}

TEST(RecsysData, NegativeSamplerAvoidsPositives) {
  ImplicitCfDataset ds({});
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t item = ds.sample_negative(0, rng);
    EXPECT_FALSE(ds.is_positive(0, item));
  }
}

TEST(RecsysData, PopularitySkewExists) {
  // Heavy-tailed item popularity: the top decile of items (by interaction
  // count) must hold well over its proportional share of interactions — the
  // embedding-access characteristic the paper says makes recommendation
  // datasets representative (§3.1.5).
  ImplicitCfDataset::Config cfg;
  cfg.num_users = 128;
  ImplicitCfDataset ds(cfg);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(cfg.num_items), 0);
  for (const auto& i : ds.train_interactions()) ++counts[static_cast<std::size_t>(i.item)];
  std::sort(counts.rbegin(), counts.rend());
  const std::size_t decile = static_cast<std::size_t>(cfg.num_items) / 10;
  std::int64_t top = 0, total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < decile) top += counts[i];
  }
  const double top_share = static_cast<double>(top) / static_cast<double>(total);
  EXPECT_GT(top_share, 1.5 * 0.10);
}

TEST(RecsysData, TooFewInteractionsThrows) {
  ImplicitCfDataset::Config cfg;
  cfg.interactions_per_user = 1;
  EXPECT_THROW(ImplicitCfDataset{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mlperf::data
