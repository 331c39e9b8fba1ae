#include "data/translation.h"

#include <algorithm>
#include <stdexcept>

namespace mlperf::data {

using tensor::Rng;

SyntheticTranslationDataset::SyntheticTranslationDataset(const Config& config)
    : config_(config) {
  if (config_.min_len < 2 || config_.max_len < config_.min_len)
    throw std::invalid_argument("SyntheticTranslationDataset: bad length range");
  Rng map_rng(config_.seed ^ 0x7A6513A7ULL);
  mapping_.resize(static_cast<std::size_t>(config_.vocab));
  for (std::int64_t i = 0; i < config_.vocab; ++i) mapping_[static_cast<std::size_t>(i)] = i;
  map_rng.shuffle(mapping_);

  Rng rng(config_.seed ^ 0x77A15EEDULL);
  train_.reserve(static_cast<std::size_t>(config_.train_size));
  for (std::int64_t i = 0; i < config_.train_size; ++i) train_.push_back(make_pair(rng));
  val_.reserve(static_cast<std::size_t>(config_.val_size));
  for (std::int64_t i = 0; i < config_.val_size; ++i) val_.push_back(make_pair(rng));
}

TokenSeq SyntheticTranslationDataset::translate_reference(const TokenSeq& source) const {
  // 1) map each word through the bijection; 2) apply the reordering rule.
  TokenSeq out;
  out.reserve(source.size());
  for (std::int64_t tok : source) {
    const std::int64_t word = tok - kFirstWord;
    if (word < 0 || word >= config_.vocab)
      throw std::out_of_range("translate_reference: token out of range");
    out.push_back(mapping_[static_cast<std::size_t>(word)] + kFirstWord);
  }
  for (std::size_t i = 0; i + 1 < out.size(); i += 2) {
    switch (config_.reorder) {
      case ReorderRule::kNone:
        break;
      case ReorderRule::kSwapAdjacent:
        std::swap(out[i], out[i + 1]);
        break;
      case ReorderRule::kConditional:
        if ((source[i] - kFirstWord) % 2 == 0) std::swap(out[i], out[i + 1]);
        break;
    }
  }
  return out;
}

SentencePair SyntheticTranslationDataset::make_pair(Rng& rng) const {
  const std::int64_t len =
      config_.min_len + static_cast<std::int64_t>(rng.randint(
                            static_cast<std::uint64_t>(config_.max_len - config_.min_len + 1)));
  SentencePair p;
  p.source.reserve(static_cast<std::size_t>(len));
  for (std::int64_t i = 0; i < len; ++i)
    p.source.push_back(kFirstWord + static_cast<std::int64_t>(rng.randint(
                                        static_cast<std::uint64_t>(config_.vocab))));
  p.target = translate_reference(p.source);
  return p;
}

LengthBuckets length_buckets(const SyntheticTranslationDataset& dataset, Split split) {
  const bool train = split == Split::kTrain;
  LengthBuckets buckets(static_cast<std::size_t>(dataset.config().max_len + 1));
  const std::int64_t n = train ? dataset.train_size() : dataset.val_size();
  for (std::int64_t i = 0; i < n; ++i)
    buckets[(train ? dataset.train(i) : dataset.val(i)).source.size()].push_back(i);
  return buckets;
}

std::vector<TranslationBatch> shuffled_bucket_batches(const SyntheticTranslationDataset& dataset,
                                                      LengthBuckets& buckets,
                                                      std::int64_t batch_size, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> plan;  // (bucket, offset)
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    rng.shuffle(buckets[b]);
    for (std::size_t off = 0; off < buckets[b].size(); off += static_cast<std::size_t>(batch_size))
      plan.emplace_back(b, off);
  }
  rng.shuffle(plan);
  std::vector<TranslationBatch> batches(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::vector<std::int64_t>& bucket = buckets[plan[i].first];
    const std::size_t end =
        std::min(plan[i].second + static_cast<std::size_t>(batch_size), bucket.size());
    for (std::size_t k = plan[i].second; k < end; ++k) {
      const SentencePair& pair = dataset.train(bucket[k]);
      batches[i].src.push_back(pair.source);
      TokenSeq in{kBos};
      in.insert(in.end(), pair.target.begin(), pair.target.end());
      batches[i].tgt_in.push_back(std::move(in));
      batches[i].targets.insert(batches[i].targets.end(), pair.target.begin(), pair.target.end());
      batches[i].targets.push_back(kEos);
    }
  }
  return batches;
}

}  // namespace mlperf::data
