#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.h"

namespace mlperf::checkpoint {
class ByteWriter;
class ByteReader;
}  // namespace mlperf::checkpoint

namespace mlperf::data {

/// Token ids. Reserved: 0 = PAD, 1 = BOS, 2 = EOS; "words" start at 3.
using TokenSeq = std::vector<std::int64_t>;

inline constexpr std::int64_t kPad = 0;
inline constexpr std::int64_t kBos = 1;
inline constexpr std::int64_t kEos = 2;
inline constexpr std::int64_t kFirstWord = 3;

struct SentencePair {
  TokenSeq source;  ///< no BOS/EOS
  TokenSeq target;  ///< no BOS/EOS; add via helpers at batch time
};

/// How the synthetic language pair reorders tokens after the vocabulary map.
enum class ReorderRule {
  kNone,         ///< pure token-wise mapping (easiest)
  kSwapAdjacent, ///< every adjacent pair swaps (fixed positional reordering)
  kConditional,  ///< a pair swaps iff its first source word id is even
};

/// Synthetic stand-in for WMT EN-DE (see DESIGN.md substitution table).
///
/// The "language pair" is a deterministic vocabulary bijection plus a local
/// reordering rule — a task a seq2seq model genuinely must *learn* (copying
/// alone scores poorly on BLEU), while remaining learnable at mini scale. The
/// default kSwapAdjacent rule gives reliable convergence in tens of seconds;
/// kConditional (reordering depends on token identity) is substantially
/// harder and is used by the difficulty ablation. The held-out set plays the
/// role of newstest2014.
class SyntheticTranslationDataset {
 public:
  struct Config {
    std::int64_t vocab = 32;        ///< word vocabulary (excludes specials)
    std::int64_t min_len = 4;
    std::int64_t max_len = 10;
    std::int64_t train_size = 384;
    std::int64_t val_size = 96;
    ReorderRule reorder = ReorderRule::kNone;
    std::uint64_t seed = 2020;
  };

  explicit SyntheticTranslationDataset(const Config& config);

  const Config& config() const { return config_; }
  std::int64_t train_size() const { return static_cast<std::int64_t>(train_.size()); }
  std::int64_t val_size() const { return static_cast<std::int64_t>(val_.size()); }
  const SentencePair& train(std::int64_t i) const { return train_.at(static_cast<std::size_t>(i)); }
  const SentencePair& val(std::int64_t i) const { return val_.at(static_cast<std::size_t>(i)); }

  /// The ground-truth transduction (for tests and for oracle BLEU).
  TokenSeq translate_reference(const TokenSeq& source) const;

 private:
  SentencePair make_pair(tensor::Rng& rng) const;

  Config config_;
  std::vector<std::int64_t> mapping_;  // bijection over word ids
  std::vector<SentencePair> train_;
  std::vector<SentencePair> val_;
};

enum class Split { kTrain, kVal };

/// Pair indices of one split grouped by source length: bucket L lists, in
/// index order, the pairs whose source has L tokens. Batches drawn from one
/// bucket are equal-length, which batched encode/decode needs.
using LengthBuckets = std::vector<std::vector<std::int64_t>>;
LengthBuckets length_buckets(const SyntheticTranslationDataset& dataset, Split split);

/// Checkpoint payload for training buckets: shuffled_bucket_batches shuffles
/// them in place, so their order carries from one epoch into the next.
void write_length_buckets(checkpoint::ByteWriter& out, const LengthBuckets& buckets);
/// Reads the whole payload into `buckets`. Strict: the payload must hold as
/// many buckets as `buckets`, each with the same indices (in any order), and
/// nothing else; otherwise checkpoint::CheckpointError and `buckets` is left
/// as it was.
void read_length_buckets(checkpoint::ByteReader& in, LengthBuckets& buckets);

/// One equal-length teacher-forcing batch: sources, decoder inputs (BOS +
/// target) and the flat next-token targets (each target followed by EOS).
struct TranslationBatch {
  std::vector<TokenSeq> src;
  std::vector<TokenSeq> tgt_in;
  std::vector<std::int64_t> targets;
};

/// One epoch of training batches of up to `batch_size` pairs, each drawn from
/// one of `buckets` (the training split's). Shuffles every bucket in place,
/// then the order of the batches, all from `rng` in that order.
std::vector<TranslationBatch> shuffled_bucket_batches(const SyntheticTranslationDataset& dataset,
                                                      LengthBuckets& buckets,
                                                      std::int64_t batch_size, tensor::Rng& rng);

}  // namespace mlperf::data
