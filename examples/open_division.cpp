// Open-division example (paper §4.2.1): the Open division exists to encourage
// innovative solutions — different model architectures, optimizers and data
// processing — as long as the dataset and quality metric stay fixed. Here we
// define a custom workload (a plain CNN trained with Adam and a different
// augmentation order) for the image-classification task, show that Closed-
// division review correctly REJECTS it, and that Open review accepts it.
#include <cstdio>
#include <memory>

#include "core/review.h"
#include "data/loader.h"
#include "harness/run.h"
#include "metrics/metrics.h"
#include "models/workload.h"
#include "nn/layers.h"
#include "optim/optimizer.h"

using namespace mlperf;

namespace {

/// A deliberately non-reference model: plain 2-conv CNN + Adam + reordered
/// augmentation. Same dataset, same top-1 metric — Open-division legal.
class CustomCnnWorkload : public models::Workload {
 public:
  CustomCnnWorkload() : dataset_(data::SyntheticImageDataset::Config{}), rng_(1) {
    augment_.add(std::make_unique<data::RandomHorizontalFlip>(0.5f))
        .add(std::make_unique<data::RandomCrop>(2));  // flipped order vs reference
  }

  std::string name() const override { return "image_classification"; }

  void prepare_data() override { splits_ = data::reformat(dataset_); }

  void build_model(std::uint64_t seed) override {
    rng_ = tensor::Rng(seed);
    tensor::Rng init = rng_.split();
    conv1_ = std::make_unique<nn::Conv2d>(3, 16, 3, 1, 1, init, true);
    conv2_ = std::make_unique<nn::Conv2d>(16, 32, 3, 2, 1, init, true);
    conv3_ = std::make_unique<nn::Conv2d>(32, 32, 3, 2, 1, init, true);
    fc_ = std::make_unique<nn::Linear>(32, 10, init);
    std::vector<autograd::Variable> params;
    for (auto* m :
         {static_cast<nn::Module*>(conv1_.get()), static_cast<nn::Module*>(conv2_.get()),
          static_cast<nn::Module*>(conv3_.get()), static_cast<nn::Module*>(fc_.get())})
      for (auto& p : m->parameters()) params.push_back(p);
    optimizer_ = std::make_unique<optim::Adam>(params);
  }

  autograd::Variable forward(const tensor::Tensor& images) {
    using namespace autograd;
    Variable x = relu(conv1_->forward(Variable(images)));
    x = relu(conv2_->forward(x));
    x = relu(conv3_->forward(x));
    return fc_->forward(nn::global_avg_pool(x));
  }

  void train_epoch() override {
    data::ImageLoader loader(splits_.train, 32, &augment_, rng_);
    while (loader.has_next()) {
      models::train_step(*optimizer_, {.lr = 2e-3f}, [&] {
        data::ImageBatch batch = loader.next();
        return nn::cross_entropy(forward(batch.images), batch.labels);
      });
    }
  }

  double evaluate() override {
    tensor::Rng eval_rng(0);
    data::ImageLoader loader(splits_.val, 64, nullptr, eval_rng);
    std::vector<std::int64_t> preds, targets;
    while (loader.has_next()) {
      data::ImageBatch batch = loader.next();
      for (auto p : forward(batch.images).value().argmax_last()) preds.push_back(p);
      targets.insert(targets.end(), batch.labels.begin(), batch.labels.end());
    }
    return metrics::top1_accuracy(preds, targets);
  }

  std::map<std::string, double> hyperparameters() const override {
    return {{"global_batch_size", 32.0}, {"learning_rate", 2e-3}};
  }
  std::int64_t global_batch_size() const override { return 32; }
  std::string model_signature() const override { return "custom-plain-cnn"; }
  std::string optimizer_name() const override { return "adam"; }
  std::string augmentation_signature() const override { return augment_.signature(); }

 private:
  data::SyntheticImageDataset dataset_;
  data::ReformattedSplits splits_;
  data::AugmentationPipeline augment_;
  std::unique_ptr<nn::Conv2d> conv1_, conv2_, conv3_;
  std::unique_ptr<nn::Linear> fc_;
  std::unique_ptr<optim::Adam> optimizer_;
  tensor::Rng rng_;
};

}  // namespace

int main() {
  const core::SuiteVersion suite = core::suite_v05();
  const auto& spec = core::find_spec(suite, core::BenchmarkId::kImageClassification);

  std::printf("training a custom (non-reference) model on the same task...\n");
  core::BenchmarkEntry entry;
  entry.benchmark = spec.id;
  harness::RunOptions opts;
  opts.seed = 11;
  opts.max_epochs = 40;
  const auto outcomes = harness::run_protocol([] { return std::make_unique<CustomCnnWorkload>(); },
                                              spec.mini_quality, opts,
                                              spec.aggregation.required_runs);
  {
    CustomCnnWorkload probe;
    entry.optimizer_name = probe.optimizer_name();
    entry.model_signature = probe.model_signature();
    entry.augmentation_signature = probe.augmentation_signature();
    for (const auto& [k, v] : probe.hyperparameters()) entry.hyperparameters[k] = v;
  }
  for (const auto& out : outcomes) {
    std::printf("  seed %.0f: %s = %.3f in %lld epochs\n",
                out.log.find(core::keys::kSeed)->as_number(), spec.mini_quality.name.c_str(),
                out.final_quality, static_cast<long long>(out.epochs));
    entry.runs.push_back(harness::to_run_result(out));
  }

  std::printf("\nClosed-division review of the custom entry (must fail — wrong model,\n");
  std::printf("wrong optimizer, reordered augmentation):\n");
  const auto closed =
      core::review_entry(entry, suite, core::Division::kClosed, 20.0 * 60e3);
  std::printf("%s", closed.to_string().c_str());

  std::printf("\nOpen-division review of the same entry (architecture freedom, §4.2.1):\n");
  const auto open = core::review_entry(entry, suite, core::Division::kOpen, 20.0 * 60e3);
  std::printf("%s", open.to_string().c_str());
  return open.compliant() && !closed.compliant() ? 0 : 1;
}
