// Scale study with REAL training on a virtual clock: the §2.2.2 trade-off
// end-to-end. The ResNet mini workload is trained data-parallel (real sharded
// gradients + ordered all-reduce) at increasing worker counts with a fixed
// per-worker batch, while a ManualClock is advanced by the modeled
// synchronous step time (compute + interconnect all-reduce). Reported:
// epochs-to-target (grows with the global batch) and simulated time-to-train
// (falls with parallelism, until epoch inflation and communication eat the
// gains) — the full mechanism behind Figures 4/5, driven by actual learning
// dynamics instead of the closed-form sysim curve.
#include <cstdio>
#include <vector>

#include "data/loader.h"
#include "metrics/metrics.h"
#include "models/resnet.h"
#include "nn/functional.h"
#include "sysim/data_parallel.h"

using namespace mlperf;

int main() {
  const double target = 0.75;
  const std::int64_t per_worker_batch = 16;
  const std::int64_t max_epochs = 30;

  std::printf("Data-parallel scale study (real training, virtual clock)\n");
  std::printf("per-worker batch %lld, target top-1 %.2f\n\n",
              static_cast<long long>(per_worker_batch), target);
  std::printf("%-10s %12s %10s %14s %16s\n", "workers", "global batch", "epochs",
              "sim step (ms)", "sim TTT (s)");

  const sysim::ChipProfile chip = sysim::accelerator_2019();
  const sysim::Interconnect net = sysim::cluster_interconnect();
  const sysim::SoftwareStack stack = sysim::stack_v05();

  for (std::int64_t workers : {1, 2, 4, 8, 16}) {
    const std::int64_t global_batch = workers * per_worker_batch;

    data::SyntheticImageDataset dataset({});
    data::ReformattedSplits splits = data::reformat(dataset);
    tensor::Rng rng(42);
    tensor::Rng init_rng = rng.split();
    models::ResNetMini model({}, init_rng);
    std::vector<autograd::Variable> params = model.parameters();
    optim::SgdMomentum opt(params, 0.9f, 5e-4f);
    // Linear-scaling rule so larger global batches stay convergent.
    const std::int64_t steps_per_epoch =
        (dataset.train_size() + global_batch - 1) / global_batch;
    optim::LinearScalingWarmupLr schedule(0.08f, global_batch, 32, 10, 0.6f,
                                          4 * steps_per_epoch);
    data::AugmentationPipeline augment =
        data::AugmentationPipeline::reference_image_pipeline();

    tensor::Rng dp_rng(7);
    sysim::DataParallelStep::Config cfg;
    cfg.num_workers = workers;
    cfg.reduction_order = sysim::ReductionOrder::kPermuted;
    cfg.chip = &chip;
    cfg.interconnect = &net;
    cfg.stack = &stack;
    cfg.flops_per_sample = 12e9 / 1000.0;  // mini model ~ 1/1000th of ResNet-50
    sysim::DataParallelStep dp(cfg, dp_rng);

    core::ManualClock clock;
    std::int64_t step_idx = 0;
    std::int64_t epochs_used = 0;
    double last_step_s = 0.0;
    double accuracy = 0.0;
    for (std::int64_t epoch = 0; epoch < max_epochs; ++epoch) {
      model.set_training(true);
      data::ImageLoader loader(splits.train, global_batch, &augment, rng,
                               /*drop_last=*/true);
      while (loader.has_next()) {
        data::ImageBatch batch = loader.next();
        last_step_s = dp.step(
            global_batch,
            [&](std::int64_t b, std::int64_t e) {
              model.zero_grad();
              tensor::Tensor shard = batch.images.slice(0, b, e);
              std::vector<std::int64_t> labels(batch.labels.begin() + b,
                                               batch.labels.begin() + e);
              autograd::Variable loss =
                  nn::cross_entropy(model.forward(autograd::Variable(shard)), labels);
              autograd::mul_scalar(loss, static_cast<float>(e - b)).backward();
              std::vector<tensor::Tensor> grads;
              for (const auto& p : params) grads.push_back(p.grad());
              return grads;
            },
            params, &clock);
        opt.step(schedule.lr(step_idx++));
      }
      epochs_used = epoch + 1;
      // Evaluate.
      model.set_training(false);
      tensor::Rng eval_rng(0);
      data::ImageLoader eval(splits.val, 64, nullptr, eval_rng);
      std::vector<std::int64_t> preds, targets;
      while (eval.has_next()) {
        data::ImageBatch b = eval.next();
        for (auto p : model.forward(autograd::Variable(b.images)).value().argmax_last())
          preds.push_back(p);
        targets.insert(targets.end(), b.labels.begin(), b.labels.end());
      }
      accuracy = metrics::top1_accuracy(preds, targets);
      if (accuracy >= target) break;
    }
    std::printf("%-10lld %12lld %10lld %14.2f %16.2f%s\n", static_cast<long long>(workers),
                static_cast<long long>(global_batch), static_cast<long long>(epochs_used),
                last_step_s * 1e3, clock.now_ms() / 1e3,
                accuracy >= target ? "" : "  [missed]");
    std::fflush(stdout);
  }
  std::printf("\nepochs grow with the global batch (the paper's §2.2.2 effect, here from\n");
  std::printf("real learning dynamics); simulated TTT improves with workers until epoch\n");
  std::printf("inflation and all-reduce cost absorb the parallelism.\n");
  return 0;
}
