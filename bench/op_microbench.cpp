// DeepBench-style kernel microbenchmarks (paper §2.3 background): the
// operations that dominate the suite's workloads, measured with
// google-benchmark. The paper's point — and the reason MLPerf is NOT a
// microbenchmark — is that these numbers say nothing about end-to-end
// time-to-quality; they are included as the baseline the suite improves on.
//
// Run with --benchmark_format=json to get machine-readable output; the
// custom main below stamps the kernel configuration into the JSON context.
// BENCH_kernels.json at the repo root is the checked-in before/after
// snapshot of the packed-GEMM change at the ResNet and Transformer shapes
// (the *Ref benchmarks here regenerate the "before" side from the retained
// scalar kernel).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "checkpoint/format.h"
#include "checkpoint/state.h"
#include "go/board.h"
#include "harness/reference.h"
#include "models/gnmt.h"
#include "models/ncf.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "models/workload.h"
#include "nn/functional.h"
#include "nn/layers.h"
#include "parallel/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

using namespace mlperf;
using tensor::Rng;
using tensor::Tensor;

static void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The retained pre-PR2 scalar kernel at the same square sizes: the "before"
// row of BENCH_kernels.json, regenerable from this binary forever.
static void BM_GemmRef(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    std::fill(c.vec().begin(), c.vec().end(), 0.0f);
    tensor::gemm_accumulate_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(256);

// Rectangular GEMMs at the suite's workload shapes. Args are {m, k, n}.
// resnet: the im2col GEMM of a 3x3 conv on a 16x16 plane at 32 channels
// (weight [32, 288] x columns [288, 256]) — the per-sample product inside
// BM_Conv2dForward/32. transformer: the reference Transformer's batch 16 at
// sequence length 10 is 160 tokens of model_dim 32; its FFN up-projection is
// [160, 32] x [32, 64] and each attention projection [160, 32] x [32, 32].
// minigo: the batch-1 tower conv of PolicyValueNet::infer, weight
// [16, 144] x columns [144, 81] on the 9x9 board.
static void gemm_shape_body(benchmark::State& state, bool use_ref) {
  const std::int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(11);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  for (auto _ : state) {
    std::fill(c.vec().begin(), c.vec().end(), 0.0f);
    if (use_ref)
      tensor::gemm_accumulate_ref(a.data(), b.data(), c.data(), m, k, n);
    else
      tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::N, m, n, k, a.data(), k, b.data(),
                              n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
static void BM_GemmShape(benchmark::State& state) { gemm_shape_body(state, false); }
static void BM_GemmShapeRef(benchmark::State& state) { gemm_shape_body(state, true); }
BENCHMARK(BM_GemmShape)
    ->ArgNames({"m", "k", "n"})
    ->Args({32, 288, 256})  // resnet conv-as-GEMM
    ->Args({160, 32, 64})   // transformer FFN up-projection
    ->Args({160, 32, 32})   // transformer attention projection
    ->Args({16, 144, 81});  // minigo batch-1 conv-as-GEMM
BENCHMARK(BM_GemmShapeRef)
    ->ArgNames({"m", "k", "n"})
    ->Args({32, 288, 256})
    ->Args({160, 32, 64})
    ->Args({160, 32, 32})
    ->Args({16, 144, 81});

// Batched matmul at the attention shape of the reference Transformer (batch
// 16 x 2 heads, sequence length 10, head dim 16): scores = Q K^T through the
// transposed-B variant, exactly as MultiHeadAttention issues it.
static void BM_BmmAttention(benchmark::State& state) {
  const std::int64_t bh = 32, t = 10, dh = 16;
  Rng rng(12);
  Tensor q = Tensor::randn({bh, t, dh}, rng);
  Tensor k = Tensor::randn({bh, t, dh}, rng);
  for (auto _ : state) {
    Tensor s = q.bmm(k, tensor::Trans::N, tensor::Trans::T);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * bh * t * t * dh);
}
BENCHMARK(BM_BmmAttention);

static void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  autograd::Variable vx(x), vw(w);
  for (auto _ : state) {
    auto y = nn::conv2d(vx, vw, autograd::Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// Dispatch cost of parallel_for itself: an empty body over 4 items, i.e. one
// fork-join job of min(4, range(0)) parts. Thread count 1 is the inline path.
// Wall time, since the workers' share of a job is not on the caller's CPU
// clock.
static void BM_ParallelForDispatch(benchmark::State& state) {
  parallel::set_num_threads(state.range(0));
  for (auto _ : state) parallel::parallel_for(1, 4, [](std::int64_t, std::int64_t) {});
  parallel::set_num_threads(1);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Threaded variants: same kernels through the parallel_for partitioner with
// range(1) threads, the caller included. The output is bitwise identical
// across the thread counts (asserted in tests/test_parallel.cpp); only the
// wall time may move. Thread count 1 keeps the pool absent, i.e. the inline
// path above. Timed in wall time: items_per_second over the caller's CPU time
// alone would overstate the throughput.
static void BM_GemmThreaded(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  parallel::set_num_threads(1);
}
BENCHMARK(BM_GemmThreaded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime();

static void BM_Conv2dForwardThreaded(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  parallel::set_num_threads(state.range(1));
  Rng rng(2);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  autograd::Variable vx(x), vw(w);
  for (auto _ : state) {
    auto y = nn::conv2d(vx, vw, autograd::Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
  parallel::set_num_threads(1);
}
BENCHMARK(BM_Conv2dForwardThreaded)
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4})
    ->UseRealTime();

static void BM_Conv2dTrainStep(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  for (auto _ : state) {
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    autograd::sum_all(y).backward();
    benchmark::DoNotOptimize(vw.grad().data());
  }
}
BENCHMARK(BM_Conv2dTrainStep)->Arg(8)->Arg(16);

// The weight-gradient pass in isolation (forward excluded via PauseTiming):
// the gemm_f64acc + pack-cache target of PR 5, previously a naive unblocked
// double dot-product loop plus a per-sample im2col re-pack.
static void BM_Conv2dDw(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Rng rng(13);
  Tensor x = Tensor::randn({4, c, 16, 16}, rng);
  Tensor w = Tensor::randn({c, c, 3, 3}, rng);
  for (auto _ : state) {
    state.PauseTiming();
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    Tensor seed(y.shape(), 1.0f);
    state.ResumeTiming();
    y.backward(seed);
    benchmark::DoNotOptimize(vw.grad().data());
  }
}
BENCHMARK(BM_Conv2dDw)->Arg(8)->Arg(16);

// Full conv train step through the step-scoped im2col pack cache. Doubles as
// the CI smoke check of the cache contract: the run errors out unless
// im2col_calls() advanced by exactly one sweep per step.
static void BM_Im2colPackCache(benchmark::State& state) {
  Rng rng(14);
  Tensor x = Tensor::randn({4, 8, 16, 16}, rng);
  Tensor w = Tensor::randn({8, 8, 3, 3}, rng);
  std::int64_t steps = 0;
  const std::int64_t calls0 = nn::im2col_calls();
  for (auto _ : state) {
    autograd::Variable vw(w, true);
    auto y = nn::conv2d(autograd::Variable(x), vw, autograd::Variable(), 1, 1);
    autograd::sum_all(y).backward();
    benchmark::DoNotOptimize(vw.grad().data());
    ++steps;
  }
  if (nn::im2col_calls() - calls0 != steps)
    state.SkipWithError("im2col_calls() violates the pack-cache contract");
}
BENCHMARK(BM_Im2colPackCache);

// One MCTS expansion's two costs outside the GEMM, at MiniGo's 9x9 shapes.
// BM_LegalMoves: go::Board::legal_moves() on a mid-game position (a seeded
// 24-move random opening; `legal` reports how many moves it lists).
static void BM_LegalMoves(benchmark::State& state) {
  go::Board board(9, 5.5f);
  Rng rng(7);
  for (int ply = 0; ply < 24; ++ply) {
    auto moves = board.legal_moves();
    moves.pop_back();  // pass is always last: keep the opening on the board
    board.play(moves[static_cast<std::size_t>(rng.randint(moves.size()))]);
  }
  std::size_t legal = 0;
  for (auto _ : state) {
    const auto moves = board.legal_moves();
    legal = moves.size();
    benchmark::DoNotOptimize(moves.data());
  }
  state.counters["legal"] = static_cast<double>(legal);
}
BENCHMARK(BM_LegalMoves);

// BM_Conv2dForwardBatch1: the residual-tower conv of PolicyValueNet::infer
// ([1, 16, 9, 9], 16 filters, 3x3, pad 1) under NoGradGuard, as MCTS runs it.
static void BM_Conv2dForwardBatch1(benchmark::State& state) {
  Rng rng(15);
  Tensor x = Tensor::randn({1, 16, 9, 9}, rng);
  Tensor w = Tensor::randn({16, 16, 3, 3}, rng);
  autograd::NoGradGuard no_grad;
  autograd::Variable vx(x), vw(w);
  for (auto _ : state) {
    auto y = nn::conv2d(vx, vw, autograd::Variable(), 1, 1);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv2dForwardBatch1);

// BM_Col2im: the input-gradient pass (W^T g GEMM, then col2im) of the same
// conv at a training batch of 8, forward excluded via PauseTiming.
static void BM_Col2im(benchmark::State& state) {
  Rng rng(16);
  Tensor x = Tensor::randn({8, 16, 9, 9}, rng);
  Tensor w = Tensor::randn({16, 16, 3, 3}, rng);
  for (auto _ : state) {
    state.PauseTiming();
    autograd::Variable vx(x, true);
    auto y = nn::conv2d(vx, autograd::Variable(w), autograd::Variable(), 1, 1);
    Tensor seed(y.shape(), 1.0f);
    state.ResumeTiming();
    y.backward(seed);
    benchmark::DoNotOptimize(vx.grad().data());
  }
}
BENCHMARK(BM_Col2im);

// Attention's softmax: the fused scale+mask+softmax node vs the three-node
// chain it replaced (bitwise-identical outputs; this pair measures the win).
static void BM_FusedScaledSoftmax(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  Rng rng(15);
  Tensor scores = Tensor::randn({16, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  for (auto _ : state) {
    auto y = nn::fused_scaled_softmax(autograd::Variable(scores), 0.125f, mask);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_FusedScaledSoftmax)->Arg(32)->Arg(64);

static void BM_ScaledSoftmaxUnfusedRef(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  Rng rng(15);
  Tensor scores = Tensor::randn({16, t, t}, rng);
  Tensor mask = Tensor::uninitialized({t, t});
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < t; ++j) mask[i * t + j] = j > i ? -1e9f : 0.0f;
  for (auto _ : state) {
    auto s = autograd::mul_scalar(autograd::Variable(scores), 0.125f);
    s = autograd::add(s, autograd::Variable(mask));
    auto y = autograd::softmax_last(s);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_ScaledSoftmaxUnfusedRef)->Arg(32)->Arg(64);

static void BM_SoftmaxLast(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::randn({256, state.range(0)}, rng);
  for (auto _ : state) {
    Tensor y = x.softmax_last();
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLast)->Arg(128)->Arg(1024);

static void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(5);
  nn::BatchNorm2d bn(16);
  Tensor x = Tensor::randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    auto y = bn.forward(autograd::Variable(x));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_BatchNormForward);

static void BM_Attention(benchmark::State& state) {
  Rng rng(6);
  nn::MultiHeadAttention mha(64, 4, rng);
  autograd::Variable x(Tensor::randn({4, state.range(0), 64}, rng));
  for (auto _ : state) {
    auto y = mha.forward(x, x, x);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Attention)->Arg(8)->Arg(32);

static void BM_LstmCell(benchmark::State& state) {
  Rng rng(7);
  nn::LSTMCell cell(64, 64, rng);
  auto s = cell.zero_state(16);
  autograd::Variable x(Tensor::randn({16, 64}, rng));
  for (auto _ : state) {
    auto next = cell.forward(x, s);
    benchmark::DoNotOptimize(next.h.value().data());
  }
}
BENCHMARK(BM_LstmCell);

// --- End-to-end train steps (BENCH_trainstep.json regenerates from these) ---
// One complete training step per iteration — forward, loss, zero_grad,
// backward, optimizer update, through the models::train_step the workloads
// run — for four of the suite's reference models.
// These are the numbers the tensor-pool / fused-update work moves: the
// kernels themselves were PR 1/2; what remains per step is the allocation
// and bookkeeping around them.

static void BM_TrainStepResnet(benchmark::State& state) {
  Rng rng(21);
  tensor::Rng init_rng(7);
  models::ResNetMini::Config cfg;  // defaults: 2 stages {8,16}, expansion 2
  models::ResNetMini model(cfg, init_rng);
  optim::SgdMomentum opt(model.parameters(), 0.9f, 5e-4f);
  const std::int64_t batch = 8;
  Tensor images = Tensor::randn({batch, cfg.in_channels, 16, 16}, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int64_t>(i) % cfg.num_classes;
  for (auto _ : state) {
    auto loss = models::train_step(opt, {.lr = 0.01f}, [&] {
      return nn::cross_entropy(model.forward(autograd::Variable(images)), labels);
    });
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepResnet);

static void BM_TrainStepNcf(benchmark::State& state) {
  tensor::Rng init_rng(8);
  models::NeuMf::Config cfg;  // defaults: 64 users, 128 items
  models::NeuMf model(cfg, init_rng);
  optim::Adam opt(model.parameters());
  const std::int64_t batch = 256;
  std::vector<std::int64_t> users, items;
  std::vector<float> labels;
  for (std::int64_t i = 0; i < batch; ++i) {
    users.push_back(i % cfg.num_users);
    items.push_back((i * 7) % cfg.num_items);
    labels.push_back(i % 5 == 0 ? 1.0f : 0.0f);
  }
  for (auto _ : state) {
    auto loss = models::train_step(opt, {.lr = 0.002f}, [&] {
      return nn::bce_with_logits(model.forward(users, items), labels);
    });
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepNcf);

static void BM_TrainStepTransformer(benchmark::State& state) {
  tensor::Rng init_rng(9);
  models::TransformerModel::Config cfg;  // defaults: dim 32, 2+2 blocks
  models::TransformerModel model(cfg, init_rng);
  optim::Adam opt(model.parameters());
  const std::int64_t batch = 8, seq = 12;
  std::vector<data::TokenSeq> src, tgt_in;
  std::vector<std::int64_t> targets;
  for (std::int64_t b = 0; b < batch; ++b) {
    data::TokenSeq s, t{data::kBos};
    for (std::int64_t i = 0; i < seq; ++i) {
      s.push_back(data::kFirstWord + (b * 3 + i) % (cfg.vocab - data::kFirstWord));
      const std::int64_t tok = data::kFirstWord + (b * 5 + i) % (cfg.vocab - data::kFirstWord);
      t.push_back(tok);
      targets.push_back(tok);
    }
    targets.push_back(data::kEos);
    src.push_back(std::move(s));
    tgt_in.push_back(std::move(t));
  }
  for (auto _ : state) {
    auto loss = models::train_step(opt, {.lr = 0.003f}, [&] {
      return nn::cross_entropy(model.decode(tgt_in, model.encode(src)), targets);
    });
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepTransformer);

// The recurrent translation model at its workload's batch, lr and clip: eight
// LSTM gate matmuls per cell step, so the step is dominated by small autograd
// nodes rather than by GEMM time.
static void BM_TrainStepGnmt(benchmark::State& state) {
  tensor::Rng init_rng(10);
  models::GnmtModel::Config cfg;  // defaults: hidden 32, 2+2 LSTM layers
  models::GnmtModel model(cfg, init_rng);
  optim::Adam opt(model.parameters());
  const std::int64_t batch = 16, seq = 8;
  std::vector<data::TokenSeq> src, tgt_in;
  std::vector<std::int64_t> targets;
  for (std::int64_t b = 0; b < batch; ++b) {
    data::TokenSeq s, t{data::kBos};
    for (std::int64_t i = 0; i < seq; ++i) {
      s.push_back(data::kFirstWord + (b * 3 + i) % (cfg.vocab - data::kFirstWord));
      const std::int64_t tok = data::kFirstWord + (b * 5 + i) % (cfg.vocab - data::kFirstWord);
      t.push_back(tok);
      targets.push_back(tok);
    }
    targets.push_back(data::kEos);
    src.push_back(std::move(s));
    tgt_in.push_back(std::move(t));
  }
  for (auto _ : state) {
    auto loss = models::train_step(opt, {.lr = 2e-3f, .clip_norm = 5.0f}, [&] {
      return nn::cross_entropy(model.forward_teacher(src, tgt_in), targets);
    });
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TrainStepGnmt);

// --- Checkpoint subsystem (BENCH_checkpoint.json regenerates from these) ---
// Checkpoint writes land INSIDE the timed §3.2.1 run window, so their cost is
// part of every fault-tolerant time-to-train result; these entries pin it.

static void BM_Crc32c(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131);
  for (auto _ : state) {
    std::uint32_t crc = checkpoint::crc32c(buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Crc32c)->Arg(1 << 12)->Arg(1 << 20);

namespace {
std::unique_ptr<models::Workload> trained_smoke_workload() {
  auto w = harness::make_reference_workload(core::BenchmarkId::kRecommendation,
                                            harness::WorkloadScale::kSmoke);
  w->prepare_data();
  w->build_model(1);
  w->train_epoch();
  return w;
}
}  // namespace

// Full-state serialize (model + optimizer slots + rng) to memory, CRC'd.
static void BM_CheckpointSave(benchmark::State& state) {
  auto w = trained_smoke_workload();
  std::size_t bytes = 0;
  for (auto _ : state) {
    checkpoint::CheckpointWriter ckpt;
    w->save_state(ckpt);
    std::vector<std::uint8_t> buf = ckpt.serialize();
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.counters["ckpt_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSave);

// Save plus the atomic temp-file + rename landing — the cost the harness
// actually charges per checkpoint_saved event.
static void BM_CheckpointWriteFile(benchmark::State& state) {
  auto w = trained_smoke_workload();
  const std::string path = "bench_checkpoint.ckpt";
  for (auto _ : state) {
    checkpoint::CheckpointWriter ckpt;
    w->save_state(ckpt);
    ckpt.write_file(path);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointWriteFile);

// Parse (magic/version/every-CRC validation) + in-place state restore — the
// cost of the checkpoint_restored event on a resumed session.
static void BM_CheckpointRestore(benchmark::State& state) {
  auto w = trained_smoke_workload();
  checkpoint::CheckpointWriter ckpt;
  w->save_state(ckpt);
  const std::vector<std::uint8_t> bytes = ckpt.serialize();
  for (auto _ : state) {
    checkpoint::CheckpointReader r = checkpoint::CheckpointReader::parse(bytes, "bench");
    w->restore_state(r);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CheckpointRestore);

// Custom main instead of BENCHMARK_MAIN(): stamps the kernel configuration
// into the benchmark context so --benchmark_format=json output is
// self-describing (BENCH_kernels.json records which kernel produced a row).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("gemm_kernel",
                              "packed mr=" + std::to_string(tensor::kGemmMR) +
                                  " nr=" + std::to_string(tensor::kGemmNR) +
                                  " mc=" + std::to_string(tensor::kGemmMC));
  benchmark::AddCustomContext("num_threads_default",
                              std::to_string(parallel::num_threads()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
