#pragma once
// In-memory span tracer for the benchmark's traced step loops. Spans nest on
// one thread; a layer's self time is its spans' duration minus the part their
// child spans cover. Timing is wall time from std::chrono::steady_clock.

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Layer {
    std::string name;
    bool per_step = false;        ///< also record the per-step sum of its spans
    bool ends_step = false;       ///< closing one of its spans closes a train step
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> call_ms;  ///< duration of each span
    std::vector<double> step_ms;  ///< summed span time per train step (per_step only)
    double open_step_ms = 0.0;
  };

  /// RAII span around one call into a layer.
  class Span {
   public:
    Span(Tracer& tracer, Layer& layer) : tracer_(tracer), layer_(layer), start_(Clock::now()) {
      parent_child_ms_ = tracer_.open_child_ms_;
      tracer_.open_child_ms_ = &child_ms_;
    }
    ~Span() {
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
      tracer_.open_child_ms_ = parent_child_ms_;
      if (parent_child_ms_) *parent_child_ms_ += ms;
      layer_.total_s += ms / 1000.0;
      layer_.self_s += (ms - child_ms_) / 1000.0;
      layer_.call_ms.push_back(ms);
      if (layer_.per_step) layer_.open_step_ms += ms;
      if (layer_.ends_step) tracer_.end_step();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    Layer& layer_;
    Clock::time_point start_;
    double child_ms_ = 0.0;
    double* parent_child_ms_ = nullptr;
  };

  enum class Scope { kCall, kStepPart, kStep };

  /// Register a layer; the reference stays valid for the tracer's lifetime.
  /// kStepPart layers also record their summed time per train step, and a
  /// span of the kStep layer is one train step.
  Layer& layer(std::string name, Scope scope) {
    layers_.push_back(Layer{});
    Layer& l = layers_.back();
    l.name = std::move(name);
    l.per_step = scope != Scope::kCall;
    l.ends_step = scope == Scope::kStep;
    return l;
  }

 private:
  /// Close a train step: every per-step layer records its summed span time.
  void end_step() {
    for (Layer& l : layers_)
      if (l.per_step) {
        l.step_ms.push_back(l.open_step_ms);
        l.open_step_ms = 0.0;
      }
  }

  std::deque<Layer> layers_;  // deque: layer() hands out stable references
  double* open_child_ms_ = nullptr;
};

/// The layers every traced loop reports, named after the modules they call.
struct StepLayers {
  explicit StepLayers(Tracer& t)
      : step(t.layer("step", Tracer::Scope::kStep)),
        data(t.layer("data.next", Tracer::Scope::kStepPart)),
        forward(t.layer("models.forward", Tracer::Scope::kStepPart)),
        loss(t.layer("nn.loss", Tracer::Scope::kStepPart)),
        backward(t.layer("autograd.backward", Tracer::Scope::kStepPart)),
        optim(t.layer("optim.step", Tracer::Scope::kStepPart)),
        selfplay(t.layer("go.selfplay", Tracer::Scope::kCall)),
        mcts_search(t.layer("models.mcts_search", Tracer::Scope::kCall)),
        infer(t.layer("models.infer", Tracer::Scope::kCall)) {}

  Tracer::Layer& step;
  Tracer::Layer& data;
  Tracer::Layer& forward;
  Tracer::Layer& loss;
  Tracer::Layer& backward;
  Tracer::Layer& optim;  ///< Optimizer::zero_grad + Optimizer::step
  Tracer::Layer& selfplay;
  Tracer::Layer& mcts_search;
  Tracer::Layer& infer;
};

}  // namespace perfbench
