#pragma once

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "tensor/rng.h"

namespace mlperf::nn {

/// Base class for trainable layers and models.
///
/// A module owns its parameters (autograd::Variables with requires_grad) and
/// may register child modules (non-owning pointers to members of the derived
/// class). `parameters()` walks the tree, which is what optimizers consume.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its children (depth-first).
  std::vector<autograd::Variable> parameters() const {
    std::vector<autograd::Variable> out;
    collect(out);
    return out;
  }

  /// Named parameters, with child-path prefixes ("block1.conv.weight").
  std::vector<std::pair<std::string, autograd::Variable>> named_parameters() const {
    std::vector<std::pair<std::string, autograd::Variable>> out;
    collect_named("", out);
    return out;
  }

  /// Named non-parameter state tensors ("buffers": batch-norm running
  /// statistics and the like), with the same child-path prefixes. Buffers are
  /// not touched by optimizers but are part of the model's training state —
  /// a checkpoint that skipped them would not resume bitwise-identically.
  std::vector<std::pair<std::string, tensor::Tensor*>> named_buffers() const {
    std::vector<std::pair<std::string, tensor::Tensor*>> out;
    collect_buffers("", out);
    return out;
  }

  /// Total scalar parameter count.
  std::int64_t num_parameters() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.numel();
    return n;
  }

  void zero_grad() {
    for (auto& p : parameters()) p.zero_grad();
  }

  /// Train/eval mode (affects batchnorm). Propagates to children.
  void set_training(bool training) {
    training_ = training;
    for (auto* c : children_) c->set_training(training);
  }
  bool training() const { return training_; }

 protected:
  autograd::Variable register_parameter(std::string name, tensor::Tensor init) {
    autograd::Variable v(std::move(init), /*requires_grad=*/true);
    params_.emplace_back(std::move(name), v);
    return v;
  }

  void register_module(std::string name, Module& child) {
    children_.push_back(&child);
    child_names_.push_back(std::move(name));
  }

  /// Register a member tensor as a named buffer. The tensor must outlive the
  /// module (it is a member of the derived class, like child modules).
  void register_buffer(std::string name, tensor::Tensor& buffer) {
    buffers_.emplace_back(std::move(name), &buffer);
  }

 private:
  void collect(std::vector<autograd::Variable>& out) const {
    for (const auto& [name, v] : params_) out.push_back(v);
    for (const auto* c : children_) c->collect(out);
  }
  void collect_named(const std::string& prefix,
                     std::vector<std::pair<std::string, autograd::Variable>>& out) const {
    for (const auto& [name, v] : params_) out.emplace_back(prefix + name, v);
    for (std::size_t i = 0; i < children_.size(); ++i)
      children_[i]->collect_named(prefix + child_names_[i] + ".", out);
  }
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, tensor::Tensor*>>& out) const {
    for (const auto& [name, t] : buffers_) out.emplace_back(prefix + name, t);
    for (std::size_t i = 0; i < children_.size(); ++i)
      children_[i]->collect_buffers(prefix + child_names_[i] + ".", out);
  }

  std::vector<std::pair<std::string, autograd::Variable>> params_;
  std::vector<std::pair<std::string, tensor::Tensor*>> buffers_;  // non-owning members
  std::vector<Module*> children_;            // non-owning: children are members
  std::vector<std::string> child_names_;
  bool training_ = true;
};

/// Weight-initialization helpers (paper §3.4: references pin parameter
/// initialization; we standardize on these so all models are reproducible).
namespace init {

/// Kaiming/He normal for ReLU nets: N(0, sqrt(2 / fan_in)).
tensor::Tensor kaiming_normal(tensor::Shape shape, std::int64_t fan_in, tensor::Rng& rng);

/// Xavier/Glorot uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).
tensor::Tensor xavier_uniform(tensor::Shape shape, std::int64_t fan_in, std::int64_t fan_out,
                              tensor::Rng& rng);

}  // namespace init

}  // namespace mlperf::nn
