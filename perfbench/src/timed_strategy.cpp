#include "timed_strategy.h"

#include <memory>
#include <string>

#include "fixtures.h"
#include "prune/strategy.h"

namespace perfbench {
namespace {

StepLog* g_log = nullptr;

class TimedStrategy final : public pt::prune::Strategy {
 public:
  explicit TimedStrategy(std::unique_ptr<pt::prune::Strategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "perfbench_group_lasso"; }
  void on_epoch_begin(pt::graph::Network& net,
                      const pt::prune::EpochInfo& info) override {
    inner_->on_epoch_begin(net, info);
  }
  double regularization_loss(pt::graph::Network& net) const override {
    return inner_->regularization_loss(net);
  }
  void accumulate_gradients(pt::graph::Network& net,
                            const pt::prune::StepInfo& info) override {
    inner_->accumulate_gradients(net, info);
  }
  void post_step_update(pt::graph::Network& net,
                        const pt::prune::StepInfo& info) override {
    inner_->post_step_update(net, info);
    if (g_log == nullptr) return;
    g_log->t.push_back(now_s());
    g_log->epoch.push_back(info.epoch);
    if (g_log->stop_after_steps > 0 &&
        static_cast<std::int64_t>(g_log->t.size()) >= g_log->stop_after_steps) {
      throw StopRun();
    }
  }
  void post_step(pt::graph::Network& net,
                 const pt::prune::StepInfo& info) override {
    inner_->post_step(net, info);
  }
  pt::prune::ReconfigDecision propose_reconfigure(
      const pt::prune::EpochInfo& info) const override {
    return inner_->propose_reconfigure(info);
  }
  void on_reconfigured(pt::graph::Network& net) override {
    inner_->on_reconfigured(net);
  }
  bool wants_lambda_calibration() const override {
    return inner_->wants_lambda_calibration();
  }
  float calibrate(double classification_loss,
                  double regularization_loss) const override {
    return inner_->calibrate(classification_loss, regularization_loss);
  }
  std::map<std::string, double> metrics() const override {
    return inner_->metrics();
  }
  std::vector<pt::prune::StrategyStateItem> state() const override {
    return inner_->state();
  }
  void load_state(
      const std::vector<pt::prune::StrategyStateItem>& items) override {
    inner_->load_state(items);
  }

 private:
  std::unique_ptr<pt::prune::Strategy> inner_;
};

}  // namespace

void register_timed_strategy() {
  auto& registry = pt::prune::StrategyRegistry::global();
  if (registry.find("perfbench_group_lasso") != nullptr) return;
  const pt::prune::StrategyFactory* base = registry.find("group_lasso");
  if (base == nullptr) throw std::logic_error("group_lasso is not registered");
  registry.register_strategy(
      {"perfbench_group_lasso",
       "group_lasso with a wall-clock timestamp after every optimizer step",
       base->params,
       [](const std::map<std::string, std::string>& params) {
         return std::make_unique<TimedStrategy>(
             pt::prune::StrategyRegistry::global().create("group_lasso",
                                                          params));
       }});
}

void set_step_log(StepLog* log) { g_log = log; }

}  // namespace perfbench
