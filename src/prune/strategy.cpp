#include "prune/strategy.h"

#include <sstream>
#include <stdexcept>

#include "util/table.h"

namespace pt::prune {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

const StrategyFactory& require_factory(const StrategyRegistry& registry,
                                       const std::string& name) {
  const StrategyFactory* factory = registry.find(name);
  if (factory == nullptr) {
    throw std::invalid_argument("unknown prune strategy '" + name +
                                "' (known: " + join_names(registry.names()) +
                                ")");
  }
  return *factory;
}

}  // namespace

ReconfigDecision Strategy::propose_reconfigure(const EpochInfo& info) const {
  // The paper's cadence: periodic reconfiguration every reconfig_interval
  // epochs when the phase allows it, plus the kOneShot point.
  ReconfigDecision d;
  const bool periodic_hit = info.periodic_reconfig &&
                            info.reconfig_interval > 0 &&
                            (info.epoch_in_phase + 1) % info.reconfig_interval == 0;
  const bool one_shot_hit =
      info.one_shot_at >= 0 && (info.epoch_in_phase + 1) == info.one_shot_at;
  d.reconfigure = periodic_hit || one_shot_hit;
  d.threshold = info.threshold;
  return d;
}

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry registry = [] {
    StrategyRegistry r;
    register_builtin_strategies(r);
    return r;
  }();
  return registry;
}

void StrategyRegistry::register_strategy(StrategyFactory factory) {
  if (find(factory.name) != nullptr) {
    throw std::invalid_argument("prune strategy '" + factory.name +
                                "' is already registered");
  }
  factories_.push_back(std::move(factory));
}

const StrategyFactory* StrategyRegistry::find(const std::string& name) const {
  for (const StrategyFactory& f : factories_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const StrategyFactory& f : factories_) out.push_back(f.name);
  return out;
}

std::map<std::string, std::string> StrategyRegistry::resolve(
    const std::string& name,
    const std::map<std::string, std::string>& params) const {
  const StrategyFactory& factory = require_factory(*this, name);
  std::map<std::string, std::string> resolved;
  for (const ParamSpec& p : factory.params) resolved[p.name] = p.default_value;
  for (const auto& [key, value] : params) {
    if (resolved.find(key) == resolved.end()) {
      std::vector<std::string> known;
      for (const ParamSpec& p : factory.params) known.push_back(p.name);
      throw std::invalid_argument("strategy '" + name + "' has no parameter '" +
                                  key + "' (known: " + join_names(known) + ")");
    }
    resolved[key] = value;
  }
  return resolved;
}

std::unique_ptr<Strategy> StrategyRegistry::make(
    const std::string& name,
    const std::map<std::string, std::string>& resolved) const {
  return require_factory(*this, name).make(resolved);
}

std::unique_ptr<Strategy> StrategyRegistry::create(
    const std::string& name,
    const std::map<std::string, std::string>& params) const {
  return make(name, resolve(name, params));
}

std::string StrategyRegistry::help() const {
  Table t({"strategy", "param", "default", "description"});
  for (const StrategyFactory& f : factories_) {
    t.add_row({f.name, "", "", f.description});
    for (const ParamSpec& p : f.params) {
      t.add_row({"", p.name, p.default_value, p.help});
    }
  }
  return t.to_text();
}

namespace {

const std::string& require_param(
    const std::map<std::string, std::string>& params, const std::string& key) {
  auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("strategy parameter '" + key +
                                "' missing from resolved map");
  }
  return it->second;
}

}  // namespace

float strategy_param_float(const std::map<std::string, std::string>& params,
                           const std::string& key) {
  const std::string& v = require_param(params, key);
  try {
    std::size_t pos = 0;
    const float out = std::stof(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("strategy parameter '" + key +
                                "' expects a number (got '" + v + "')");
  }
}

std::int64_t strategy_param_int(
    const std::map<std::string, std::string>& params, const std::string& key) {
  const std::string& v = require_param(params, key);
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return static_cast<std::int64_t>(out);
  } catch (const std::exception&) {
    throw std::invalid_argument("strategy parameter '" + key +
                                "' expects an integer (got '" + v + "')");
  }
}

bool strategy_param_bool(const std::map<std::string, std::string>& params,
                         const std::string& key) {
  const std::string& v = require_param(params, key);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("strategy parameter '" + key +
                              "' expects a boolean (got '" + v + "')");
}

}  // namespace pt::prune
