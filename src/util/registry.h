// The plug-in registry idiom shared by the training loop's two extension
// points: sparsification strategies (prune::StrategyRegistry) and gradient
// codecs (dist::CodecRegistry).
//
// A registry maps a name to a Factory: a human description, the declared
// parameters (ParamSpec: key, default, help) and a `make` function. Callers
// hand in a sparse key/value map; resolve() overlays it on the declared
// defaults and rejects unknown names and keys, make() builds the plug-in
// from the resolved map, and help() renders every plug-in and parameter as
// the aligned table behind `--strategy help` / `--codec help`. The typed
// param_* parsers read the resolved map inside a factory.
//
// A plug-in's checkpointed state is a list of StateItem blobs; the trainer
// writes them into a section stamped with the plug-in's registry name, and
// the integrity monitor folds them into its state digests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pt {

/// One declared plug-in parameter; `default_value` is spelled as a user
/// would type it on the command line.
struct ParamSpec {
  std::string name;
  std::string default_value;
  std::string help;
};

/// Key/value plug-in parameters, as typed by the user or resolved.
using ParamMap = std::map<std::string, std::string>;

/// One named blob of plug-in state (masks, thresholds, residuals…),
/// serialized verbatim; the plug-in owns the meaning of the two arrays.
struct StateItem {
  std::string name;
  std::vector<float> f32;
  std::vector<std::int64_t> i64;
};

// Typed parameter parsing over a resolved map; throw std::invalid_argument
// naming the key on a missing or malformed value. param_float accepts only
// finite numbers ("nan" and "inf" would otherwise slip through std::stof).
float param_float(const ParamMap& params, const std::string& key);
std::int64_t param_int(const ParamMap& params, const std::string& key);
bool param_bool(const ParamMap& params, const std::string& key);

/// The factory fields every registry shares; Registry<T>::Factory adds the
/// typed `make`.
struct PluginInfo {
  std::string name;
  std::string description;
  std::vector<ParamSpec> params;
};

namespace registry_detail {

// The non-template halves of Registry<T>. `noun` names the plug-in kind in
// name errors ("prune strategy"), `kind` in parameter errors and as the
// help table's first column header ("strategy").
[[noreturn]] void unknown_name(const std::string& noun, const std::string& name,
                               const std::vector<std::string>& known);
[[noreturn]] void duplicate_name(const std::string& noun,
                                 const std::string& name);
ParamMap overlay_defaults(const std::string& kind, const PluginInfo& plugin,
                          const ParamMap& params);
std::string help_table(const std::string& kind,
                       const std::vector<const PluginInfo*>& plugins);

}  // namespace registry_detail

/// Name -> Factory registry of plug-ins of type T. Subclasses give it its
/// nouns, a process-wide instance and a public registration call.
template <class T>
class Registry {
 public:
  struct Factory : PluginInfo {
    /// Receives the fully resolved parameter map (defaults overlaid with
    /// the caller's values; unknown keys already rejected).
    std::function<std::unique_ptr<T>(const ParamMap&)> make;
  };

  const Factory* find(const std::string& name) const {
    for (const Factory& f : factories_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const Factory& f : factories_) out.push_back(f.name);
    return out;
  }

  /// The effective parameter map of `name`: `params` overlaid on the spec
  /// defaults, so every declared key is present. Throws
  /// std::invalid_argument on an unknown name or parameter key.
  ParamMap resolve(const std::string& name, const ParamMap& params) const {
    return registry_detail::overlay_defaults(kind_, require(name), params);
  }

  /// Instantiates `name` from a resolve()d map. Throws
  /// std::invalid_argument on an unknown name or an unparsable value.
  std::unique_ptr<T> make(const std::string& name,
                          const ParamMap& resolved) const {
    return require(name).make(resolved);
  }

  /// make(name, resolve(name, params)).
  std::unique_ptr<T> create(const std::string& name,
                            const ParamMap& params = {}) const {
    return make(name, resolve(name, params));
  }

  /// Every plug-in and its parameters as an aligned table (name, param,
  /// default, description).
  std::string help() const {
    std::vector<const PluginInfo*> plugins;
    for (const Factory& f : factories_) plugins.push_back(&f);
    return registry_detail::help_table(kind_, plugins);
  }

 protected:
  Registry(std::string noun, std::string kind)
      : noun_(std::move(noun)), kind_(std::move(kind)) {}

  /// Appends `factory`; throws std::invalid_argument if its name is taken.
  void add(Factory factory) {
    if (find(factory.name) != nullptr) {
      registry_detail::duplicate_name(noun_, factory.name);
    }
    factories_.push_back(std::move(factory));
  }

 private:
  const Factory& require(const std::string& name) const {
    const Factory* factory = find(name);
    if (factory == nullptr) registry_detail::unknown_name(noun_, name, names());
    return *factory;
  }

  std::string noun_;
  std::string kind_;
  std::vector<Factory> factories_;
};

}  // namespace pt
