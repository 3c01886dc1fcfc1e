#include "util/registry.h"

#include <cmath>
#include <stdexcept>

#include "util/table.h"

namespace pt {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

const std::string& require_param(const ParamMap& params,
                                 const std::string& key) {
  auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("parameter '" + key +
                                "' missing from resolved map");
  }
  return it->second;
}

}  // namespace

float param_float(const ParamMap& params, const std::string& key) {
  const std::string& v = require_param(params, key);
  try {
    std::size_t pos = 0;
    const float out = std::stof(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    if (!std::isfinite(out)) throw std::invalid_argument("not finite");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("parameter '" + key +
                                "' expects a finite number (got '" + v + "')");
  }
}

std::int64_t param_int(const ParamMap& params, const std::string& key) {
  const std::string& v = require_param(params, key);
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing characters");
    return static_cast<std::int64_t>(out);
  } catch (const std::exception&) {
    throw std::invalid_argument("parameter '" + key +
                                "' expects an integer (got '" + v + "')");
  }
}

bool param_bool(const ParamMap& params, const std::string& key) {
  const std::string& v = require_param(params, key);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("parameter '" + key +
                              "' expects a boolean (got '" + v + "')");
}

namespace registry_detail {

void unknown_name(const std::string& noun, const std::string& name,
                  const std::vector<std::string>& known) {
  throw std::invalid_argument("unknown " + noun + " '" + name +
                              "' (known: " + join_names(known) + ")");
}

void duplicate_name(const std::string& noun, const std::string& name) {
  throw std::invalid_argument(noun + " '" + name + "' is already registered");
}

ParamMap overlay_defaults(const std::string& kind, const PluginInfo& plugin,
                          const ParamMap& params) {
  ParamMap resolved;
  for (const ParamSpec& p : plugin.params) resolved[p.name] = p.default_value;
  for (const auto& [key, value] : params) {
    if (resolved.find(key) == resolved.end()) {
      std::vector<std::string> known;
      for (const ParamSpec& p : plugin.params) known.push_back(p.name);
      throw std::invalid_argument(kind + " '" + plugin.name +
                                  "' has no parameter '" + key +
                                  "' (known: " + join_names(known) + ")");
    }
    resolved[key] = value;
  }
  return resolved;
}

std::string help_table(const std::string& kind,
                       const std::vector<const PluginInfo*>& plugins) {
  Table t({kind, "param", "default", "description"});
  for (const PluginInfo* plugin : plugins) {
    t.add_row({plugin->name, "", "", plugin->description});
    for (const ParamSpec& p : plugin->params) {
      t.add_row({"", p.name, p.default_value, p.help});
    }
  }
  return t.to_text();
}

}  // namespace registry_detail

}  // namespace pt
