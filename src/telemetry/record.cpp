#include "telemetry/record.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "cost/flops.h"
#include "util/fileio.h"

namespace pt::telemetry {
namespace {

Json span_to_json(const SpanStats& s) {
  Json j = Json::object();
  j["count"] = Json(static_cast<std::uint64_t>(s.count));
  j["total_s"] = Json(s.total_seconds);
  j["min_s"] = Json(s.min_seconds);
  j["max_s"] = Json(s.max_seconds);
  return j;
}

SpanStats span_from_json(const Json& j) {
  SpanStats s;
  s.count = static_cast<std::uint64_t>(j.at("count").as_int());
  s.total_seconds = j.at("total_s").as_number();
  s.min_seconds = j.at("min_s").as_number();
  s.max_seconds = j.at("max_s").as_number();
  return s;
}

Json map_to_json(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j[k] = Json(v);
  return j;
}

std::map<std::string, double> map_from_json(const Json& j) {
  std::map<std::string, double> m;
  for (const auto& [k, v] : j.items()) m[k] = v.as_number();
  return m;
}

}  // namespace

Json EpochRecord::to_json() const {
  Json j = Json::object();
  j["schema"] = Json(kEpochSchema);
  j["schema_version"] = Json(kSchemaVersion);
  j["strategy"] = Json(strategy);
  for_each_field(*this, [&j](const char* name, const auto& v) {
    j[name] = Json(v);
  });

  Json rc = Json::object();
  rc["happened"] = Json(reconfig.happened);
  rc["channels_before"] = Json(reconfig.channels_before);
  rc["channels_after"] = Json(reconfig.channels_after);
  rc["convs_removed"] = Json(reconfig.convs_removed);
  rc["blocks_removed"] = Json(reconfig.blocks_removed);
  j["reconfig"] = std::move(rc);

  Json ls = Json::array();
  for (const LayerRecord& l : layers) {
    Json lj = Json::object();
    lj["node"] = Json(l.node);
    lj["name"] = Json(l.name);
    lj["type"] = Json(l.type);
    lj["fwd_flops"] = Json(l.fwd_flops);
    lj["bwd_flops"] = Json(l.bwd_flops);
    lj["fwd_seconds"] = Json(l.fwd_seconds);
    lj["bwd_seconds"] = Json(l.bwd_seconds);
    lj["fwd_calls"] = Json(l.fwd_calls);
    lj["bwd_calls"] = Json(l.bwd_calls);
    ls.push_back(std::move(lj));
  }
  j["layers"] = std::move(ls);

  Json sp = Json::array();
  for (const SparsityRecord& s : sparsity) {
    Json sj = Json::object();
    sj["name"] = Json(s.name);
    sj["channel_density"] = Json(s.channel_density);
    sj["weight_density"] = Json(s.weight_density);
    sp.push_back(std::move(sj));
  }
  j["sparsity"] = std::move(sp);

  j["counters"] = map_to_json(counters);
  j["gauges"] = map_to_json(gauges);
  Json spj = Json::object();
  for (const auto& [name, stats] : spans) spj[name] = span_to_json(stats);
  j["spans"] = std::move(spj);
  return j;
}

EpochRecord EpochRecord::from_json(const Json& j) {
  if (j.at("schema").as_string() != kEpochSchema) {
    throw std::runtime_error("EpochRecord: unexpected schema '" +
                             j.at("schema").as_string() + "'");
  }
  if (j.at("schema_version").as_int() > kSchemaVersion) {
    throw std::runtime_error("EpochRecord: schema version " +
                             std::to_string(j.at("schema_version").as_int()) +
                             " is newer than this reader (" +
                             std::to_string(kSchemaVersion) + ")");
  }
  EpochRecord r;
  // Additive field: absent in records written before the strategy API.
  if (const Json* s = j.find("strategy")) r.strategy = s->as_string();
  for_each_field(r, [&j](const char* name, auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      // Flags are additive: the stats' one flag joined the record after
      // the first records were written, and reads as false there.
      if (const Json* b = j.find(name)) v = b->as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      v = j.at(name).as_number();
    } else {
      v = j.at(name).as_int();
    }
  });

  const Json& rc = j.at("reconfig");
  r.reconfig.happened = rc.at("happened").as_bool();
  r.reconfig.channels_before = rc.at("channels_before").as_int();
  r.reconfig.channels_after = rc.at("channels_after").as_int();
  r.reconfig.convs_removed = rc.at("convs_removed").as_int();
  r.reconfig.blocks_removed = rc.at("blocks_removed").as_int();

  for (const Json& lj : j.at("layers").elements()) {
    LayerRecord l;
    l.node = static_cast<int>(lj.at("node").as_int());
    l.name = lj.at("name").as_string();
    l.type = lj.at("type").as_string();
    l.fwd_flops = lj.at("fwd_flops").as_number();
    l.bwd_flops = lj.at("bwd_flops").as_number();
    l.fwd_seconds = lj.at("fwd_seconds").as_number();
    l.bwd_seconds = lj.at("bwd_seconds").as_number();
    l.fwd_calls = static_cast<std::uint64_t>(lj.at("fwd_calls").as_int());
    l.bwd_calls = static_cast<std::uint64_t>(lj.at("bwd_calls").as_int());
    r.layers.push_back(std::move(l));
  }
  for (const Json& sj : j.at("sparsity").elements()) {
    SparsityRecord s;
    s.name = sj.at("name").as_string();
    s.channel_density = sj.at("channel_density").as_number();
    s.weight_density = sj.at("weight_density").as_number();
    r.sparsity.push_back(std::move(s));
  }
  r.counters = map_from_json(j.at("counters"));
  r.gauges = map_from_json(j.at("gauges"));
  for (const auto& [name, sj] : j.at("spans").items()) {
    r.spans[name] = span_from_json(sj);
  }
  return r;
}

std::vector<LayerRecord> collect_layer_records(graph::Network& net,
                                               const Shape& input) {
  const cost::FlopsModel model(net, input);
  const std::vector<graph::NodeProfile>& prof = net.profile();
  std::vector<LayerRecord> out;
  out.reserve(model.layers().size());
  for (const cost::LayerFlops& lf : model.layers()) {
    LayerRecord r;
    r.node = lf.node;
    r.name = lf.name;
    r.type = lf.type;
    r.fwd_flops = lf.forward;
    r.bwd_flops = lf.backward;
    if (lf.node >= 0 && static_cast<std::size_t>(lf.node) < prof.size()) {
      const graph::NodeProfile& p = prof[static_cast<std::size_t>(lf.node)];
      r.fwd_seconds = p.forward_seconds;
      r.bwd_seconds = p.backward_seconds;
      r.fwd_calls = p.forward_calls;
      r.bwd_calls = p.backward_calls;
    }
    out.push_back(std::move(r));
  }
  return out;
}

Json RunManifest::to_json() const {
  Json j = Json::object();
  j["schema"] = Json(kManifestSchema);
  j["schema_version"] = Json(kSchemaVersion);
  j["run_name"] = Json(run_name);
  j["git"] = Json(git);
  j["created_unix"] = Json(created_unix);
  j["seed"] = Json(seed);
  j["config"] = config;
  return j;
}

RunManifest RunManifest::from_json(const Json& j) {
  if (j.at("schema").as_string() != kManifestSchema) {
    throw std::runtime_error("RunManifest: unexpected schema '" +
                             j.at("schema").as_string() + "'");
  }
  RunManifest m;
  m.run_name = j.at("run_name").as_string();
  m.git = j.at("git").as_string();
  m.created_unix = j.at("created_unix").as_int();
  m.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  m.config = j.at("config");
  return m;
}

std::string git_describe() {
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int rc = ::pclose(pipe);
  if (rc != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

RunRecorder::RunRecorder(std::string dir, const RunManifest& manifest)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  const std::string text = manifest.to_json().dump() + "\n";
  atomic_write_file(dir_ + "/manifest.json", text.data(), text.size());
}

void RunRecorder::append(const EpochRecord& record) {
  append_line(dir_ + "/epochs.jsonl", record.to_json().dump());
}

std::vector<EpochRecord> RunRecorder::read_records(const std::string& dir) {
  const std::string path = dir + "/epochs.jsonl";
  if (!std::filesystem::exists(path)) return {};
  std::vector<EpochRecord> out;
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_records: cannot open " + path);
  std::string line;
  while (std::getline(f, line)) {
    // getline hit EOF before a '\n': the torn tail of a crashed append
    // (the next append truncates it).
    if (f.eof()) break;
    if (line.empty()) continue;
    out.push_back(EpochRecord::from_json(Json::parse(line)));
  }
  return out;
}

RunManifest RunRecorder::read_manifest(const std::string& dir) {
  return RunManifest::from_json(
      Json::parse(read_file_text(dir + "/manifest.json")));
}

}  // namespace pt::telemetry
