#include "serve/canary.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "telemetry/metrics.h"
#include "util/rng.h"

namespace pt::serve {

void CanaryConfig::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("CanaryConfig: " + what);
  };
  if (probes < 1) {
    fail("probes must be >= 1 (got " + std::to_string(probes) + ")");
  }
  if (!(max_disagreement >= 0.0 && max_disagreement <= 1.0)) {
    fail("max_disagreement must lie in [0, 1] (got " +
         std::to_string(max_disagreement) + ")");
  }
}

const char* to_string(CanaryOutcome outcome) {
  switch (outcome) {
    case CanaryOutcome::kAccepted: return "accepted";
    case CanaryOutcome::kNonFiniteOutput: return "non-finite-output";
    case CanaryOutcome::kDisagreement: return "disagreement";
    case CanaryOutcome::kLatencyRegression: return "latency-regression";
    case CanaryOutcome::kSkipped: return "skipped";
  }
  return "?";
}

CanaryGate::CanaryGate(CanaryConfig cfg) : cfg_(cfg) { cfg_.validate(); }

namespace {

// The probe inputs' seed: every evaluation draws the same probe set.
constexpr std::uint64_t kProbeSeed = 0xca9a;

/// Per-row argmaxes of a [n, classes] logits tensor.
std::vector<std::int64_t> row_argmax(const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace

CanaryReport CanaryGate::evaluate(ModelVersion& candidate,
                                  ModelVersion* incumbent, const Shape& input,
                                  exec::ExecContext& ctx) const {
  CanaryReport rep;
  if (!cfg_.enabled) {
    rep.detail = "gate disabled";
    return rep;
  }
  telemetry::ScopedTimer span("serve/canary");
  telemetry::count("serve/canary_evaluations");
  rep.probes = cfg_.probes;

  // Deterministic probe set: [probes, C, H, W], a pure function of the
  // probe count and the tenant's input shape.
  std::vector<std::int64_t> dims;
  dims.push_back(cfg_.probes);
  for (std::int64_t d = 0; d < input.rank(); ++d) dims.push_back(input[d]);
  Rng rng(kProbeSeed);
  const Tensor probes = Tensor::randn(Shape(dims), rng);

  const Tensor logits = candidate.net.forward(ctx, probes, false);
  if (logits.shape().rank() != 2 || logits.shape()[0] != cfg_.probes) {
    throw std::runtime_error("canary: unexpected probe output shape " +
                             logits.shape().to_string());
  }

  // 1. Finite-logit check: always on. A single NaN/Inf anywhere in the
  // probe outputs is disqualifying — this is the poison-ckpt detector.
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    if (!std::isfinite(logits.data()[i])) {
      rep.outcome = CanaryOutcome::kNonFiniteOutput;
      rep.detail = "probe logit " + std::to_string(i) + " is non-finite";
      return rep;
    }
  }

  if (incumbent != nullptr) {
    // 2. Reference disagreement against the incumbent on the same probes.
    const Tensor ref = incumbent->net.forward(ctx, probes, false);
    if (ref.shape() == logits.shape()) {
      const auto got = row_argmax(logits);
      const auto want = row_argmax(ref);
      for (std::size_t i = 0; i < got.size(); ++i) {
        rep.disagreements += got[i] != want[i] ? 1 : 0;
      }
      rep.disagreement = static_cast<double>(rep.disagreements) /
                         static_cast<double>(cfg_.probes);
      if (rep.disagreement > cfg_.max_disagreement) {
        std::ostringstream os;
        os << rep.disagreements << "/" << cfg_.probes
           << " probe argmaxes disagree with the incumbent (budget "
           << cfg_.max_disagreement << ")";
        rep.outcome = CanaryOutcome::kDisagreement;
        rep.detail = os.str();
        return rep;
      }
    }
    // 3. Modeled-latency regression budget.
    const Tick base = std::max<Tick>(1, incumbent->service_ticks_per_batch);
    rep.latency_ratio =
        static_cast<double>(candidate.service_ticks_per_batch) /
        static_cast<double>(base);
    if (cfg_.max_latency_ratio > 0 &&
        rep.latency_ratio > cfg_.max_latency_ratio) {
      std::ostringstream os;
      os << "modeled service " << candidate.service_ticks_per_batch
         << " ticks vs incumbent " << base << " (ratio " << rep.latency_ratio
         << " > budget " << cfg_.max_latency_ratio << ")";
      rep.outcome = CanaryOutcome::kLatencyRegression;
      rep.detail = os.str();
      return rep;
    }
  }

  rep.outcome = CanaryOutcome::kAccepted;
  rep.detail = incumbent ? "accepted against incumbent reference"
                         : "accepted (no incumbent; finite-logit check only)";
  return rep;
}

}  // namespace pt::serve
