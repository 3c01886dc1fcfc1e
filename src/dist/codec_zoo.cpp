#include "dist/codec_zoo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pt::dist {

namespace {

/// Fixed summation block for the twobit scale reduction: partial sums are
/// computed per 4096-element block and combined in block order, so the
/// result depends only on the data — never on the thread count.
constexpr std::int64_t kSumBlock = 4096;

/// Per-tensor wire header: element count (u64) — every codec pays it.
constexpr double kHeaderBytes = 8.0;

bool parse_indexed_name(const std::string& name, const char* format, long* a,
                        long* b) {
  int consumed = 0;
  const int matched = std::sscanf(name.c_str(), format, a, b, &consumed);
  return matched == 2 && consumed == static_cast<int>(name.size());
}

}  // namespace

// ---------------------------------------------------------------- dense --

WireTensor DenseCodec::encode(int rank, std::size_t tensor, const float* grad,
                              std::int64_t n, exec::ExecContext& ctx) {
  (void)rank;
  (void)tensor;
  WireTensor wire;
  wire.count = n;
  wire.values.resize(static_cast<std::size_t>(n));
  ctx.pool().parallel_for(n, [&](std::int64_t begin, std::int64_t end, int) {
    std::copy(grad + begin, grad + end, wire.values.data() + begin);
  });
  wire.wire_bytes = static_cast<double>(n) * 4.0 + kHeaderBytes;
  return wire;
}

void DenseCodec::decode(const WireTensor& wire, std::size_t tensor, float* out,
                        exec::ExecContext& ctx) const {
  (void)tensor;
  ctx.pool().parallel_for(wire.count,
                          [&](std::int64_t begin, std::int64_t end, int) {
                            std::copy(wire.values.data() + begin,
                                      wire.values.data() + end, out + begin);
                          });
}

// --------------------------------------------------------------- twobit --

void TwoBitCodec::bind(graph::Network& reference, int replicas) {
  GradientCodec::bind(reference, replicas);
  // Preserve residuals that still match the topology (resume, rollback, a
  // rebind with unchanged shapes); reset on any mismatch — after a
  // reconfiguration the accumulated error belongs to pruned coordinates.
  bool compatible = residual_.size() == static_cast<std::size_t>(replicas);
  for (const auto& per_rank : residual_) {
    if (!compatible) break;
    if (per_rank.size() != sizes_.size()) {
      compatible = false;
      break;
    }
    for (std::size_t t = 0; t < per_rank.size(); ++t) {
      if (static_cast<std::int64_t>(per_rank[t].size()) != sizes_[t]) {
        compatible = false;
        break;
      }
    }
  }
  if (compatible) return;
  residual_.assign(static_cast<std::size_t>(replicas), {});
  for (auto& per_rank : residual_) {
    per_rank.resize(sizes_.size());
    for (std::size_t t = 0; t < sizes_.size(); ++t) {
      per_rank[t].assign(static_cast<std::size_t>(sizes_[t]), 0.f);
    }
  }
}

WireTensor TwoBitCodec::encode(int rank, std::size_t tensor, const float* grad,
                               std::int64_t n, exec::ExecContext& ctx) {
  std::vector<float>& res = residual_.at(static_cast<std::size_t>(rank)).at(tensor);
  if (static_cast<std::int64_t>(res.size()) != n) {
    throw std::logic_error("twobit: residual size mismatch for tensor " +
                           std::to_string(tensor) + " (codec not rebound?)");
  }

  // Scale: mean |grad + residual| over fixed-size blocks, combined in
  // block order — bitwise thread-count invariant.
  const std::int64_t blocks = (n + kSumBlock - 1) / kSumBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  ctx.pool().parallel_for(blocks, [&](std::int64_t b0, std::int64_t b1, int) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::int64_t lo = b * kSumBlock;
      const std::int64_t hi = std::min(n, lo + kSumBlock);
      double sum = 0.0;
      for (std::int64_t q = lo; q < hi; ++q) {
        sum += std::abs(static_cast<double>(grad[q]) +
                        static_cast<double>(res[static_cast<std::size_t>(q)]));
      }
      partial[static_cast<std::size_t>(b)] = sum;
    }
  });
  double total = 0.0;
  for (double p : partial) total += p;
  const float scale =
      n > 0 ? static_cast<float>(total / static_cast<double>(n)) *
                  threshold_scale_
            : 0.f;

  // Quantize to {-scale, 0, +scale}, folding the error into the residual.
  // Chunked over whole 16-code words so no word straddles two threads.
  WireTensor wire;
  wire.count = n;
  wire.scale = scale;
  const std::int64_t words = (n + 15) / 16;
  wire.packed.assign(static_cast<std::size_t>(words), 0u);
  ctx.pool().parallel_for(words, [&](std::int64_t w0, std::int64_t w1, int) {
    for (std::int64_t w = w0; w < w1; ++w) {
      std::uint32_t bits = 0;
      const std::int64_t lo = w * 16;
      const std::int64_t hi = std::min(n, lo + 16);
      for (std::int64_t q = lo; q < hi; ++q) {
        const float v = grad[q] + res[static_cast<std::size_t>(q)];
        float decoded = 0.f;
        std::uint32_t code = 0;
        if (scale > 0.f) {
          if (v >= scale) {
            code = 1;
            decoded = scale;
          } else if (v <= -scale) {
            code = 2;
            decoded = -scale;
          }
        }
        res[static_cast<std::size_t>(q)] = v - decoded;
        bits |= code << (2 * (q - lo));
      }
      wire.packed[static_cast<std::size_t>(w)] = bits;
    }
  });
  wire.wire_bytes = static_cast<double>(words) * 4.0 + 4.0 /* scale */ +
                    kHeaderBytes;
  return wire;
}

void TwoBitCodec::decode(const WireTensor& wire, std::size_t tensor,
                         float* out, exec::ExecContext& ctx) const {
  (void)tensor;
  const std::int64_t n = wire.count;
  const std::int64_t words = (n + 15) / 16;
  const float scale = wire.scale;
  ctx.pool().parallel_for(words, [&](std::int64_t w0, std::int64_t w1, int) {
    for (std::int64_t w = w0; w < w1; ++w) {
      const std::uint32_t bits = wire.packed[static_cast<std::size_t>(w)];
      const std::int64_t lo = w * 16;
      const std::int64_t hi = std::min(n, lo + 16);
      for (std::int64_t q = lo; q < hi; ++q) {
        const std::uint32_t code = (bits >> (2 * (q - lo))) & 3u;
        out[q] = code == 1 ? scale : (code == 2 ? -scale : 0.f);
      }
    }
  });
}

std::vector<StateItem> TwoBitCodec::state() const {
  std::vector<StateItem> items;
  for (std::size_t rank = 0; rank < residual_.size(); ++rank) {
    for (std::size_t t = 0; t < residual_[rank].size(); ++t) {
      StateItem item;
      item.name = "residual/r" + std::to_string(rank) + "/t" + std::to_string(t);
      item.f32 = residual_[rank][t];
      items.push_back(std::move(item));
    }
  }
  return items;
}

void TwoBitCodec::load_state(const std::vector<StateItem>& items) {
  residual_.clear();
  for (const StateItem& item : items) {
    long rank = -1, t = -1;
    if (!parse_indexed_name(item.name, "residual/r%ld/t%ld%n", &rank, &t) ||
        rank < 0 || t < 0) {
      throw std::invalid_argument("twobit codec state: unknown item '" +
                                  item.name + "'");
    }
    if (residual_.size() <= static_cast<std::size_t>(rank)) {
      residual_.resize(static_cast<std::size_t>(rank) + 1);
    }
    auto& per_rank = residual_[static_cast<std::size_t>(rank)];
    if (per_rank.size() <= static_cast<std::size_t>(t)) {
      per_rank.resize(static_cast<std::size_t>(t) + 1);
    }
    per_rank[static_cast<std::size_t>(t)] = item.f32;
  }
}

void TwoBitCodec::reset_replica(int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= residual_.size()) return;
  for (std::vector<float>& res : residual_[static_cast<std::size_t>(rank)]) {
    std::fill(res.begin(), res.end(), 0.f);
  }
}

// --------------------------------------------------------- live_channel --

void LiveChannelCodec::bind(graph::Network& reference, int replicas) {
  GradientCodec::bind(reference, replicas);
  const std::vector<nn::Param*> params = reference.params();

  // Row structure is purely topological; re-derive it every bind.
  masks_.assign(params.size(), {});
  for (std::size_t t = 0; t < params.size(); ++t) {
    const Shape& shape = params[t]->value.shape();
    TensorMask& mask = masks_[t];
    if (shape.rank() >= 2 && shape[0] > 0) {
      mask.masked = true;
      mask.rows = shape[0];
      mask.row_len = params[t]->value.numel() / shape[0];
    }
  }

  // Live sets: adopt state loaded from a checkpoint when it still fits the
  // topology (resume/rollback must reuse the interrupted run's mask
  // bitwise); otherwise read the reference weights — a row whose weights
  // are all exactly zero (the proximal operator's doing) is dead. A
  // reconfiguration changes shapes, so its rebind always lands here and
  // recompacts the mask.
  bool adopted = false;
  if (state_loaded_) {
    adopted = true;
    for (const StateItem& item : pending_state_) {
      long t = -1, unused = 0;
      (void)unused;
      int consumed = 0;
      if (std::sscanf(item.name.c_str(), "live_rows/t%ld%n", &t, &consumed) !=
              1 ||
          consumed != static_cast<int>(item.name.size()) || t < 0 ||
          static_cast<std::size_t>(t) >= masks_.size() ||
          !masks_[static_cast<std::size_t>(t)].masked) {
        adopted = false;
        break;
      }
      const TensorMask& mask = masks_[static_cast<std::size_t>(t)];
      for (std::int64_t row : item.i64) {
        if (row < 0 || row >= mask.rows) {
          adopted = false;
          break;
        }
      }
      if (!adopted) break;
    }
    if (adopted) {
      for (const StateItem& item : pending_state_) {
        long t = -1;
        int consumed = 0;
        std::sscanf(item.name.c_str(), "live_rows/t%ld%n", &t, &consumed);
        masks_[static_cast<std::size_t>(t)].live = item.i64;
      }
    }
    state_loaded_ = false;
    pending_state_.clear();
  }
  if (!adopted) {
    for (std::size_t t = 0; t < params.size(); ++t) {
      TensorMask& mask = masks_[t];
      if (!mask.masked) continue;
      mask.live.clear();
      const float* w = params[t]->value.data();
      for (std::int64_t row = 0; row < mask.rows; ++row) {
        const float* lo = w + row * mask.row_len;
        bool live = false;
        for (std::int64_t q = 0; q < mask.row_len; ++q) {
          if (lo[q] != 0.f) {
            live = true;
            break;
          }
        }
        if (live) mask.live.push_back(row);
      }
    }
  }
  refresh_live_fraction();
}

void LiveChannelCodec::refresh_live_fraction() {
  double transmitted = 0.0, total = 0.0;
  for (std::size_t t = 0; t < masks_.size(); ++t) {
    total += static_cast<double>(sizes_[t]);
    const TensorMask& mask = masks_[t];
    transmitted += mask.masked ? static_cast<double>(mask.live.size()) *
                                     static_cast<double>(mask.row_len)
                               : static_cast<double>(sizes_[t]);
  }
  live_fraction_ = total > 0 ? transmitted / total : 1.0;
}

WireTensor LiveChannelCodec::encode(int rank, std::size_t tensor,
                                    const float* grad, std::int64_t n,
                                    exec::ExecContext& ctx) {
  (void)rank;
  const TensorMask& mask = masks_.at(tensor);
  WireTensor wire;
  wire.count = n;
  if (!mask.masked) {
    wire.values.resize(static_cast<std::size_t>(n));
    ctx.pool().parallel_for(n, [&](std::int64_t begin, std::int64_t end, int) {
      std::copy(grad + begin, grad + end, wire.values.data() + begin);
    });
    wire.wire_bytes = static_cast<double>(n) * 4.0 + kHeaderBytes;
    return wire;
  }
  wire.rows = mask.live;
  wire.values.resize(mask.live.size() * static_cast<std::size_t>(mask.row_len));
  const std::int64_t live = static_cast<std::int64_t>(mask.live.size());
  ctx.pool().parallel_for(live, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t row = mask.live[static_cast<std::size_t>(i)];
      std::copy(grad + row * mask.row_len, grad + (row + 1) * mask.row_len,
                wire.values.data() + i * mask.row_len);
    }
  });
  // Payload rows + one u32 row index per transmitted row + header.
  wire.wire_bytes = static_cast<double>(live) *
                        (static_cast<double>(mask.row_len) * 4.0 + 4.0) +
                    kHeaderBytes;
  return wire;
}

void LiveChannelCodec::decode(const WireTensor& wire, std::size_t tensor,
                              float* out, exec::ExecContext& ctx) const {
  const TensorMask& mask = masks_.at(tensor);
  const std::int64_t n = wire.count;
  if (!mask.masked) {
    ctx.pool().parallel_for(n, [&](std::int64_t begin, std::int64_t end, int) {
      std::copy(wire.values.data() + begin, wire.values.data() + end,
                out + begin);
    });
    return;
  }
  ctx.pool().parallel_for(n, [&](std::int64_t begin, std::int64_t end, int) {
    std::fill(out + begin, out + end, 0.f);
  });
  const std::int64_t live = static_cast<std::int64_t>(wire.rows.size());
  ctx.pool().parallel_for(live, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t row = wire.rows[static_cast<std::size_t>(i)];
      std::copy(wire.values.data() + i * mask.row_len,
                wire.values.data() + (i + 1) * mask.row_len,
                out + row * mask.row_len);
    }
  });
}

std::vector<StateItem> LiveChannelCodec::state() const {
  std::vector<StateItem> items;
  for (std::size_t t = 0; t < masks_.size(); ++t) {
    if (!masks_[t].masked) continue;
    StateItem item;
    item.name = "live_rows/t" + std::to_string(t);
    item.i64 = masks_[t].live;
    items.push_back(std::move(item));
  }
  return items;
}

void LiveChannelCodec::load_state(const std::vector<StateItem>& items) {
  pending_state_ = items;
  state_loaded_ = true;
  if (!sizes_.empty()) {
    // Already bound: re-run the adoption logic against the current
    // topology. bind() consumes the pending state.
    const bool had_masks = !masks_.empty();
    if (had_masks) {
      for (const StateItem& item : pending_state_) {
        long t = -1;
        int consumed = 0;
        if (std::sscanf(item.name.c_str(), "live_rows/t%ld%n", &t,
                        &consumed) == 1 &&
            consumed == static_cast<int>(item.name.size()) && t >= 0 &&
            static_cast<std::size_t>(t) < masks_.size() &&
            masks_[static_cast<std::size_t>(t)].masked) {
          masks_[static_cast<std::size_t>(t)].live = item.i64;
        }
      }
      refresh_live_fraction();
    }
  }
}

// ------------------------------------------------------------- registry --

namespace {

void register_builtin_codecs(CodecRegistry& registry) {
  registry.register_codec(
      {"dense",
       "FP32 passthrough; bit-for-bit the reference exchange",
       {},
       [](const ParamMap&) { return std::make_unique<DenseCodec>(); }});
  registry.register_codec(
      {"twobit",
       "2-bit threshold quantization with error-feedback residuals (~16x)",
       {{"threshold_scale", "1.0",
         "multiplier on the mean-|v| quantization magnitude"}},
       [](const ParamMap& params) {
         // The encoder quantizes only when its scale is positive: a zero or
         // negative multiplier would zero every exchanged gradient.
         const float threshold_scale = param_float(params, "threshold_scale");
         if (!(threshold_scale > 0.f)) {
           throw std::invalid_argument(
               "codec parameter 'threshold_scale' must be > 0");
         }
         return std::make_unique<TwoBitCodec>(threshold_scale);
       }});
  registry.register_codec(
      {"live_channel",
       "transmits only live-channel rows; recompacted at reconfiguration",
       {},
       [](const ParamMap&) { return std::make_unique<LiveChannelCodec>(); }});
}

}  // namespace

CodecRegistry& CodecRegistry::global() {
  static CodecRegistry registry = [] {
    CodecRegistry r;
    register_builtin_codecs(r);
    return r;
  }();
  return registry;
}

}  // namespace pt::dist
