// The traced per-layer run (see trace.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "fixtures.h"
#include "serve_workload.h"

namespace perfbench {

Json trace_train(const std::string& workload, std::uint64_t seed,
                 double seconds, const std::string& run_dir);

Json trace_serve(std::uint64_t seed, double seconds, const std::string& run_dir);

}  // namespace perfbench
