/// \file bench.hpp
/// \brief One benchmark run: deployment, preload, measured phase, metrics.

#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serverd;          ///< path of blobseer_serverd
    std::filesystem::path work;   ///< scratch root for disk roots
};

struct Metric {
    double value = 0;
    std::string unit;
    std::size_t n = 0;  ///< samples behind a timing (0 = not a sample statistic)
    std::size_t beyond = 0;  ///< samples above a percentile
};

using MetricMap = std::map<std::string, Metric>;

struct Result {
    bool correct = true;
    std::string error;  ///< first verification mismatch or fatal problem
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricMap end_to_end;
    MetricMap per_layer;
    std::vector<std::string> manager_flags;
    std::vector<std::string> provider_flags;
    std::map<std::string, std::string> info;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Run \p opts.workload. Never throws: problems land in Result::error.
[[nodiscard]] Result run(const Options& opts);

}  // namespace perfbench
