/// \file stats.hpp
/// \brief The benchmark's own arithmetic: percentiles and windowed
///        medians, the union of RPC intervals inside one operation, and
///        deltas of the daemons' metrics-registry counters. `perfbench_gen
///        --selftest` checks every function here against hand-computed
///        answers before each run.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.hpp"

namespace perfbench {

/// The \p p-th percentile (0..100) of \p sorted, interpolating linearly
/// between the two closest ranks. 0 for an empty sample.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) {
        return 0.0;
    }
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Total length covered by the union of half-open intervals, each first
/// clipped to the window [lo, hi).
inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
    for (auto& [s, e] : intervals) {
        s = std::clamp(s, lo, hi);
        e = std::clamp(e, lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_s = 0;
    std::int64_t cur_e = 0;
    bool open = false;
    for (const auto& [s, e] : intervals) {
        if (e <= s) {
            continue;
        }
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open) {
            total += cur_e - cur_s;
        }
        cur_s = s;
        cur_e = e;
        open = true;
    }
    if (open) {
        total += cur_e - cur_s;
    }
    return total;
}

/// One completed operation: when it finished, how long it took, and how
/// many user bytes it moved.
struct Sample {
    std::int64_t done_ns = 0;
    double us = 0;
    std::uint64_t bytes = 0;
};

/// A measured phase, in steady-clock nanoseconds.
struct Window {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Throughput and latency percentiles of a phase, each the median over
/// kWindows equal slices of it. A burst of interference on the host then
/// moves at most the slices it hits, not the reported value.
inline constexpr int kWindows = 5;

struct Windowed {
    double mbps = 0;  ///< user MB (10^6 bytes) per second
    double p50 = 0;   ///< us
    double p95 = 0;   ///< us
};

inline double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, 50);
}

/// Samples are attributed to the slice their operation finished in.
inline Windowed windowed(const std::vector<Sample>& samples, const Window& w) {
    const std::int64_t len = std::max<std::int64_t>(1, (w.end_ns - w.start_ns) / kWindows);
    std::vector<double> mbps;
    std::vector<double> p50;
    std::vector<double> p95;
    for (int i = 0; i < kWindows; ++i) {
        const std::int64_t lo = w.start_ns + i * len;
        const std::int64_t hi = i + 1 == kWindows ? w.end_ns + 1 : lo + len;
        std::uint64_t bytes = 0;
        std::vector<double> lat;
        for (const auto& s : samples) {
            if (s.done_ns >= lo && s.done_ns < hi) {
                bytes += s.bytes;
                lat.push_back(s.us);
            }
        }
        mbps.push_back(static_cast<double>(bytes) / 1e6 / (static_cast<double>(len) / 1e9));
        if (!lat.empty()) {
            std::sort(lat.begin(), lat.end());
            p50.push_back(percentile_sorted(lat, 50));
            p95.push_back(percentile_sorted(lat, 95));
        }
    }
    return Windowed{median(mbps), median(p50), median(p95)};
}

/// Value of a monotonic counter between two snapshots of one process. A
/// smaller second reading means the process restarted, which voids every
/// ratio the run would report.
inline std::uint64_t counter_delta(std::uint64_t before, std::uint64_t after) {
    if (after < before) {
        throw std::runtime_error("counter went backwards (" +
                                 std::to_string(before) + " -> " +
                                 std::to_string(after) + ")");
    }
    return after - before;
}

/// Sum of one metric over every series of \p snap whose name matches and
/// whose labels include \p label = \p value (an empty label matches all).
/// Counters, callbacks and gauges contribute their value; histograms their
/// count (\p hist_sum selects their sum instead).
inline std::uint64_t metric_total(const blobseer::MetricsSnapshot& snap,
                                  std::string_view name,
                                  std::string_view label = {},
                                  std::string_view value = {},
                                  bool hist_sum = false) {
    std::uint64_t total = 0;
    for (const auto& s : snap.samples) {
        if (s.name != name) {
            continue;
        }
        if (!label.empty()) {
            const bool has = std::any_of(
                s.labels.begin(), s.labels.end(),
                [&](const auto& kv) { return kv.first == label && kv.second == value; });
            if (!has) {
                continue;
            }
        }
        if (s.kind == blobseer::MetricKind::kHistogram) {
            total += hist_sum ? s.sum : s.count;
        } else {
            total += s.value;
        }
    }
    return total;
}

/// Largest gauge high-water mark of one metric across its series.
inline std::uint64_t metric_high_water(const blobseer::MetricsSnapshot& snap,
                                       std::string_view name) {
    std::uint64_t hw = 0;
    for (const auto& s : snap.samples) {
        if (s.name == name) {
            hw = std::max(hw, s.kind == blobseer::MetricKind::kGauge
                                  ? s.high_water
                                  : s.value);
        }
    }
    return hw;
}

/// Counter delta of metric_total() between two snapshots of the same
/// processes (one snapshot per process, same order on both sides).
inline std::uint64_t metric_delta(
    const std::vector<blobseer::MetricsSnapshot>& before,
    const std::vector<blobseer::MetricsSnapshot>& after, std::string_view name,
    std::string_view label = {}, std::string_view value = {},
    bool hist_sum = false) {
    if (before.size() != after.size()) {
        throw std::runtime_error("metric snapshots cover different processes");
    }
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        total += counter_delta(
            metric_total(before[i], name, label, value, hist_sum),
            metric_total(after[i], name, label, value, hist_sum));
    }
    return total;
}

/// a / b, or 0 when nothing happened (a ratio of two zero counts).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
