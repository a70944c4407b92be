/// \file main.cpp
/// \brief perfbench_gen: the load generator behind perfbench/run.py.
///
///   perfbench_gen --selftest
///   perfbench_gen --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                 --serverd <path> --work <dir>
///
/// Prints one JSON object on stdout (metrics with units and sample
/// counts, daemon flags, workload shape) and exits 0 when every read
/// verified and no daemon died, 1 otherwise, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "content.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    return out + "\"";
}

std::string number(double v) {
    if (!std::isfinite(v)) {
        v = 0;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string metrics_json(const MetricMap& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
        out += (first ? "" : ", ") + quote(name) + ": {\"value\": " + number(metric.value) +
               ", \"unit\": " + quote(metric.unit) + ", \"n\": " + std::to_string(metric.n) +
               ", \"beyond\": " + std::to_string(metric.beyond) + "}";
        first = false;
    }
    return out + "}";
}

std::string list_json(const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += (i ? ", " : "") + quote(v[i]);
    }
    return out + "]";
}

std::string result_json(const Result& r) {
    std::string info = "{";
    bool first = true;
    for (const auto& [k, v] : r.info) {
        info += (first ? "" : ", ") + quote(k) + ": " + quote(v);
        first = false;
    }
    info += "}";
    return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
           ", \"error\": " + quote(r.error) + ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"end_to_end\": " + metrics_json(r.end_to_end) +
           ", \"per_layer\": " + metrics_json(r.per_layer) +
           ", \"manager_flags\": " + list_json(r.manager_flags) +
           ", \"provider_flags\": " + list_json(r.provider_flags) + ", \"info\": " + info + "}";
}

// ---- self-test of the benchmark's arithmetic ------------------------------------

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        std::cerr << "selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9 * std::max(1.0, std::abs(b)); }

blobseer::MetricSample sample(const std::string& name, blobseer::MetricKind kind,
                              blobseer::MetricLabels labels, std::uint64_t value,
                              std::uint64_t count = 0, std::uint64_t sum = 0,
                              std::uint64_t high_water = 0) {
    blobseer::MetricSample s;
    s.name = name;
    s.kind = kind;
    s.labels = std::move(labels);
    s.value = value;
    s.count = count;
    s.sum = sum;
    s.high_water = high_water;
    return s;
}

int selftest() {
    // Percentiles interpolate between closest ranks.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) {
        hundred.push_back(i);
    }
    expect(near(percentile_sorted(hundred, 50), 50.5), "p50 of 1..100 is 50.5");
    expect(near(percentile_sorted(hundred, 99), 99.01), "p99 of 1..100 is 99.01");
    expect(near(percentile_sorted(hundred, 0), 1) && near(percentile_sorted(hundred, 100), 100),
           "p0/p100 are the extremes");
    expect(percentile_sorted({}, 50) == 0, "empty sample reads 0");
    expect(near(percentile_sorted({7}, 99), 7), "single sample is every percentile");

    // Interval union and self time.
    using IV = std::vector<std::pair<std::int64_t, std::int64_t>>;
    expect(union_length(IV{{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25, "overlap merges");
    expect(union_length(IV{{0, 10}, {5, 15}, {20, 30}}, 8, 25) == 12, "clipped to the op window");
    expect(union_length(IV{{0, 100}, {10, 20}}, 0, 100) == 100, "nested spans count once");
    expect(union_length(IV{{20, 30}, {10, 20}}, 0, 100) == 20, "touching spans join");
    expect(union_length(IV{{5, 5}, {9, 3}}, 0, 100) == 0, "empty spans add nothing");
    expect(union_length(IV{}, 0, 100) == 0, "no spans, no union");
    // An op [0, 100) with RPCs (10,30), (20,40), (90,120): union 40, self 60.
    const std::int64_t u = union_length(IV{{10, 30}, {20, 40}, {90, 120}}, 0, 100);
    expect(u == 40 && 100 - u == 60, "self time is wall minus the RPC union");

    // Windowed medians: 5 equal slices of [0, 5 s); one slice disturbed.
    std::vector<Sample> samples;
    for (int i = 0; i < 50; ++i) {
        const std::int64_t done = static_cast<std::int64_t>(i) * 100'000'000 + 1;
        const bool slow = i >= 20 && i < 30;  // the third slice
        samples.push_back(Sample{done, slow ? 1000.0 : 10.0 + i % 10, slow ? 1u : 2'000'000u});
    }
    const Windowed wd = windowed(samples, Window{0, 5'000'000'000});
    expect(near(wd.mbps, 20), "windowed MB/s ignores one slow slice (20 MB/s)");
    expect(near(wd.p50, 14.5), "windowed p50 ignores one slow slice (14.5 us)");
    expect(near(wd.p95, 18.55), "windowed p95 ignores one slow slice (18.55 us)");

    // Counter deltas over metrics snapshots.
    expect(counter_delta(5, 9) == 4, "counter delta");
    bool threw = false;
    try {
        (void)counter_delta(9, 5);
    } catch (const std::exception&) {
        threw = true;
    }
    expect(threw, "a counter going backwards is an error");
    using blobseer::MetricKind;
    blobseer::MetricsSnapshot a;
    a.samples = {sample("reqs", MetricKind::kCounter, {{"op", "get"}}, 10),
                 sample("reqs", MetricKind::kCounter, {{"op", "put"}}, 3),
                 sample("lat", MetricKind::kHistogram, {{"op", "get"}}, 0, 10, 500),
                 sample("backlog", MetricKind::kGauge, {}, 2, 0, 0, 7)};
    blobseer::MetricsSnapshot b;
    b.samples = {sample("reqs", MetricKind::kCounter, {{"op", "get"}}, 25),
                 sample("reqs", MetricKind::kCounter, {{"op", "put"}}, 4),
                 sample("lat", MetricKind::kHistogram, {{"op", "get"}}, 0, 30, 2500),
                 sample("backlog", MetricKind::kGauge, {}, 1, 0, 0, 9)};
    expect(metric_total(a, "reqs") == 13, "total sums every series");
    expect(metric_total(a, "reqs", "op", "get") == 10, "label filter");
    expect(metric_delta({a}, {b}, "reqs") == 16, "delta over all series");
    expect(metric_delta({a}, {b}, "reqs", "op", "put") == 1, "delta of one series");
    expect(metric_delta({a, a}, {b, b}, "reqs", "op", "get") == 30, "delta sums processes");
    expect(metric_delta({a}, {b}, "lat", "op", "get") == 20 &&
               metric_delta({a}, {b}, "lat", "op", "get", true) == 2000,
           "histogram count and sum deltas");
    expect(near(ratio(2000, 20), 100), "handler mean from histogram deltas");
    expect(metric_high_water(b, "backlog") == 9, "gauge high water");
    expect(ratio(1, 0) == 0, "ratio of nothing is 0");

    // Seeded content is deterministic, self-describing and checkable.
    const ContentPool p1(42);
    const ContentPool p2(42);
    const ContentPool p3(43);
    std::vector<std::uint8_t> x(65536);
    std::vector<std::uint8_t> y(65536);
    p1.fill(make_tag(1, 77), false, x);
    p2.fill(make_tag(1, 77), false, y);
    expect(x == y, "same seed, same bytes");
    expect(p1.matches(make_tag(1, 77), false, x), "content verifies");
    expect(p1.claimed_tag(x) == make_tag(1, 77), "content names its tag");
    expect(!p3.matches(make_tag(1, 77), false, x), "another seed does not verify");
    expect(!p1.matches(make_tag(1, 78), false, x), "another tag does not verify");
    x[40000] ^= 1;
    expect(!p1.matches(make_tag(1, 77), false, x), "one flipped bit is caught");
    std::vector<std::uint8_t> zeros(4096, 0);
    expect(!p1.claimed_tag(zeros).has_value(), "a hole claims no tag");

    if (failures == 0) {
        std::cout << "selftest ok\n";
        return 0;
    }
    return 1;
}

int usage() {
    std::cerr << "usage: perfbench_gen --selftest\n"
                 "       perfbench_gen --workload <e1_stripe|append_small|vm_clone> --seed <n>\n"
                 "                     --seconds <s> --trace <0|1> --serverd <path> --work <dir>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            return selftest();
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const std::string v = argv[++i];
        if (arg == "--workload") {
            o.workload = v;
        } else if (arg == "--seed") {
            o.seed = std::stoull(v);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(v);
        } else if (arg == "--trace") {
            o.trace = v == "1";
        } else if (arg == "--serverd") {
            o.serverd = v;
        } else if (arg == "--work") {
            o.work = v;
        } else {
            return usage();
        }
    }
    if (!known_workload(o.workload) || o.serverd.empty() || o.work.empty() ||
        o.seconds <= 0) {
        return usage();
    }
    const Result r = run(o);
    std::cout << result_json(r) << std::endl;
    return r.correct ? 0 : 1;
}
