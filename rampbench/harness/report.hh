/**
 * @file
 * What one ramp_bench run records: its metrics, exact counts, output
 * digests and host block (the run JSON bench_compare reads), the
 * one-line result the benchmark contract prints last, and the
 * bench-local span log written as Chrome trace-event JSON.
 *
 * Spans stay in this file's own vector on purpose: registering
 * telemetry:: names from the benchmark would have to be mirrored in
 * docs/metrics.manifest, which the benchmark does not own.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hh"
#include "util/json.hh"

namespace ramp {
namespace bench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Where a run was measured; bench_compare refuses to compare runs
 *  whose host blocks differ. */
struct Host
{
    unsigned nproc = 0;
    unsigned threads = 0;
    std::string build_type;
    std::string compiler;

    bool operator==(const Host &) const = default;
};

/** Everything one run reports. */
struct RunRecord
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    double seconds = 0.0;
    bool smoke = false;
    Host host;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed correctness checks, one message each. */
    std::vector<std::string> check_failures;

    std::vector<Metric> metrics;
    std::map<std::string, std::uint64_t> counts;
    std::map<std::string, std::string> digests;

    bool correct() const
    {
        return failed == 0 && check_failures.empty();
    }

    /** Record a failed check (also printed to stderr at once). */
    void fail(const std::string &what);

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    const Metric *findMetric(const std::string &name) const;
};

util::JsonValue toJson(const RunRecord &run);
[[nodiscard]] util::Result<RunRecord> runFromJson(const util::JsonValue &doc);

/** The contract's last stdout line: {"correct","attempted","failed",
 *  "metrics":{name:{"value","unit"}}}. */
std::string resultLine(const RunRecord &run);

/** Read and parse one JSON file. */
[[nodiscard]] util::Result<util::JsonValue> readJsonFile(const std::string &path);

/** Write @p doc to @p path (InvalidInput-free; IoFailure on error). */
[[nodiscard]] util::Result<void> writeJsonFile(const std::string &path,
                                               const util::JsonValue &doc);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Seconds between two steady-clock points. */
inline double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Bench-local spans, timed from outside the layers they bracket.
 * Thread-safe; written once at the end of a traced run.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string cat;
        std::uint32_t tid = 0;
        double ts_us = 0.0;
        double dur_us = 0.0;
        /** Request id shared by one request's spans (0 = none). */
        std::uint64_t id = 0;
    };

    SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

    /** Microseconds since the log was created. */
    double
    us(std::chrono::steady_clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    void add(Span span);

    /** Append a batch recorded privately by one thread. */
    void addAll(std::vector<Span> spans);

    /** Chrome trace-event JSON ("X" events). */
    [[nodiscard]] util::Result<void> write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

} // namespace bench
} // namespace ramp
