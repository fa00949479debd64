/**
 * @file
 * Shared plumbing for the reproduction benches: the unified command
 * line (bench::Options), the persistent evaluation cache, the worker
 * pool, the explored application suite, and the paper's qualification
 * setup (Section 3.7).
 *
 * Every bench prints the rows/series of one paper table or figure;
 * EXPERIMENTS.md records the measured output against the paper.
 *
 * All benches accept the same flags (see Options::usage):
 * `--threads N`, `--seed N`, `--apps N`, `--cache PATH`,
 * `--bench-json PATH`, `--metrics PATH`,
 * `--trace PATH`, `--fault-plan P` and `--fault-seed N`, plus the
 * chip-shape flags `--cores N` and `--floorplan PATH` (meaningful to
 * bench_cmp, accepted everywhere) and `--help`. Unknown flags are rejected, except in the stripping mode
 * bench_kernels uses to coexist with google-benchmark's own flags.
 * The RAMP_THREADS and RAMP_EVAL_CACHE environment variables provide
 * defaults for the worker count and the cache path; an explicit
 * `--cache ""` beats the env var and selects an in-memory cache.
 *
 * Parallelism: the oracle sweeps fan exploration points out across
 * one shared pool; output is bit-identical at any thread count.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "core/qualification.hh"
#include "drm/eval_cache.hh"
#include "drm/oracle.hh"
#include "fault/fault.hh"
#include "util/flags.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp {
namespace bench {

/** Cache file shared by all bench binaries (overridable by env). */
inline std::string
cachePath()
{
    if (const char *env = std::getenv("RAMP_EVAL_CACHE"))
        return env;
    return "ramp_eval_cache.txt";
}

struct Options;

/** Cache path resolution: --cache flag > RAMP_EVAL_CACHE > default. */
std::string cachePath(const Options &opts);

/** The unified bench command line. */
struct Options
{
    /** Worker threads; 0 = RAMP_THREADS, else hardware concurrency. */
    unsigned threads = 0;
    /** Workload generator seed. Part of the evaluation-cache key, so
     *  non-default seeds populate their own cache records. */
    std::uint64_t seed = 1;
    /** Truncate the suite to its first N applications; 0 = all. */
    std::size_t max_apps = 0;
    /** Telemetry snapshot written at process exit ("" = none). */
    std::string metrics_path;
    /** Chrome trace-event timeline written at exit ("" = none;
     *  setting it enables span collection). */
    std::string trace_path;
    /** Evaluation-cache path. Only meaningful with cache_set; an
     *  explicit empty path selects an in-memory cache (see
     *  cachePath(opts) for the three-way precedence). */
    std::string cache_path;
    /** --cache was given, even with an empty value. The flag always
     *  beats RAMP_EVAL_CACHE. */
    bool cache_set = false;
    /** BENCH_*.json artifact path. Only meaningful with
     *  bench_json_set; an explicit empty value disables the
     *  artifact. Unset = the bench's default BENCH_*.json name. */
    std::string bench_json_path;
    bool bench_json_set = false;
    /** Aging-state output path ("" = none). bench_aging saves its
     *  reference scenario's final AgingState here, in the canonical
     *  format ramp_served --aging-state and ramp_client
     *  report-usage consume. */
    std::string aging_state_path;
    /** Fault-injection plan: inline JSON (leading '{') or a file
     *  path; "" = run clean. Parsed and installed by parse(). */
    std::string fault_plan;
    /** Overrides the plan's own seed when nonzero. */
    std::uint64_t fault_seed = 0;
    /** Chip floorplan JSON for the CMP bench ("" = built-in grids).
     *  Wins over --cores. */
    std::string floorplan_path;
    /** Restrict the CMP bench to one built-in grid size; 0 = the
     *  bench's default core-count sweep. */
    std::size_t cores = 0;

    static void
    usage(const char *prog, std::FILE *out)
    {
        std::fprintf(
            out,
            "usage: %s [options]\n"
            "  --threads N     worker threads (default: RAMP_THREADS, "
            "else hardware)\n"
            "  --seed N        workload generator seed (default 1; "
            "keyed into the\n"
            "                  evaluation cache, so non-default seeds "
            "re-simulate)\n"
            "  --apps N        run only the first N suite "
            "applications\n"
            "  --cache PATH    evaluation cache file (wins over "
            "RAMP_EVAL_CACHE;\n"
            "                  an empty PATH selects an in-memory "
            "cache)\n"
            "  --bench-json P  JSON artifact path (default "
            "the bench's\n"
            "                  BENCH_*.json; an empty P disables it)\n"
            "  --aging-state P write the final AgingState (JSON) to P "
            "(bench_aging)\n"
            "  --metrics PATH  write a telemetry metrics snapshot "
            "(JSON) at exit\n"
            "  --trace PATH    write a Chrome trace-event timeline at "
            "exit\n"
            "  --fault-plan P  install a fault-injection plan: inline "
            "JSON ('{...}')\n"
            "                  or a JSON file path (default: run "
            "clean)\n"
            "  --fault-seed N  override the plan's seed (requires "
            "--fault-plan)\n"
            "  --cores N       built-in chip grid size for bench_cmp "
            "(1, 2, 4,\n"
            "                  or 8; default: sweep 2/4/8)\n"
            "  --floorplan P   chip floorplan JSON for bench_cmp "
            "(wins over\n"
            "                  --cores; default: built-in grids)\n"
            "  --help          show this message and exit\n"
            "environment:\n"
            "  RAMP_THREADS    default worker count\n"
            "  RAMP_EVAL_CACHE evaluation cache path (default "
            "ramp_eval_cache.txt)\n",
            prog);
    }

    /**
     * Parse the full command line; any unrecognized argument is
     * fatal. Registers the --metrics/--trace paths with the
     * telemetry layer, so simply parsing arms the exit-time writers.
     */
    static Options
    parse(int argc, char **argv)
    {
        return parseImpl(argc, argv, /*strip=*/false);
    }

    /**
     * Parse and REMOVE the flags above from argv (compacting it and
     * updating argc), leaving unrecognized arguments in place for a
     * second-stage parser -- bench_kernels hands the remainder to
     * google-benchmark.
     */
    static Options
    parseStripping(int &argc, char **argv)
    {
        return parseImpl(argc, argv, /*strip=*/true);
    }

  private:
    /** Store a positive integer flag value that fits @p dest. */
    template <typename T>
    static void
    parsePositive(const char *flag, const std::string &value, T &dest)
    {
        auto n = util::parseFlagInt(flag, value, 1,
                                    std::numeric_limits<T>::max());
        if (!n)
            util::fatal(n.error().message);
        dest = static_cast<T>(n.value());
    }

    static Options
    parseImpl(int &argc, char **argv, bool strip)
    {
        Options opts;
        const char *prog = argc > 0 ? argv[0] : "bench";
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];

            if (arg == "--help" || arg == "-h") {
                usage(prog, stdout);
                std::exit(0);
            }

            // Flags taking a value, as "--flag V" or "--flag=V".
            const char *flag = nullptr;
            std::string *str_out = nullptr;
            for (const auto &[name, dest] :
                 {std::pair<const char *, std::string *>{"--metrics",
                                                         &opts
                                                              .metrics_path},
                  {"--trace", &opts.trace_path},
                  {"--cache", &opts.cache_path},
                  {"--bench-json", &opts.bench_json_path},
                  {"--aging-state", &opts.aging_state_path},
                  {"--fault-plan", &opts.fault_plan},
                  {"--floorplan", &opts.floorplan_path},
                  {"--threads", nullptr},
                  {"--seed", nullptr},
                  {"--fault-seed", nullptr},
                  {"--cores", nullptr},
                  {"--apps", nullptr}}) {
                if (arg == name ||
                    arg.rfind(std::string(name) + "=", 0) == 0) {
                    flag = name;
                    str_out = dest;
                    break;
                }
            }
            if (!flag) {
                if (strip) {
                    argv[out++] = argv[i];
                    continue;
                }
                usage(prog, stderr);
                util::fatal(util::cat("unknown argument '", arg,
                                      "' (see --help)"));
            }

            std::string value;
            const std::size_t flag_len = std::string(flag).size();
            if (arg.size() > flag_len) {
                value = arg.substr(flag_len + 1); // past the '='
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                util::fatal(util::cat(flag, " needs a value"));
            }

            if (str_out) {
                // --cache "" (in-memory) and --bench-json ""
                // (disable) are meaningful; the rest need a path.
                const bool allow_empty =
                    std::string(flag) == "--cache" ||
                    std::string(flag) == "--bench-json";
                if (value.empty() && !allow_empty)
                    util::fatal(
                        util::cat(flag, " needs a non-empty path"));
                *str_out = value;
                if (std::string(flag) == "--cache")
                    opts.cache_set = true;
                else if (std::string(flag) == "--bench-json")
                    opts.bench_json_set = true;
            } else if (std::string(flag) == "--threads") {
                parsePositive(flag, value, opts.threads);
            } else if (std::string(flag) == "--seed") {
                parsePositive(flag, value, opts.seed);
            } else if (std::string(flag) == "--fault-seed") {
                parsePositive(flag, value, opts.fault_seed);
            } else if (std::string(flag) == "--cores") {
                parsePositive(flag, value, opts.cores);
            } else { // --apps
                parsePositive(flag, value, opts.max_apps);
            }
        }
        if (strip) {
            argc = out;
            argv[out] = nullptr;
        }

        if (!opts.metrics_path.empty() || !opts.trace_path.empty())
            telemetry::writeFilesAtExit(opts.metrics_path,
                                        opts.trace_path);

        fault::installFaultFlags(opts.fault_plan, opts.fault_seed);
        return opts;
    }
};

inline std::string
cachePath(const Options &opts)
{
    // Three-way precedence: flag > RAMP_EVAL_CACHE > default. An
    // explicit --cache "" means "in-memory", so the flag must win
    // even when its value is empty -- falling through to the env var
    // here would silently reattach the file the caller opted out of.
    if (opts.cache_set)
        return opts.cache_path;
    return cachePath();
}

/** Perf-trajectory artifact path for a bench whose default artifact
 *  is @p default_name; "" = disabled by --bench-json "". */
inline std::string
benchJsonPath(const Options &opts, const std::string &default_name)
{
    return opts.bench_json_set ? opts.bench_json_path : default_name;
}

/** Write one BENCH_*.json artifact (no-op on an empty path),
 *  atomically: a reader sees the old file or the new one, never a
 *  torn one. The document is the bench's own record, diffed across
 *  commits, so benches must only ever APPEND keys. A failed write is
 *  reported on stderr and returned; the bench exits nonzero on it. */
[[nodiscard]] inline bool
writeBenchArtifact(const std::string &path,
                   const util::JsonValue &doc)
{
    if (path.empty())
        return true;
    if (auto saved = util::saveJson(path, doc); !saved) {
        std::fprintf(stderr, "bench: cannot write artifact: %s\n",
                     saved.error().str().c_str());
        return false;
    }
    std::fprintf(stderr, "  artifact: %s\n", path.c_str());
    return true;
}

/** Simulation controls used by every reproduction bench. */
inline core::EvalParams
benchEvalParams(const Options &opts = {})
{
    core::EvalParams params; // defaults; keyed into the cache
    params.seed = opts.seed;
    return params;
}

/** The explored suite: apps, base operating points, alpha_qual. */
struct Suite
{
    drm::EvaluationCache cache;
    util::ThreadPool pool;
    drm::OracleExplorer explorer;
    std::vector<workload::AppProfile> apps;
    std::vector<core::OperatingPoint> base_ops;
    sim::PerStructure<double> alpha_qual{};

    explicit Suite(const Options &opts = {})
        : cache(cachePath(opts)),
          pool(opts.threads),
          explorer(benchEvalParams(opts), &cache, &pool),
          apps(workload::standardApps())
    {
        if (opts.max_apps && opts.max_apps < apps.size())
            apps.resize(opts.max_apps);
        std::fprintf(stderr, "  suite: %u thread%s\n", pool.threads(),
                     pool.threads() == 1 ? "" : "s");
        base_ops.resize(apps.size());
        const auto batch =
            pool.parallelFor(apps.size(), [&](std::size_t i) {
                base_ops[i] = explorer.evaluateBase(apps[i]);
            });
        if (!batch.ok())
            throw ramp::util::RampException(
                batch.failures.front().second);
        alpha_qual = drm::alphaQualFromBaseline(base_ops);
    }

    ~Suite()
    {
        // Rendered from the telemetry registry (the cache mirrors its
        // per-instance counters there); one cache per bench process,
        // so the process-wide counts are this cache's counts.
        const auto snap = telemetry::Registry::instance().snapshot();
        std::fprintf(
            stderr,
            "  evaluation cache: %zu hits, %zu misses, "
            "%zu appended (loaded %zu, compacted %zu)\n",
            static_cast<std::size_t>(snap.counter("cache.hits")),
            static_cast<std::size_t>(snap.counter("cache.misses")),
            static_cast<std::size_t>(snap.counter("cache.appends")),
            static_cast<std::size_t>(snap.counter("cache.loaded")),
            static_cast<std::size_t>(
                snap.counter("cache.compacted_lines")));
    }

    /**
     * Qualification at a given T_qual: target 4000 FIT, V/f at base,
     * alpha_qual at the suite maximum (Section 3.7).
     */
    core::Qualification qualification(double t_qual_k) const
    {
        core::QualificationSpec spec;
        spec.t_qual_k = t_qual_k;
        spec.alpha_qual = alpha_qual;
        return core::Qualification(spec);
    }
};

} // namespace bench
} // namespace ramp

