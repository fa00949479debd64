/**
 * @file
 * bench_compare: the verdict on a change, from two sets of ramp_bench
 * run JSONs (parent and change) and the bounds in BENCHMARK.json.
 *
 *   bench_compare --spec BENCHMARK.json --parent P... --change C...
 *   bench_compare --spec BENCHMARK.json --check RUN...
 *
 * Each P/C/RUN is a run JSON or a directory of them. Untraced runs are
 * judged on the end-to-end metrics, traced runs on the per-layer ones;
 * per-layer metrics have no bound, so they never count as regressed
 * (they back a claimed gain, such as sweep_s for a simulator change).
 *
 * For every workload x metric it prints each side's median and
 * quartiles, the share of pairs the change won (runs paired by seed,
 * else by order; ties count for neither side), and a verdict:
 *
 *   unresolved  the parent's own quartile spread, relative to its
 *               median, exceeds the metric's bound -- unless every
 *               change run reads better (or, for a regression, worse)
 *               than every parent run;
 *   regressed   the change's median is worse than the parent's by more
 *               than the bound;
 *   improved    the change won at least 9 in 10 pairs and the medians
 *               differ by more than the parent's quartile spread;
 *   unchanged   otherwise.
 *
 * It also compares failed requests (fail_frac, which may not grow at
 * all) and, for runs of the same workload and seed, every output
 * digest. It refuses (exit 2) to compare runs whose host blocks or
 * run lengths differ, and exits 1 on a regression, a digest mismatch,
 * or a run that failed its own correctness checks.
 *
 * --check verifies that each run carries every metric BENCHMARK.json
 * names for its mode (end_to_end untraced, per_layer traced) with the
 * same unit, and that it passed its checks.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/stats.hh"
#include "util/logging.hh"

namespace {

using namespace ramp;
using namespace ramp::bench;

struct SpecMetric
{
    std::string name;
    std::string unit;
    bool higher_better = false;
    double bound = 0.0;
};

struct Spec
{
    std::vector<SpecMetric> end_to_end;
    std::vector<SpecMetric> per_layer;
};

[[noreturn]] void
die(int code, const std::string &msg)
{
    std::fprintf(stderr, "bench_compare: %s\n", msg.c_str());
    std::exit(code);
}

Spec
loadSpec(const std::string &path)
{
    auto doc = readJsonFile(path);
    if (!doc)
        die(2, doc.error().str());
    Spec spec;
    for (const char *section : {"end_to_end", "per_layer"}) {
        const util::JsonValue *list = doc.value().find(section);
        if (!list || !list->isArray())
            die(2, util::cat(path, ": no ", section, " list"));
        for (const auto &m : list->array) {
            const util::JsonValue *name = m.find("name");
            const util::JsonValue *unit = m.find("unit");
            const util::JsonValue *better = m.find("better");
            const util::JsonValue *bound = m.find("bound");
            if (!name || !name->isString() || !unit || !unit->isString() ||
                !better || !better->isString())
                die(2, util::cat(path, ": malformed ", section, " entry"));
            SpecMetric sm{name->str, unit->str, better->str == "higher",
                          bound && bound->isNumber()
                              ? bound->number
                              : std::numeric_limits<double>::infinity()};
            (std::string(section) == "end_to_end" ? spec.end_to_end
                                                  : spec.per_layer)
                .push_back(std::move(sm));
        }
    }
    return spec;
}

std::vector<std::pair<std::string, RunRecord>>
loadRuns(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    for (const auto &a : args) {
        if (std::filesystem::is_directory(a)) {
            std::vector<std::string> in_dir;
            for (const auto &e : std::filesystem::directory_iterator(a))
                if (e.path().extension() == ".json")
                    in_dir.push_back(e.path().string());
            std::sort(in_dir.begin(), in_dir.end());
            files.insert(files.end(), in_dir.begin(), in_dir.end());
        } else {
            files.push_back(a);
        }
    }
    std::vector<std::pair<std::string, RunRecord>> runs;
    for (const auto &f : files) {
        auto doc = readJsonFile(f);
        if (!doc)
            die(2, doc.error().str());
        auto run = runFromJson(doc.value());
        if (!run)
            die(2, f + ": " + run.error().str());
        runs.emplace_back(f, std::move(run.value()));
    }
    return runs;
}

int
check(const Spec &spec, const std::vector<std::string> &args)
{
    int bad = 0;
    for (const auto &[file, run] : loadRuns(args)) {
        const auto &want = run.trace ? spec.per_layer : spec.end_to_end;
        for (const auto &m : want) {
            const Metric *got = run.findMetric(m.name);
            if (!got) {
                std::printf("%s: missing metric %s\n", file.c_str(),
                            m.name.c_str());
                ++bad;
            } else if (got->unit != m.unit) {
                std::printf("%s: %s has unit %s, BENCHMARK.json says %s\n",
                            file.c_str(), m.name.c_str(), got->unit.c_str(),
                            m.unit.c_str());
                ++bad;
            } else if (!std::isfinite(got->value)) {
                std::printf("%s: %s is not finite\n", file.c_str(),
                            m.name.c_str());
                ++bad;
            }
        }
        if (!run.correct()) {
            std::printf("%s: the run failed its correctness checks\n",
                        file.c_str());
            ++bad;
        }
    }
    std::printf("check: %s\n", bad ? "FAILED" : "ok");
    return bad ? 1 : 0;
}

using Side = std::vector<const RunRecord *>;

const char *
verdict(const SpecMetric &m, const std::vector<double> &p,
        const std::vector<double> &c, const std::vector<std::pair<double, double>> &pairs,
        double &won_share)
{
    const auto qp = quartiles(p);
    const auto qc = quartiles(c);
    const double sign = m.higher_better ? -1.0 : 1.0; // + = worse
    const auto better = [&](double a, double b) { return sign * (a - b) < 0; };

    std::size_t won = 0;
    for (const auto &[pv, cv] : pairs)
        won += better(cv, pv) ? 1 : 0;
    won_share = pairs.empty() ? 0.0
                              : static_cast<double>(won) /
                                    static_cast<double>(pairs.size());

    const double worse_rel =
        qp[1] != 0.0 ? sign * (qc[1] - qp[1]) / std::fabs(qp[1]) : 0.0;
    const double spread = qp[1] != 0.0 ? (qp[2] - qp[0]) / std::fabs(qp[1])
                                       : 0.0;
    const double worst_c = m.higher_better ? *std::min_element(c.begin(), c.end())
                                           : *std::max_element(c.begin(), c.end());
    const double best_c = m.higher_better ? *std::max_element(c.begin(), c.end())
                                          : *std::min_element(c.begin(), c.end());
    const double worst_p = m.higher_better ? *std::min_element(p.begin(), p.end())
                                           : *std::max_element(p.begin(), p.end());
    const double best_p = m.higher_better ? *std::max_element(p.begin(), p.end())
                                          : *std::min_element(p.begin(), p.end());
    const bool all_better = better(worst_c, best_p);
    const bool all_worse = better(worst_p, best_c);
    const bool improved = won_share >= 0.9 && better(qc[1], qp[1]) &&
                          std::fabs(qc[1] - qp[1]) > qp[2] - qp[0];

    if (spread > m.bound) {
        if (all_better && improved)
            return "improved";
        if (all_worse && worse_rel > m.bound)
            return "regressed";
        return "unresolved";
    }
    if (worse_rel > m.bound)
        return "regressed";
    return improved ? "improved" : "unchanged";
}

int
compare(const Spec &spec, const std::vector<std::string> &parent_args,
        const std::vector<std::string> &change_args)
{
    const auto parent_runs = loadRuns(parent_args);
    const auto change_runs = loadRuns(change_args);
    // (workload, traced) -> (parent runs, change runs)
    std::map<std::pair<std::string, bool>, std::pair<Side, Side>> groups;
    const RunRecord *first = nullptr;
    int status = 0;
    for (int side = 0; side < 2; ++side)
        for (const auto &[file, run] : side ? change_runs : parent_runs) {
            if (!first)
                first = &run;
            else if (!(run.host == first->host))
                die(2, util::cat("refusing to compare: ", file,
                                 " ran on another host block (nproc ",
                                 run.host.nproc, ", threads ",
                                 run.host.threads, ", ",
                                 run.host.build_type, ", ",
                                 run.host.compiler, ")"));
            else if (run.seconds != first->seconds)
                die(2, util::cat("refusing to compare: ", file, " ran ",
                                 run.seconds, " s phases, not ",
                                 first->seconds));
            if (!run.correct()) {
                std::printf("%s failed its correctness checks\n",
                            file.c_str());
                status = 1;
            }
            auto &sides = groups[{run.workload, run.trace}];
            (side ? sides.second : sides.first).push_back(&run);
        }

    std::printf("%-22s %-36s %26s %26s %6s  %s\n", "workload", "metric",
                "parent median [q1, q3]", "change median [q1, q3]", "won",
                "verdict");
    for (const auto &[key, sides] : groups) {
        const auto &[parent, change] = sides;
        const std::string workload =
            key.first + (key.second ? " (traced)" : "");
        const auto &metrics = key.second ? spec.per_layer : spec.end_to_end;
        if (parent.empty() || change.empty()) {
            std::printf("%-22s (runs on one side only; not compared)\n",
                        workload.c_str());
            continue;
        }
        if (parent.size() < 10 || change.size() < 10)
            std::printf("%-22s note: %zu vs %zu runs; a gain needs 10 "
                        "pairs\n",
                        workload.c_str(), parent.size(), change.size());

        // Pair by seed where both sides ran it, else by order.
        std::vector<std::pair<const RunRecord *, const RunRecord *>> pairs;
        for (const RunRecord *p : parent)
            for (const RunRecord *c : change)
                if (p->seed == c->seed && p->smoke == c->smoke)
                    pairs.emplace_back(p, c);
        if (pairs.empty())
            for (std::size_t i = 0;
                 i < std::min(parent.size(), change.size()); ++i)
                pairs.emplace_back(parent[i], change[i]);

        for (const auto &m : metrics) {
            std::vector<double> p, c;
            std::vector<std::pair<double, double>> pv;
            for (const RunRecord *r : parent)
                if (const Metric *x = r->findMetric(m.name))
                    p.push_back(x->value);
            for (const RunRecord *r : change)
                if (const Metric *x = r->findMetric(m.name))
                    c.push_back(x->value);
            for (const auto &[pr, cr] : pairs) {
                const Metric *a = pr->findMetric(m.name);
                const Metric *b = cr->findMetric(m.name);
                if (a && b)
                    pv.emplace_back(a->value, b->value);
            }
            if (p.empty() || c.empty()) {
                std::printf("%-22s %-36s missing on one side\n",
                            workload.c_str(), m.name.c_str());
                status = 1;
                continue;
            }
            double won = 0.0;
            const char *v = verdict(m, p, c, pv, won);
            const auto qp = quartiles(p);
            const auto qc = quartiles(c);
            std::printf("%-22s %-36s %10.4g [%.4g, %.4g] %10.4g [%.4g, "
                        "%.4g] %5.0f%%  %s\n",
                        workload.c_str(), m.name.c_str(), qp[1], qp[0],
                        qp[2], qc[1], qc[0], qc[2], won * 100.0, v);
            if (std::string(v) == "regressed")
                status = 1;
        }

        // fail_frac: failed requests may not grow at all.
        const auto frac = [](const Side &s) {
            double failed = 0, attempted = 0;
            for (const RunRecord *r : s) {
                failed += static_cast<double>(r->failed);
                attempted += static_cast<double>(r->attempted);
            }
            return attempted > 0 ? failed / attempted : 0.0;
        };
        const double fp = frac(parent), fc = frac(change);
        std::printf("%-22s %-36s %26.6g %26.6g %6s  %s\n", workload.c_str(),
                    "fail_frac", fp, fc, "",
                    fc > fp ? "regressed" : "unchanged");
        if (fc > fp)
            status = 1;

        // Same workload and seed must produce the same outputs.
        for (const auto &[pr, cr] : pairs) {
            if (pr->seed != cr->seed || pr->smoke != cr->smoke)
                continue;
            for (const auto &[name, digest] : pr->digests) {
                const auto it = cr->digests.find(name);
                if (it != cr->digests.end() && it->second != digest) {
                    std::printf("%-22s digest %s differs at seed %llu: "
                                "%s vs %s\n",
                                workload.c_str(), name.c_str(),
                                static_cast<unsigned long long>(pr->seed),
                                digest.c_str(), it->second.c_str());
                    status = 1;
                }
            }
        }
    }
    std::printf("result: %s\n", status ? "REGRESSION OR MISMATCH" : "ok");
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path;
    std::vector<std::string> parent, change, checked;
    std::vector<std::string> *dest = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec" && i + 1 < argc) {
            spec_path = argv[++i];
            dest = nullptr;
        } else if (arg == "--parent") {
            dest = &parent;
        } else if (arg == "--change") {
            dest = &change;
        } else if (arg == "--check") {
            dest = &checked;
        } else if (dest && arg.rfind("--", 0) != 0) {
            dest->push_back(arg);
        } else {
            die(2, "usage: bench_compare --spec BENCHMARK.json "
                   "(--parent RUN... --change RUN... | --check RUN...)");
        }
    }
    if (spec_path.empty())
        die(2, "--spec BENCHMARK.json is required");
    const Spec spec = loadSpec(spec_path);
    if (!checked.empty())
        return check(spec, checked);
    if (parent.empty() || change.empty())
        die(2, "need runs on both sides (--parent and --change)");
    return compare(spec, parent, change);
}
