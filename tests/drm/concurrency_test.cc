/**
 * @file
 * Concurrency tests (ctest label: concurrency; run these under the
 * `tsan` preset). Two surfaces:
 *
 *  - EvaluationCache hammered by concurrent writers/readers: no lost
 *    or torn records in memory or after reloading the append-log;
 *  - OracleExplorer::explore on a thread pool: output bit-identical
 *    to the serial sweep, with and without a cache attached.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "drm/oracle.hh"
#include "util/thread_pool.hh"

namespace ramp::drm {
namespace {

std::string
tmpPath(const char *tag)
{
    return testing::TempDir() + "ramp_concurrency_test_" + tag +
           ".txt";
}

/** A record whose every field is derived from (tid, k), so a torn or
 *  cross-thread-mixed record is detectable field-by-field. */
CachedEvaluation
valueFor(unsigned tid, unsigned k)
{
    CachedEvaluation v;
    v.activity.cycles = 1000 + tid;
    v.activity.retired = 500 + k;
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        v.activity.activity[i] =
            0.01 * (tid + 1) + 0.001 * static_cast<double>(i);
    v.stats.cycles = v.activity.cycles;
    v.stats.retired = v.activity.retired;
    v.stats.branches = 100 * tid + k;
    v.stats.mispredicts = tid;
    v.l1d_miss_ratio = 0.001 * (tid + 1);
    v.l2_miss_ratio = 0.002 * (k + 1);
    return v;
}

void
expectValue(const CachedEvaluation &got, unsigned tid, unsigned k)
{
    const auto want = valueFor(tid, k);
    EXPECT_EQ(got.activity.cycles, want.activity.cycles);
    EXPECT_EQ(got.activity.retired, want.activity.retired);
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        EXPECT_EQ(got.activity.activity[i], want.activity.activity[i]);
    EXPECT_EQ(got.stats.branches, want.stats.branches);
    EXPECT_EQ(got.stats.mispredicts, want.stats.mispredicts);
    EXPECT_EQ(got.l1d_miss_ratio, want.l1d_miss_ratio);
    EXPECT_EQ(got.l2_miss_ratio, want.l2_miss_ratio);
}

TEST(EvalCacheConcurrency, HammerDistinctKeysNoLostRecords)
{
    const auto path = tmpPath("hammer");
    std::remove(path.c_str());
    constexpr unsigned num_threads = 8;
    constexpr unsigned keys_per_thread = 50;

    {
        EvaluationCache cache(path);
        std::vector<std::thread> threads;
        for (unsigned tid = 0; tid < num_threads; ++tid) {
            threads.emplace_back([&cache, tid] {
                for (unsigned k = 0; k < keys_per_thread; ++k) {
                    const std::string key = "t" + std::to_string(tid) +
                                            "_k" + std::to_string(k);
                    cache.put(key, valueFor(tid, k));
                    // Interleave reads of our own and others' keys.
                    (void)cache.get(key);
                    (void)cache.get("t0_k" + std::to_string(k));
                }
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(cache.size(), num_threads * keys_per_thread);
        EXPECT_EQ(cache.stats().appended,
                  num_threads * keys_per_thread);
    }

    // Reload from the append-log: every record present, none torn.
    EvaluationCache reloaded(path);
    ASSERT_EQ(reloaded.size(), num_threads * keys_per_thread);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
        for (unsigned k = 0; k < keys_per_thread; ++k) {
            const std::string key = "t" + std::to_string(tid) + "_k" +
                                    std::to_string(k);
            const auto got = reloaded.get(key);
            ASSERT_TRUE(got.has_value()) << key;
            expectValue(*got, tid, k);
        }
    }
    std::remove(path.c_str());
}

TEST(EvalCacheConcurrency, ContendedOverwritesStayWhole)
{
    const auto path = tmpPath("contended");
    std::remove(path.c_str());
    constexpr unsigned num_threads = 8;
    constexpr unsigned rounds = 30;
    constexpr unsigned shared_keys = 5;

    {
        EvaluationCache cache(path);
        std::vector<std::thread> threads;
        for (unsigned tid = 0; tid < num_threads; ++tid) {
            threads.emplace_back([&cache, tid] {
                for (unsigned r = 0; r < rounds; ++r) {
                    for (unsigned k = 0; k < shared_keys; ++k) {
                        const std::string key =
                            "shared_" + std::to_string(k);
                        // Every field derives from tid alone, so a
                        // record mixing two writers is detectable.
                        cache.put(key, valueFor(tid, 0));
                        const auto got = cache.get(key);
                        ASSERT_TRUE(got.has_value());
                    }
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }

    // Reload keeps, for each key, the complete record of exactly one
    // writer (last line wins; which writer is timing-dependent).
    EvaluationCache reloaded(path);
    ASSERT_EQ(reloaded.size(), shared_keys);
    for (unsigned k = 0; k < shared_keys; ++k) {
        const auto got =
            reloaded.get("shared_" + std::to_string(k));
        ASSERT_TRUE(got.has_value());
        ASSERT_GE(got->activity.cycles, 1000u);
        const unsigned tid =
            static_cast<unsigned>(got->activity.cycles - 1000);
        ASSERT_LT(tid, num_threads);
        expectValue(*got, tid, 0);
    }
    std::remove(path.c_str());
}

/** Exact (bit-level, via ==) equality of two operating points. */
void
expectOpIdentical(const core::OperatingPoint &a,
                  const core::OperatingPoint &b)
{
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.retired, b.activity.retired);
    for (std::size_t i = 0; i < sim::num_structures; ++i) {
        EXPECT_EQ(a.activity.activity[i], b.activity.activity[i]);
        EXPECT_EQ(a.temps_k[i], b.temps_k[i]);
    }
    EXPECT_EQ(a.sink_temp_k, b.sink_temp_k);
    EXPECT_EQ(a.totalPower(), b.totalPower());
    EXPECT_EQ(a.uopsPerSecond(), b.uopsPerSecond());
    EXPECT_EQ(a.l1d_miss_ratio, b.l1d_miss_ratio);
    EXPECT_EQ(a.l1i_miss_ratio, b.l1i_miss_ratio);
    EXPECT_EQ(a.l2_miss_ratio, b.l2_miss_ratio);
}

void
expectExploredIdentical(const ExploredApp &a, const ExploredApp &b)
{
    EXPECT_EQ(a.app_name, b.app_name);
    expectOpIdentical(a.base, b.base);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].perf_rel, b.points[i].perf_rel) << i;
        expectOpIdentical(a.points[i].op, b.points[i].op);
    }
}

core::EvalParams
quickParams()
{
    core::EvalParams p;
    p.warmup_uops = 30'000;
    p.measure_uops = 40'000;
    return p;
}

TEST(ParallelExplore, BitIdenticalToSerialWithCache)
{
    const auto &app = workload::findApp("twolf");

    EvaluationCache serial_cache;
    const OracleExplorer serial(quickParams(), &serial_cache);
    const auto expect = serial.explore(app, AdaptationSpace::Dvs);

    util::ThreadPool pool(4);
    EvaluationCache parallel_cache;
    const OracleExplorer parallel(quickParams(), &parallel_cache,
                                  &pool);
    const auto got = parallel.explore(app, AdaptationSpace::Dvs);

    expectExploredIdentical(expect, got);
    // Same selections follow from identical points, but check the
    // end-to-end claim explicitly at a binding qualification.
    core::QualificationSpec spec;
    spec.t_qual_k = 360.0;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    const auto sel_s = selectDrm(expect, qual);
    const auto sel_p = selectDrm(got, qual);
    EXPECT_EQ(sel_s.index, sel_p.index);
    EXPECT_EQ(sel_s.perf_rel, sel_p.perf_rel);
    EXPECT_EQ(sel_s.fit, sel_p.fit);
}

TEST(ParallelExplore, BitIdenticalToSerialWithoutCache)
{
    const auto &app = workload::findApp("gzip");

    const OracleExplorer serial(quickParams());
    const auto expect = serial.explore(app, AdaptationSpace::Arch);

    util::ThreadPool pool(3);
    OracleExplorer parallel(quickParams());
    parallel.setPool(&pool);
    const auto got = parallel.explore(app, AdaptationSpace::Arch);

    expectExploredIdentical(expect, got);
}

TEST(ParallelExplore, SharedFileCacheAcrossParallelRuns)
{
    // A parallel cold run populates the file; a serial warm run on a
    // fresh instance must reproduce it bit-identically from disk.
    const auto path = tmpPath("explore_shared");
    std::remove(path.c_str());
    const auto &app = workload::findApp("ammp");

    util::ThreadPool pool(4);
    ExploredApp cold;
    {
        EvaluationCache cache(path);
        const OracleExplorer explorer(quickParams(), &cache, &pool);
        cold = explorer.explore(app, AdaptationSpace::Dvs);
        EXPECT_GT(cache.stats().appended, 0u);
    }
    {
        EvaluationCache cache(path);
        EXPECT_GT(cache.stats().loaded, 0u);
        const OracleExplorer explorer(quickParams(), &cache);
        const auto warm = explorer.explore(app, AdaptationSpace::Dvs);
        expectExploredIdentical(cold, warm);
        EXPECT_EQ(cache.stats().misses, 0u);
    }
    std::remove(path.c_str());
}

TEST(ParallelExplore, OnePassOverSpacesIsThreadCountInvariant)
{
    // explore() over several (app, space) tasks in one pass, from a
    // cold cache and then a warm one: one thread and four give the
    // same explorations bit for bit, equal to one explore() per task,
    // and the warm pass misses nothing.
    const std::vector<ExploreTask> tasks{
        {&workload::findApp("twolf"), AdaptationSpace::Dvs},
        {&workload::findApp("gzip"), AdaptationSpace::Arch},
        {&workload::findApp("twolf"), AdaptationSpace::Arch},
        {&workload::findApp("gzip"), AdaptationSpace::Dvs}};

    EvaluationCache serial_cache;
    const OracleExplorer serial(quickParams(), &serial_cache);
    const auto cold = serial.explore(tasks);
    const std::size_t cold_misses = serial_cache.stats().misses;

    util::ThreadPool pool(4);
    EvaluationCache parallel_cache;
    const OracleExplorer parallel(quickParams(), &parallel_cache, &pool);
    const auto cold4 = parallel.explore(tasks);
    EXPECT_EQ(parallel_cache.stats().misses, cold_misses);
    // One miss per unique timing key: both apps' 18 arch
    // configurations (the base among them).
    EXPECT_EQ(cold_misses, 2 * archConfigs().size());

    const auto warm = serial.explore(tasks);
    const auto warm4 = parallel.explore(tasks);
    EXPECT_EQ(serial_cache.stats().misses, cold_misses);
    EXPECT_EQ(parallel_cache.stats().misses, cold_misses);

    ASSERT_EQ(cold.size(), tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        for (const auto *got : {&cold4[t], &warm[t], &warm4[t]}) {
            expectExploredIdentical(cold[t], *got);
            EXPECT_EQ(got->fastestFirst(), cold[t].fastestFirst());
        }
        expectExploredIdentical(
            cold[t], parallel.explore(*tasks[t].app, tasks[t].space));
    }
}

} // namespace
} // namespace ramp::drm
