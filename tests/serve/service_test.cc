/**
 * @file
 * EvaluationService warm-up: a cold cache explores nothing at ready;
 * a warm restart explores exactly the spaces whose timing records the
 * cache holds, without a miss, and answers evaluate requests from
 * those explorations byte-identically to evaluating afresh.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "drm/oracle.hh"
#include "serve/service.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

namespace ramp::serve {
namespace {

ServiceOptions
quickOptions(const std::string &cache_path)
{
    ServiceOptions opts;
    opts.cache_path = cache_path;
    opts.threads = 2;
    opts.max_apps = 1;
    opts.eval_params.warmup_uops = 40'000;
    opts.eval_params.measure_uops = 60'000;
    return opts;
}

std::uint64_t
explorations()
{
    return telemetry::Registry::instance().snapshot().counter(
        "oracle.explores");
}

Request
evaluateRequest(const std::string &app, drm::AdaptationSpace space,
                std::size_t config)
{
    Request req;
    req.type = RequestType::Evaluate;
    req.app = app;
    req.space = space;
    req.config = config;
    req.t_qual_k = 360.0;
    return req;
}

Request
selectRequest(const std::string &app, drm::AdaptationSpace space)
{
    Request req;
    req.type = RequestType::SelectDrm;
    req.app = app;
    req.space = space;
    req.t_qual_k = 355.0;
    return req;
}

TEST(ServiceReady, ColdCacheSimulatesOnlyTheBasePoints)
{
    EvaluationService service(quickOptions(""));
    const std::uint64_t explores0 = explorations();
    service.ensureReady();
    EXPECT_EQ(explorations(), explores0);
    EXPECT_EQ(service.cache().stats().misses, 1u);
    EXPECT_EQ(service.cache().size(), 1u);
}

TEST(ServiceReady, WarmRestartExploresCachedSpacesAndServesFromThem)
{
    const std::string path =
        testing::TempDir() + "ramp_service_test_warm.txt";
    std::remove(path.c_str());
    std::string app;
    std::string cold_select;
    {
        // Cold: the base point, then the Arch space's 17 other timing
        // keys, simulated by a selection.
        EvaluationService cold(quickOptions(path));
        cold.ensureReady();
        app = cold.apps()[0].name;
        auto sel = cold.select(selectRequest(app, drm::AdaptationSpace::Arch));
        ASSERT_TRUE(sel.ok()) << sel.error().str();
        cold_select = util::writeJson(sel.value());
        EXPECT_EQ(cold.cache().stats().misses,
                  drm::archConfigs().size());
    }

    // Warm: Arch, DVS and ArchDVS share those records, so all three
    // are explored at ready; FetchThrottle's are missing, so it is not.
    EvaluationService warm(quickOptions(path));
    const std::uint64_t explores0 = explorations();
    warm.ensureReady();
    EXPECT_EQ(explorations(), explores0 + 3);
    EXPECT_EQ(warm.cache().stats().misses, 0u);
    const std::size_t hits = warm.cache().stats().hits;

    auto sel = warm.select(selectRequest(app, drm::AdaptationSpace::Arch));
    ASSERT_TRUE(sel.ok()) << sel.error().str();
    EXPECT_EQ(util::writeJson(sel.value()), cold_select);

    // Every explored evaluate is answered without touching the cache,
    // and byte-identically to evaluating the point afresh.
    drm::EvaluationCache fresh_cache(path);
    const drm::OracleExplorer fresh(quickOptions(path).eval_params,
                                    &fresh_cache);
    for (const auto space :
         {drm::AdaptationSpace::Arch, drm::AdaptationSpace::Dvs,
          drm::AdaptationSpace::ArchDvs}) {
        const auto cfgs = drm::configSpace(space);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const Request req = evaluateRequest(app, space, c);
            auto served = warm.evaluatePoint(app, space, c);
            ASSERT_TRUE(served.ok()) << served.error().str();
            auto again = fresh.tryEvaluate(cfgs[c], warm.apps()[0]);
            ASSERT_TRUE(again.ok()) << again.error().str();
            auto a = warm.encodeEvaluation(req, served.value());
            auto b = warm.encodeEvaluation(req, again.value());
            ASSERT_TRUE(a.ok() && b.ok());
            EXPECT_EQ(util::writeJson(a.value()), util::writeJson(b.value()))
                << drm::adaptationSpaceName(space) << " config " << c;
        }
    }
    EXPECT_EQ(warm.cache().stats().hits, hits);
    EXPECT_EQ(warm.cache().stats().misses, 0u);

    // A space whose records are missing still evaluates (and
    // simulates) on demand.
    auto throttled =
        warm.evaluatePoint(app, drm::AdaptationSpace::FetchThrottle, 3);
    ASSERT_TRUE(throttled.ok()) << throttled.error().str();
    EXPECT_EQ(warm.cache().stats().misses, 1u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace
} // namespace ramp::serve
