/**
 * @file
 * The mixed request stream bench_serve drives its server with:
 * evaluate / select_drm / select_dtm / stats, deterministic in
 * (seed, connection, sequence number).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "drm/adaptation.hh"
#include "serve/protocol.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/profile.hh"

namespace ramp {
namespace bench {

/** One request of the mixed distribution, deterministic in (@p seed,
 *  @p worker, @p seq), so every run at one seed exercises the same
 *  stream. Seed 1 is the reference stream
 *  (ServeMix.SeedOneIsTheReferenceStream pins it); each other seed
 *  draws its own. */
inline serve::Request
mixedRequest(std::uint64_t seed, std::size_t worker, std::size_t seq,
             const std::vector<workload::AppProfile> &apps)
{
    util::Rng rng(0x62656e63685f7376ull ^ (worker * 0x9e3779b9ull) ^
                  seq ^ ((seed - 1) * 0xbf58476d1ce4e5b9ull));
    serve::Request req;
    req.app = apps[rng.below(apps.size())].name;
    req.space = drm::AdaptationSpace::Dvs;
    const double roll = rng.uniform();
    if (roll < 0.70) {
        req.type = serve::RequestType::Evaluate;
        req.config =
            rng.below(drm::configSpace(req.space).size());
    } else if (roll < 0.85) {
        req.type = serve::RequestType::SelectDrm;
        // Half the selections sweep the full ArchDVS space.
        if (rng.uniform() < 0.5)
            req.space = drm::AdaptationSpace::ArchDvs;
    } else if (roll < 0.95) {
        req.type = serve::RequestType::SelectDtm;
        if (rng.uniform() < 0.5)
            req.space = drm::AdaptationSpace::ArchDvs;
    } else {
        req.type = serve::RequestType::Stats;
    }
    return req;
}

/** Signature for the expected-answer table. */
inline std::string
requestKey(const serve::Request &req)
{
    return util::cat(serve::requestTypeName(req.type), "/", req.app,
                     "/", drm::adaptationSpaceName(req.space), "/",
                     req.config);
}

} // namespace bench
} // namespace ramp
