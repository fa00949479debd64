/**
 * @file
 * The evaluation engine behind the serving layer, shared by
 * ramp_served, bench_serve's direct-path oracle, and the serve
 * tests.
 *
 * EvaluationService owns the stack a bench's Suite owns -- the
 * persistent EvaluationCache, the ThreadPool, the OracleExplorer,
 * the application suite, and the paper's qualification setup
 * (alpha_qual from the base operating points) -- but exposes it
 * request-at-a-time: evaluate one (app, space, config) point, or run
 * one DRM/DTM oracle selection over a space. Results are returned
 * both as library types (for single-flight sharing) and as encoded
 * protocol JSON, and the encoding is the *only* serializer either
 * the server or the direct path uses, so a served reply is
 * byte-identical to the equivalent in-process call by construction.
 *
 * The service also keeps the fleet's aging registry: per-chip
 * aging::AgingState accumulated from report_usage deltas, consulted
 * by remaining_lifetime to run a slack-banking selection (see
 * aging/slack_bank.hh) at the effective qualification temperature
 * the chip's banked slack affords.
 *
 * Thread safety: ensureReady(), select(), and remainingLifetime()
 * fan work out across the owned pool. ensureReady() runs once
 * (std::call_once: later callers wait for the first); the others
 * must only be called from one driver thread at a time (the
 * server's one executor: its batcher, or a reader running a request
 * inline).
 * evaluatePoint()/encodeEvaluation() never touch the pool and are
 * safe to call concurrently from *inside* a pool batch -- that is
 * exactly how the server parallelizes a batch of evaluate requests.
 * reportUsage() takes only the registry lock and is safe from any
 * thread (the server answers it inline).
 */

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aging/state.hh"
#include "core/evaluator.hh"
#include "core/qualification.hh"
#include "drm/adaptation.hh"
#include "drm/eval_cache.hh"
#include "drm/oracle.hh"
#include "serve/protocol.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp {
namespace serve {

/** Construction knobs for the service. */
struct ServiceOptions
{
    /** Evaluation-cache path ("" = in-memory only). */
    std::string cache_path;
    /** Pool concurrency; 0 = util::defaultThreadCount(). */
    unsigned threads = 0;
    /** Truncate the suite to its first N applications; 0 = all. */
    std::size_t max_apps = 0;
    /** Simulation controls (keyed into the cache). */
    core::EvalParams eval_params{};
};

/** The long-lived evaluation state behind the server. */
class EvaluationService
{
  public:
    explicit EvaluationService(ServiceOptions opts);

    /**
     * Evaluate every application's base operating point (through the
     * cache) and derive alpha_qual; then explore, in one pass, every
     * (app, space) whose timing records the cache held on arrival (a
     * warm restart), so evaluatePoint() and the selections are served
     * from those explorations. A cold cache explores nothing, and
     * simulates only the base points.
     * Idempotent; uses the pool. The server runs this before its
     * first batch; direct callers run it before
     * evaluatePoint()/select().
     */
    void ensureReady();

    /** The (possibly truncated) application suite. */
    const std::vector<workload::AppProfile> &apps() const
    {
        return apps_;
    }

    util::ThreadPool &pool() { return pool_; }
    drm::EvaluationCache &cache() { return cache_; }

    /**
     * Evaluate one explored point: configSpace(space)[config] run on
     * @p app. A space explored by ensureReady() answers from its
     * exploration, bit for bit what evaluating the point gives.
     * Unknown apps and out-of-range config indices are InvalidInput;
     * evaluation failures carry their RampError through. Safe inside
     * a pool batch (never touches the pool, and reads only what
     * ensureReady() wrote).
     */
    [[nodiscard]] util::Result<core::OperatingPoint>
    evaluatePoint(const std::string &app, drm::AdaptationSpace space,
                  std::size_t config);

    /**
     * Encode an evaluate reply's result object for @p req from an
     * already-evaluated point: relative performance against the
     * app's base point, application FIT under the request's
     * qualification temperature, temperatures, power, convergence.
     */
    [[nodiscard]] util::Result<util::JsonValue>
    encodeEvaluation(const Request &req,
                     const core::OperatingPoint &op);

    /**
     * Run one DRM or DTM oracle selection (req.type selects which).
     * The explored space is memoized per (app, space), so repeated
     * selections at different temperatures re-run only the cheap
     * constraint evaluation. Driver-thread only (fans out on the pool).
     */
    [[nodiscard]] util::Result<util::JsonValue> select(const Request &req);

    /**
     * v3 select_chip: one chip-level DRM selection
     * (cmp::selectChipDrm) for one application per core under a
     * single chip-wide FIT budget -- the default per-core target
     * times the core count -- priced by one shared qualification at
     * the request's T_qual. The request's floorplan (already
     * validated by the protocol layer) or the built-in grid fixes
     * the chip shape; its core count must match the app list.
     * Explored spaces are memoized per (app, space) exactly like
     * select(). Driver-thread only (fans out on the pool).
     */
    [[nodiscard]] util::Result<util::JsonValue> selectChip(const Request &req);

    /** Cache usage counters as a JSON object (stats replies). */
    util::JsonValue cacheStatsJson() const;

    /**
     * v2 report_usage: validate the request's AgingState delta and
     * merge it into the named chip's accumulated state. Thread-safe
     * (the registry has its own lock; no pool, no evaluation), so
     * the server answers it inline from reader threads. Returns the
     * chip's post-merge summary (age, consumed fraction).
     *
     * A non-zero req.seq makes the merge idempotent: the registry
     * remembers each chip's highest applied sequence number and
     * acknowledges a replayed (or out-of-date) seq with the current
     * summary *without* re-adding the delta -- the additive merge
     * would otherwise double-count damage when a client retries
     * after a lost reply. seq 0 is the legacy unsequenced form.
     */
    [[nodiscard]] util::Result<util::JsonValue> reportUsage(const Request &req);

    /**
     * v2 cache_append: ingest one replicated eval-cache record from
     * a peer backend. Idempotent by record key; malformed records
     * are InvalidInput. Thread-safe (cache locks only; no pool), so
     * the server answers it inline from reader threads. Returns
     * {"applied":bool,"records":N}.
     */
    [[nodiscard]] util::Result<util::JsonValue> cacheAppend(const Request &req);

    /**
     * v2 remaining_lifetime: look up the chip's accumulated state
     * (unknown chips are InvalidInput -- report usage first), run
     * the slack-banking policy to get the effective qualification
     * temperature its banked slack affords, select the DRM point at
     * that temperature, and
     * answer consumed fraction, slack, the selection, and the ETA
     * until the budget is spent at the selected point's FIT.
     * Driver-thread only (runs a selection on the pool).
     */
    [[nodiscard]] util::Result<util::JsonValue> remainingLifetime(const Request &req);

    /** A chip's accumulated state, if it has reported (tests). */
    std::optional<aging::AgingState>
    chipState(const std::string &chip) const;

    /**
     * Load a persisted chip registry
     * ({"v":2,"chips":{name:state},"seq":{name:N}}, or v1 without
     * "seq", whose chips all start at seq 0)
     * with recoverAgingState semantics per the whole file: missing
     * file = empty registry, corrupt file = quarantine + empty,
     * future version = structured InvalidInput.
     */
    [[nodiscard]] util::Result<void> loadAgingRegistry(const std::string &path);

    /** Persist the chip registry (atomic temp-file + rename). */
    [[nodiscard]] util::Result<void> saveAgingRegistry(const std::string &path) const;

  private:
    /** Unknown-app guard; InvalidInput with the suite's names. */
    [[nodiscard]] util::Result<std::size_t> appIndex(const std::string &app) const;

    /** The paper's qualification spec at @p t_qual_k (alpha_qual from
     *  the base points); callers build the core::Qualification per
     *  request (40 log rates, about 1 us). A @p t_qual_k at or below
     *  the qualification ambient is InvalidInput naming @p what, not
     *  the fatal core::Qualification makes of it. Thread-safe after
     *  ensureReady(). */
    [[nodiscard]] util::Result<core::QualificationSpec>
    qualificationSpec(double t_qual_k,
                      std::string_view what = "t_qual_k") const;

    /** Memoized explored space (driver-thread only). */
    [[nodiscard]] util::Result<std::shared_ptr<const drm::ExploredApp>>
    explored(std::size_t app_index, drm::AdaptationSpace space);

    ServiceOptions opts_;
    drm::EvaluationCache cache_;
    util::ThreadPool pool_;
    drm::OracleExplorer explorer_;
    std::vector<workload::AppProfile> apps_;

    std::once_flag ready_once_;
    std::vector<core::OperatingPoint> base_ops_;
    sim::PerStructure<double> alpha_qual_{};

    /** Spaces explored by ensureReady(); read-only afterwards. */
    std::map<std::pair<std::size_t, drm::AdaptationSpace>,
             std::shared_ptr<const drm::ExploredApp>>
        ready_explored_;

    /** Driver-thread only (no lock): spaces explored since. */
    std::map<std::pair<std::size_t, drm::AdaptationSpace>,
             std::shared_ptr<const drm::ExploredApp>>
        explored_;

    mutable std::mutex aging_mu_;
    // ramp-lint: guarded_by(aging_mu_)
    std::map<std::string, aging::AgingState> chips_;
    /** Highest applied report_usage seq per chip (0 = none). */
    // ramp-lint: guarded_by(aging_mu_)
    std::map<std::string, std::uint64_t> chip_seq_;
};

} // namespace serve
} // namespace ramp
