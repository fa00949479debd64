/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * A FaultPlan describes which fault kinds are armed and at what
 * per-opportunity rate; it is parsed from JSON (inline or a file) and
 * installed process-wide before a run starts. Injection sites pull
 * their decisions from two deterministic sources so that a faulted
 * run is exactly reproducible from (plan, seed):
 *
 *  - Serial sites (the transient control loop's sensor streams) use a
 *    per-stream Rng seeded from the plan seed and the stream name, so
 *    streams are decorrelated but each is a fixed sequence.
 *  - Parallel sites (oracle exploration, cache writes) must not
 *    depend on scheduling order, so they decide from a pure hash of
 *    the plan seed and the item's identity (cache key, configuration)
 *    -- the same item faults or not at every thread count.
 *
 * With no plan installed every hook is a null-pointer check; the
 * clean path stays bit-identical to a build without fault hooks.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.hh"
#include "util/random.hh"

namespace ramp {
namespace fault {

/** The injectable fault kinds (ISCA'04 control path hazards). */
enum class FaultKind : std::uint8_t {
    SensorNoise = 0, ///< Additive Gaussian error on a sensor reading.
    SensorQuantize,  ///< Reading snapped to a coarse ADC grid.
    SensorStuck,     ///< Sensor latches its last value for `hold` reads.
    SensorDropout,   ///< Reading lost entirely (NaN).
    SensorDelay,     ///< A reading from `delay` observations ago.
    CacheCorrupt,    ///< Eval-cache record garbled on write.
    NonConvergence,  ///< Thermal fixed point forced to its limit.
    PowerNan,        ///< One block's power sample becomes NaN.
    ConnDrop,        ///< Server drops a connection instead of replying.
    ConnSlow,        ///< Server delays a reply by `delay_ms`.
    ConnRefuse,      ///< Client-side connect attempt refused outright.
};

inline constexpr std::size_t num_fault_kinds = 11;

/** Stable kebab-case name ("sensor-noise") for plans and logs. */
const char *faultKindName(FaultKind kind);

/** Inverse of faultKindName; nullopt for unknown names. */
std::optional<FaultKind> faultKindFromName(std::string_view name);

/**
 * One fault kind's knobs. rate is a per-opportunity probability; the
 * remaining fields are dimensionless multipliers of the stream's
 * scale (so one plan applies to kelvin and FIT streams alike) or
 * counts of readings.
 */
struct FaultSpec
{
    double rate = 0.0;      ///< Probability per opportunity, [0, 1].
    double sigma = 0.02;    ///< Noise stddev as a fraction of scale.
    double step = 0.05;     ///< Quantisation grid as a fraction of scale.
    double magnitude = 0.5; ///< Corruption amplitude as a fraction of scale.
    std::uint32_t hold = 3; ///< Readings a stuck sensor repeats.
    std::uint32_t delay = 2; ///< Readings a delayed sample lags.
    double delay_ms = 20.0; ///< Reply delay injected by conn-slow.
};

/** The full injection campaign: a seed plus one spec per kind. */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::array<FaultSpec, num_fault_kinds> specs{};

    const FaultSpec &
    spec(FaultKind kind) const
    {
        return specs[static_cast<std::size_t>(kind)];
    }

    FaultSpec &
    spec(FaultKind kind)
    {
        return specs[static_cast<std::size_t>(kind)];
    }

    bool enabled(FaultKind kind) const { return spec(kind).rate > 0.0; }

    /** True when any kind is armed. */
    bool any() const;
};

/**
 * True when @p plan arms any of the sensor-stream kinds (noise,
 * quantize, stuck, dropout, delay). Integration loops that feed a
 * SensorFaulter use this to keep the clean path bit-identical to a
 * build without the faulter in line.
 */
bool sensorFaultsArmed(const FaultPlan &plan);

/**
 * Parse a plan from JSON text. Shape:
 *   {"seed": 7, "faults": {"sensor-noise": {"rate": 0.05, ...}, ...}}
 * Strict: unknown top-level keys, unknown kind names, unknown spec
 * fields, non-numeric values, and out-of-range rates are all
 * InvalidInput errors.
 */
[[nodiscard]] util::Result<FaultPlan> parseFaultPlan(std::string_view json_text);

/**
 * parseFaultPlan from either inline JSON (first non-space character
 * is '{') or a file path. Unreadable files are IoFailure.
 */
[[nodiscard]] util::Result<FaultPlan> loadFaultPlan(const std::string &arg);

/** Install @p plan process-wide (replacing any previous plan). Call
 *  before spawning threads; injection sites read it without locks. */
void installFaultPlan(FaultPlan plan);

/**
 * The `--fault-plan P` / `--fault-seed N` pair every binary accepts:
 * fatal when a non-zero @p seed comes without a plan or the plan
 * does not load; otherwise the plan is installed, with a non-zero
 * @p seed overriding the plan's own.
 * @return the installed plan's seed (for RetryPolicy::seed), or
 *         nullopt when @p plan_arg is empty.
 */
std::optional<std::uint64_t> installFaultFlags(const std::string &plan_arg,
                                               std::uint64_t seed);

/** Remove the installed plan (tests). */
void clearFaultPlan();

/** The installed plan, or nullptr when running clean. */
const FaultPlan *activeFaultPlan();

/** Bump the lazily-registered telemetry counter for @p kind
 *  ("fault.sensor_noise", ...). Every injection site calls this, so
 *  --metrics accounts for each injected fault. */
void countFault(FaultKind kind);

/** FNV-1a over @p payload, folded onto @p basis. */
std::uint64_t faultHash(std::uint64_t basis, std::string_view payload);

/** Fold one double's bit pattern onto a hash. */
std::uint64_t faultHash(std::uint64_t basis, double value);

/**
 * Scheduling-independent Bernoulli trial: true with probability
 * @p rate as a pure function of @p hash (finalized internally).
 */
bool hashChance(std::uint64_t hash, double rate);

/**
 * True when the record for cache key @p key should be corrupted under
 * @p plan (pure hash decision; counts fault.cache_corrupt).
 */
bool corruptCacheRecord(const FaultPlan &plan, std::string_view key);

/** Deterministically garble one serialized record line (the
 *  corruption mode is chosen by hashing the line). */
std::string corruptLine(const FaultPlan &plan, std::string_view line);

/**
 * True when the evaluation identified by @p site_hash should be
 * forced to report non-convergence (pure hash decision; counts
 * fault.non_convergence).
 */
bool forceNonConvergence(const FaultPlan &plan, std::uint64_t site_hash);

/**
 * True when the serving layer should drop the connection carrying the
 * request identified by @p request_key instead of replying (pure hash
 * decision; counts fault.conn_drop). The key is the request payload
 * plus its per-connection sequence number, so the decision is
 * independent of scheduling.
 */
bool dropConnection(const FaultPlan &plan,
                    std::string_view request_key);

/**
 * Milliseconds of artificial delay to insert before replying to the
 * request identified by @p request_key; 0.0 when the conn-slow fault
 * is not armed or this request was not selected (counts
 * fault.conn_slow when it fires).
 */
double slowReplyMs(const FaultPlan &plan,
                   std::string_view request_key);

/**
 * True when the connect attempt number @p attempt toward TCP port
 * @p port should be refused before the socket is even opened (pure
 * hash decision per (seed, port, attempt); counts
 * fault.conn_refuse). Connection-establishing callers -- the router
 * and the retrying CLI -- consult this so a campaign exercises the
 * "backend refuses connections" failure mode deterministically.
 */
bool refuseConnect(const FaultPlan &plan, std::uint16_t port,
                   std::uint64_t attempt);

/**
 * Applies the sensor-stream fault kinds to one scalar reading
 * sequence. Strictly serial: one instance per stream, driven by a
 * per-stream Rng, so the faulted sequence is a deterministic function
 * of (plan seed, stream name, clean readings).
 */
class SensorFaulter
{
  public:
    /**
     * @param stream Stream name (seeds the per-stream Rng).
     * @param scale Typical reading magnitude; sigma/step/magnitude
     *        multiply it.
     */
    SensorFaulter(const FaultPlan &plan, std::string_view stream,
                  double scale);

    /** Pass one clean reading through the armed sensor faults. */
    double apply(double value);

    /** Injection counts, by kind, for this stream. */
    struct Tally
    {
        std::uint64_t noise = 0;
        std::uint64_t quantize = 0;
        std::uint64_t stuck = 0;
        std::uint64_t dropout = 0;
        std::uint64_t delay = 0;

        std::uint64_t
        total() const
        {
            return noise + quantize + stuck + dropout + delay;
        }
    };

    const Tally &tally() const { return tally_; }

  private:
    FaultPlan plan_;
    double scale_;
    util::Rng rng_;
    double stuck_value_ = 0.0;
    std::uint32_t stuck_left_ = 0;
    std::deque<double> history_; ///< Recent clean readings (delay).
    Tally tally_;
};

} // namespace fault
} // namespace ramp
