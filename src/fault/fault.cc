#include "fault/fault.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace fault {

using util::cat;
using util::ErrorCode;
using util::RampError;
using util::Result;

namespace {

constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnv_prime = 0x100000001b3ull;

/** Per-site salts so the same seed makes independent decisions at
 *  different kinds of injection site. */
constexpr std::uint64_t cache_salt = 0x6361636865636f72ull;
constexpr std::uint64_t converge_salt = 0x636f6e7665726765ull;
constexpr std::uint64_t stream_salt = 0x73747265616d7365ull;
constexpr std::uint64_t conn_drop_salt = 0x636f6e6e64726f70ull;
constexpr std::uint64_t conn_slow_salt = 0x636f6e6e736c6f77ull;
constexpr std::uint64_t conn_refuse_salt = 0x636f6e6e72656675ull;

/** splitmix64 finalizer: decorrelates structured hash inputs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Standard normal variate (Box-Muller, one value per call). */
double
gaussian(util::Rng &rng)
{
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    const double r = std::sqrt(-2.0 * std::log(1.0 - u1));
    return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

const char *const kind_names[num_fault_kinds] = {
    "sensor-noise",  "sensor-quantize", "sensor-stuck",
    "sensor-dropout", "sensor-delay",   "cache-corrupt",
    "non-convergence", "power-nan",     "conn-drop",
    "conn-slow",      "conn-refuse",
};

FaultPlan &
planStorage()
{
    static FaultPlan plan;
    return plan;
}

bool &
planInstalled()
{
    static bool installed = false;
    return installed;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return kind_names[static_cast<std::size_t>(kind)];
}

std::optional<FaultKind>
faultKindFromName(std::string_view name)
{
    for (std::size_t i = 0; i < num_fault_kinds; ++i)
        if (name == kind_names[i])
            return static_cast<FaultKind>(i);
    return std::nullopt;
}

bool
FaultPlan::any() const
{
    for (const auto &s : specs)
        if (s.rate > 0.0)
            return true;
    return false;
}

bool
sensorFaultsArmed(const FaultPlan &plan)
{
    for (FaultKind k :
         {FaultKind::SensorNoise, FaultKind::SensorQuantize,
          FaultKind::SensorStuck, FaultKind::SensorDropout,
          FaultKind::SensorDelay})
        if (plan.enabled(k))
            return true;
    return false;
}

namespace {

Result<void>
parseSpecField(FaultSpec &spec, std::string_view kind,
               const std::string &key, const util::JsonValue &val)
{
    if (!val.isNumber())
        return RampError{ErrorCode::InvalidInput,
                         cat("fault plan: ", kind, ".", key,
                             " must be a number")};
    const double v = val.number;
    if (key == "rate") {
        if (v < 0.0 || v > 1.0)
            return RampError{ErrorCode::InvalidInput,
                             cat("fault plan: ", kind,
                                 ".rate must be in [0, 1], got ", v)};
        spec.rate = v;
    } else if (key == "sigma" || key == "step" ||
               key == "magnitude") {
        if (v < 0.0)
            return RampError{ErrorCode::InvalidInput,
                             cat("fault plan: ", kind, ".", key,
                                 " must be >= 0, got ", v)};
        if (key == "sigma")
            spec.sigma = v;
        else if (key == "step")
            spec.step = v;
        else
            spec.magnitude = v;
    } else if (key == "delay-ms") {
        if (v < 0.0)
            return RampError{ErrorCode::InvalidInput,
                             cat("fault plan: ", kind,
                                 ".delay-ms must be >= 0, got ", v)};
        spec.delay_ms = v;
    } else if (key == "hold" || key == "delay") {
        if (v < 1.0 || v != std::floor(v) || v > 1e6)
            return RampError{ErrorCode::InvalidInput,
                             cat("fault plan: ", kind, ".", key,
                                 " must be a positive integer, got ",
                                 v)};
        if (key == "hold")
            spec.hold = static_cast<std::uint32_t>(v);
        else
            spec.delay = static_cast<std::uint32_t>(v);
    } else {
        return RampError{ErrorCode::InvalidInput,
                         cat("fault plan: unknown field '", key,
                             "' in ", kind, " (expected rate/sigma/"
                             "step/magnitude/hold/delay/delay-ms)")};
    }
    return {};
}

} // namespace

Result<FaultPlan>
parseFaultPlan(std::string_view json_text)
{
    std::string err;
    const auto doc = util::parseJson(json_text, &err);
    if (!doc)
        return RampError{ErrorCode::InvalidInput,
                         cat("fault plan JSON: ", err)};
    if (!doc->isObject())
        return RampError{ErrorCode::InvalidInput,
                         "fault plan: root must be an object"};

    FaultPlan plan;
    for (const auto &[key, val] : doc->object) {
        if (key == "seed") {
            const auto seed = val.asUint();
            if (!seed)
                return RampError{ErrorCode::InvalidInput,
                                 "fault plan: seed must be a "
                                 "non-negative integer"};
            plan.seed = *seed;
        } else if (key == "faults") {
            if (!val.isObject())
                return RampError{ErrorCode::InvalidInput,
                                 "fault plan: 'faults' must be an "
                                 "object of kind -> spec"};
            for (const auto &[kname, kspec] : val.object) {
                const auto kind = faultKindFromName(kname);
                if (!kind)
                    return RampError{
                        ErrorCode::InvalidInput,
                        cat("fault plan: unknown fault kind '",
                            kname, "'")};
                if (!kspec.isObject())
                    return RampError{
                        ErrorCode::InvalidInput,
                        cat("fault plan: spec for ", kname,
                            " must be an object")};
                for (const auto &[fkey, fval] : kspec.object) {
                    auto r = parseSpecField(plan.spec(*kind), kname,
                                            fkey, fval);
                    if (!r)
                        return r.error();
                }
            }
        } else {
            return RampError{ErrorCode::InvalidInput,
                             cat("fault plan: unknown key '", key,
                                 "' (expected seed, faults)")};
        }
    }
    return plan;
}

Result<FaultPlan>
loadFaultPlan(const std::string &arg)
{
    const auto first = arg.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && arg[first] == '{')
        return parseFaultPlan(arg);

    std::ifstream in(arg, std::ios::binary);
    if (!in)
        return RampError{ErrorCode::IoFailure,
                         cat("cannot open fault plan file '", arg,
                             "'")};
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return RampError{ErrorCode::IoFailure,
                         cat("error reading fault plan file '", arg,
                             "'")};
    return parseFaultPlan(text.str());
}

void
installFaultPlan(FaultPlan plan)
{
    planStorage() = plan;
    planInstalled() = true;
}

std::optional<std::uint64_t>
installFaultFlags(const std::string &plan_arg, std::uint64_t seed)
{
    if (seed != 0 && plan_arg.empty())
        util::fatal("--fault-seed requires --fault-plan");
    if (plan_arg.empty())
        return std::nullopt;
    auto plan = loadFaultPlan(plan_arg);
    if (!plan)
        util::fatal(util::cat("--fault-plan: ", plan.error().str()));
    if (seed != 0)
        plan.value().seed = seed;
    installFaultPlan(plan.value());
    return plan.value().seed;
}

void
clearFaultPlan()
{
    planStorage() = FaultPlan{};
    planInstalled() = false;
}

const FaultPlan *
activeFaultPlan()
{
    return planInstalled() ? &planStorage() : nullptr;
}

void
countFault(FaultKind kind)
{
    // Registered on first fault, so a clean run's metric snapshot is
    // unchanged; one firing registers every kind (zeros are fine).
    static const std::array<telemetry::Counter, num_fault_kinds>
        counters = {
            telemetry::counter("fault.sensor_noise"),
            telemetry::counter("fault.sensor_quantize"),
            telemetry::counter("fault.sensor_stuck"),
            telemetry::counter("fault.sensor_dropout"),
            telemetry::counter("fault.sensor_delay"),
            telemetry::counter("fault.cache_corrupt"),
            telemetry::counter("fault.non_convergence"),
            telemetry::counter("fault.power_nan"),
            telemetry::counter("fault.conn_drop"),
            telemetry::counter("fault.conn_slow"),
            telemetry::counter("fault.conn_refuse"),
        };
    counters[static_cast<std::size_t>(kind)].add();
}

std::uint64_t
faultHash(std::uint64_t basis, std::string_view payload)
{
    std::uint64_t h = basis ^ fnv_offset;
    for (const char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= fnv_prime;
    }
    return h;
}

std::uint64_t
faultHash(std::uint64_t basis, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    std::uint64_t h = basis ^ fnv_offset;
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= fnv_prime;
    }
    return h;
}

bool
hashChance(std::uint64_t hash, double rate)
{
    if (rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    const double u =
        static_cast<double>(mix(hash) >> 11) * 0x1.0p-53;
    return u < rate;
}

bool
corruptCacheRecord(const FaultPlan &plan, std::string_view key)
{
    const auto &spec = plan.spec(FaultKind::CacheCorrupt);
    if (spec.rate <= 0.0)
        return false;
    if (!hashChance(faultHash(plan.seed ^ cache_salt, key),
                    spec.rate))
        return false;
    countFault(FaultKind::CacheCorrupt);
    return true;
}

std::string
corruptLine(const FaultPlan &plan, std::string_view line)
{
    const std::uint64_t h =
        mix(faultHash(plan.seed ^ cache_salt, line));
    std::string out(line);
    switch (h % 4) {
    case 0: // Truncated write (partial flush before a crash).
        out.resize(out.size() / 2);
        break;
    case 1: // Flipped byte mid-record.
        if (!out.empty())
            out[h / 4 % out.size()] = '#';
        break;
    case 2: // Numeric field turned non-finite.
        out += " nan";
        break;
    default: // Garbage prepended (interleaved write).
        out.insert(0, "!!corrupt!! ");
        break;
    }
    return out;
}

bool
forceNonConvergence(const FaultPlan &plan, std::uint64_t site_hash)
{
    const auto &spec = plan.spec(FaultKind::NonConvergence);
    if (spec.rate <= 0.0)
        return false;
    if (!hashChance(mix(plan.seed ^ converge_salt) ^ site_hash,
                    spec.rate))
        return false;
    countFault(FaultKind::NonConvergence);
    return true;
}

bool
dropConnection(const FaultPlan &plan, std::string_view request_key)
{
    const auto &spec = plan.spec(FaultKind::ConnDrop);
    if (spec.rate <= 0.0)
        return false;
    if (!hashChance(faultHash(plan.seed ^ conn_drop_salt,
                              request_key),
                    spec.rate))
        return false;
    countFault(FaultKind::ConnDrop);
    return true;
}

double
slowReplyMs(const FaultPlan &plan, std::string_view request_key)
{
    const auto &spec = plan.spec(FaultKind::ConnSlow);
    if (spec.rate <= 0.0)
        return 0.0;
    if (!hashChance(faultHash(plan.seed ^ conn_slow_salt,
                              request_key),
                    spec.rate))
        return 0.0;
    countFault(FaultKind::ConnSlow);
    return spec.delay_ms;
}

bool
refuseConnect(const FaultPlan &plan, std::uint16_t port,
              std::uint64_t attempt)
{
    const auto &spec = plan.spec(FaultKind::ConnRefuse);
    if (spec.rate <= 0.0)
        return false;
    const std::uint64_t h =
        mix(plan.seed ^ conn_refuse_salt) ^
        mix((static_cast<std::uint64_t>(port) << 32) ^ attempt);
    if (!hashChance(h, spec.rate))
        return false;
    countFault(FaultKind::ConnRefuse);
    return true;
}

SensorFaulter::SensorFaulter(const FaultPlan &plan,
                             std::string_view stream, double scale)
    : plan_(plan), scale_(scale),
      rng_(mix(plan.seed ^ stream_salt) ^
           faultHash(stream_salt, stream))
{
}

double
SensorFaulter::apply(double value)
{
    // Record the clean reading first so a delayed sample replays
    // genuine history rather than previously-faulted output.
    history_.push_back(value);
    const std::uint32_t depth =
        plan_.spec(FaultKind::SensorDelay).delay;
    while (history_.size() > static_cast<std::size_t>(depth) + 1)
        history_.pop_front();

    if (stuck_left_ > 0) {
        --stuck_left_;
        ++tally_.stuck;
        countFault(FaultKind::SensorStuck);
        return stuck_value_;
    }
    const auto &stuck = plan_.spec(FaultKind::SensorStuck);
    if (stuck.rate > 0.0 && rng_.chance(stuck.rate)) {
        // Latch now; this reading is still genuine, the next `hold`
        // repeat it bit-for-bit.
        stuck_value_ = value;
        stuck_left_ = stuck.hold;
    }

    const auto &drop = plan_.spec(FaultKind::SensorDropout);
    if (drop.rate > 0.0 && rng_.chance(drop.rate)) {
        ++tally_.dropout;
        countFault(FaultKind::SensorDropout);
        return std::numeric_limits<double>::quiet_NaN();
    }

    const auto &delay = plan_.spec(FaultKind::SensorDelay);
    if (delay.rate > 0.0 &&
        history_.size() > static_cast<std::size_t>(delay.delay) &&
        rng_.chance(delay.rate)) {
        ++tally_.delay;
        countFault(FaultKind::SensorDelay);
        value = history_[history_.size() - 1 - delay.delay];
    }

    const auto &noise = plan_.spec(FaultKind::SensorNoise);
    if (noise.rate > 0.0 && rng_.chance(noise.rate)) {
        ++tally_.noise;
        countFault(FaultKind::SensorNoise);
        value += gaussian(rng_) * noise.sigma * scale_;
    }

    const auto &quant = plan_.spec(FaultKind::SensorQuantize);
    if (quant.rate > 0.0 && quant.step > 0.0 &&
        rng_.chance(quant.rate)) {
        ++tally_.quantize;
        countFault(FaultKind::SensorQuantize);
        const double grid = quant.step * scale_;
        value = std::round(value / grid) * grid;
    }
    return value;
}

} // namespace fault
} // namespace ramp
