/**
 * @file
 * Command-line client for ramp_served / ramp_routed. One invocation,
 * one request:
 *
 *   ramp_client --port N evaluate APP SPACE CONFIG [T_QUAL_K]
 *   ramp_client --port N select-drm APP SPACE [T_QUAL_K]
 *   ramp_client --port N select-dtm APP SPACE [T_DESIGN_K [T_QUAL_K]]
 *   ramp_client --port N stats
 *   ramp_client --port N shutdown
 *   ramp_client --port N hello
 *   ramp_client --port N report-usage CHIP STATEFILE
 *   ramp_client --port N remaining-lifetime CHIP APP SPACE [T_QUAL_K]
 *   ramp_client --port N select-chip POLICY SPACE APP [APP...]
 *
 * Every invocation opens a Session: the protocol version is
 * negotiated once with a hello, and requests go out at the
 * negotiated version (v0 against a pre-versioning daemon). The
 * fleet commands (report-usage, remaining-lifetime) need v2 and
 * fail with a structured error against older servers.
 *
 * --retries N turns transient failures (connect refusal, timeout,
 * torn stream, "overloaded", "shutting-down") into bounded
 * re-attempts on a *fresh* connection, sleeping the router's
 * deterministic jittered backoff (route/retry.hh) between attempts.
 * report-usage retries are safe against double-merging: the request
 * carries an idempotency seq that every attempt reuses. Evaluation
 * and validation errors never retry.
 *
 * The reply's result object is printed to stdout as one JSON line.
 * Error replies (including "overloaded" and "shutting-down") print
 * the structured code to stderr and exit nonzero.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "aging/state.hh"
#include "cmp/chip_drm.hh"
#include "fault/fault.hh"
#include "route/retry.hh"
#include "serve/client.hh"
#include "util/flags.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

void
usage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s --port N [options] COMMAND [args]\n"
        "options:\n"
        "  --timeout-ms N   per-call I/O deadline (default 30000)\n"
        "  --retries N      re-attempts on transient failures\n"
        "                   (default 0 = fail fast)\n"
        "  --backoff-ms N   base retry backoff, jittered and doubled\n"
        "                   per attempt (default 50)\n"
        "  --fault-plan P   fault plan (inline JSON or file);\n"
        "                   arms conn-refuse for retry testing\n"
        "  --fault-seed N   override the plan's seed\n"
        "commands:\n"
        "  evaluate APP SPACE CONFIG [T_QUAL_K]\n"
        "  select-drm APP SPACE [T_QUAL_K]\n"
        "  select-dtm APP SPACE [T_DESIGN_K [T_QUAL_K]]\n"
        "  stats\n"
        "  shutdown\n"
        "  hello\n"
        "  report-usage CHIP STATEFILE\n"
        "  remaining-lifetime CHIP APP SPACE [T_QUAL_K]\n"
        "  select-chip POLICY SPACE APP [APP...]\n"
        "SPACE is one of Arch, DVS, ArchDVS, FetchThrottle.\n"
        "POLICY is per-core or global.\n",
        prog);
}

double
parseTemp(const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0')
        ramp::util::fatal(ramp::util::cat(
            "expected a temperature in kelvin, got '", value, "'"));
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ramp;

    serve::ClientOptions opts;
    route::RetryPolicy policy;
    policy.retries = 0; // CLI default: one attempt, fail fast.
    std::string fault_plan;
    std::uint64_t fault_seed = 0;
    std::vector<std::string> words;

    const char *prog = argc > 0 ? argv[0] : "ramp_client";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(prog, stdout);
            return 0;
        }
        // An integer flag value that fits @p dest; else fatal.
        const auto count = [&]<typename T>(T &dest) {
            if (i + 1 >= argc)
                util::fatal(util::cat(arg, " needs a value"));
            auto n = util::parseFlagInt(
                arg, argv[++i], 0, std::numeric_limits<T>::max());
            if (!n)
                util::fatal(n.error().message);
            dest = static_cast<T>(n.value());
        };
        if (arg == "--port")
            count(opts.port);
        else if (arg == "--timeout-ms")
            count(opts.io_timeout_ms);
        else if (arg == "--retries")
            count(policy.retries);
        else if (arg == "--backoff-ms")
            count(policy.backoff_ms);
        else if (arg == "--fault-seed")
            count(fault_seed);
        else if (arg == "--fault-plan") {
            if (i + 1 >= argc)
                util::fatal(util::cat(arg, " needs a value"));
            fault_plan = argv[++i];
        } else
            words.push_back(arg);
    }
    if (opts.port == 0 || words.empty()) {
        usage(prog, stderr);
        util::fatal("need --port and a command");
    }
    if (auto seed = fault::installFaultFlags(fault_plan, fault_seed))
        policy.seed = *seed;

    const std::string &command = words[0];
    const auto arity = [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = words.size() - 1;
        if (n < lo || n > hi) {
            usage(prog, stderr);
            util::fatal(util::cat("wrong argument count for ",
                                  command));
        }
    };
    const auto space = [&](const std::string &name) {
        const auto s = drm::adaptationSpaceFromName(name);
        if (!s)
            util::fatal(util::cat("unknown adaptation space '", name,
                                  "'"));
        return *s;
    };

    // report-usage needs one idempotency seq shared by every retry
    // of this invocation (and larger than any previous invocation's,
    // so the server never deduplicates a genuinely new report).
    const std::uint64_t report_seq = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());

    // The command, checked once before any connection is made: a
    // malformed invocation fails naming the bad argument whether or
    // not a server is listening, and every retry sends the same call.
    using Result = util::Result<util::JsonValue>;
    using Call = std::function<Result(serve::Session &)>;
    const Call call = [&]() -> Call {
        if (command == "evaluate") {
            arity(3, 4);
            const auto s = space(words[2]);
            const auto config = util::parseFlagInt(
                "CONFIG", words[3], 0,
                std::numeric_limits<std::size_t>::max());
            if (!config)
                util::fatal(config.error().message);
            const double t_qual =
                words.size() > 4 ? parseTemp(words[4]) : 345.0;
            return [&, s, index = config.value(),
                    t_qual](serve::Session &session) {
                return session.evaluate(words[1], s, index, t_qual);
            };
        }
        if (command == "select-drm") {
            arity(2, 3);
            const auto s = space(words[2]);
            const double t_qual =
                words.size() > 3 ? parseTemp(words[3]) : 345.0;
            return [&, s, t_qual](serve::Session &session) {
                return session.selectDrm(words[1], s, t_qual);
            };
        }
        if (command == "select-dtm") {
            arity(2, 4);
            const auto s = space(words[2]);
            const double t_design =
                words.size() > 3 ? parseTemp(words[3]) : 370.0;
            const double t_qual =
                words.size() > 4 ? parseTemp(words[4]) : 345.0;
            return [&, s, t_design, t_qual](serve::Session &session) {
                return session.selectDtm(words[1], s, t_design,
                                         t_qual);
            };
        }
        if (command == "stats") {
            arity(0, 0);
            return [](serve::Session &session) {
                return session.stats();
            };
        }
        if (command == "shutdown") {
            arity(0, 0);
            return [](serve::Session &session) {
                return session.requestShutdown();
            };
        }
        if (command == "hello") {
            arity(0, 0);
            // The session already negotiated; report what it
            // learned.
            return [](serve::Session &session) -> Result {
                util::JsonValue out = util::JsonValue::makeObject();
                out.set("negotiated_v", util::JsonValue::makeNumber(
                                            session.version()));
                return out;
            };
        }
        if (command == "report-usage") {
            arity(2, 2);
            auto state = aging::loadAgingState(words[2]);
            if (!state)
                util::fatal(util::cat(command, ": ",
                                      state.error().str()));
            return [&, doc = aging::toJson(state.value())](
                       serve::Session &session) {
                return session.reportUsage(words[1], doc, report_seq);
            };
        }
        if (command == "remaining-lifetime") {
            arity(3, 4);
            const auto s = space(words[3]);
            const double t_qual =
                words.size() > 4 ? parseTemp(words[4]) : 345.0;
            return [&, s, t_qual](serve::Session &session) {
                return session.remainingLifetime(words[1], words[2], s,
                                                 t_qual);
            };
        }
        if (command == "select-chip") {
            arity(3, words.size()); // POLICY SPACE APP [APP...]
            const auto policy = cmp::budgetPolicyFromName(words[1]);
            if (!policy)
                util::fatal(util::cat("unknown budget policy '",
                                      words[1],
                                      "' (per-core or global)"));
            const auto s = space(words[2]);
            return [&, s, policy = *policy](serve::Session &session) {
                const std::vector<std::string> apps(words.begin() + 3,
                                                    words.end());
                return session.selectChip(apps, s, policy);
            };
        }
        usage(prog, stderr);
        util::fatal(util::cat("unknown command '", command, "'"));
    }();

    // One attempt: fresh connection, negotiate, dispatch.
    const auto attemptOnce = [&]() -> Result {
        auto session = serve::Session::open(opts);
        if (!session)
            return session.error();
        return call(session.value());
    };

    Result result =
        util::RampError{util::ErrorCode::InvalidInput, "unset"};
    for (int attempt = 0; attempt < policy.attempts(); ++attempt) {
        if (attempt > 0) {
            const int delay = policy.delayMs(opts.port, attempt);
            std::fprintf(stderr,
                         "%s: transient failure (%s), retry %d/%d "
                         "in %d ms\n",
                         command.c_str(),
                         result.error().str().c_str(), attempt,
                         policy.retries, delay);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
        // The deterministic conn-refuse fault models a backend
        // refusing connections; the retrying CLI is one of its
        // connection-establishing consumers.
        if (const fault::FaultPlan *plan = fault::activeFaultPlan();
            plan &&
            fault::refuseConnect(
                *plan, opts.port,
                static_cast<std::uint64_t>(attempt) + 1)) {
            result = util::RampError{
                util::ErrorCode::Unavailable,
                util::cat("connect to 127.0.0.1:", opts.port,
                          " refused (fault plan)")};
            continue;
        }
        result = attemptOnce();
        if (result ||
            !route::RetryPolicy::transient(result.error().code))
            break;
    }

    if (!result) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(),
                     result.error().str().c_str());
        return 1;
    }
    std::fprintf(stdout, "%s\n",
                 util::writeJson(result.value()).c_str());
    return 0;
}
