/**
 * @file
 * The RAMP routing daemon: a fault-tolerant sharding front tier over
 * N ramp_served backends (see route/router.hh). Listens on loopback,
 * speaks the serving protocol to clients, consistent-hashes requests
 * across the backends with health-checked retry and failover, and
 * drains gracefully on SIGTERM / SIGINT or a client shutdown
 * request.
 *
 * The bound port is printed to stdout (and optionally a --port-file)
 * so scripts can use an ephemeral port without racing the daemon.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "route/router.hh"
#include "serve/host.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace {

void
usage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s --backends P1,P2,... [options]\n"
        "  --backends LIST     comma-separated backend ports\n"
        "                      (required)\n"
        "  --port N            listen port (default 0 = ephemeral)\n"
        "  --port-file PATH    write the bound port to PATH\n"
        "  --probe-interval-ms N  health-probe period (default "
        "250)\n"
        "  --fail-threshold N  consecutive failures before a\n"
        "                      backend is down (default 2)\n"
        "  --retries N         forwarding re-attempts (default 2)\n"
        "  --backoff-ms N      base retry backoff (default 50)\n"
        "  --idle-timeout-ms N disconnect idle clients (default "
        "30000)\n"
        "  --io-timeout-ms N   backend round-trip leg deadline\n"
        "                      (default 5000)\n"
        "  --metrics PATH      telemetry snapshot at exit\n"
        "  --fault-plan P      fault plan (inline JSON or file)\n"
        "  --fault-seed N      override the plan's seed\n"
        "  --help              show this message and exit\n",
        prog);
}

[[noreturn]] void
badFlag(const char *prog, const std::string &why)
{
    usage(prog, stderr);
    ramp::util::fatal(why);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ramp;

    route::RouterOptions opts;
    std::string port_file;
    std::string metrics_path;
    std::string fault_plan;
    std::uint64_t fault_seed = 0;

    const char *prog = argc > 0 ? argv[0] : "ramp_routed";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(prog, stdout);
            return 0;
        }
        if (i + 1 >= argc)
            badFlag(prog, util::cat(arg, " needs a value"));
        const std::string value = argv[++i];
        // An integer flag value that fits @p dest; else fatal.
        const auto count = [&]<typename T>(T &dest) {
            auto n = util::parseFlagInt(
                arg, value, 0, std::numeric_limits<T>::max());
            if (!n)
                badFlag(prog, n.error().message);
            dest = static_cast<T>(n.value());
        };
        if (arg == "--backends") {
            auto list = util::parsePortList(arg, value);
            if (!list)
                badFlag(prog, list.error().message);
            opts.backends = list.value();
        } else if (arg == "--port")
            count(opts.port);
        else if (arg == "--port-file")
            port_file = value;
        else if (arg == "--probe-interval-ms")
            count(opts.probe_interval_ms);
        else if (arg == "--fail-threshold")
            count(opts.fail_threshold);
        else if (arg == "--retries")
            count(opts.retry.retries);
        else if (arg == "--backoff-ms")
            count(opts.retry.backoff_ms);
        else if (arg == "--idle-timeout-ms")
            count(opts.idle_timeout_ms);
        else if (arg == "--io-timeout-ms")
            count(opts.io_timeout_ms);
        else if (arg == "--metrics")
            metrics_path = value;
        else if (arg == "--fault-plan")
            fault_plan = value;
        else if (arg == "--fault-seed")
            count(fault_seed);
        else
            badFlag(prog,
                    util::cat("unknown argument '", arg,
                              "' (see --help)"));
    }

    if (opts.backends.empty())
        badFlag(prog, "--backends is required");
    if (!metrics_path.empty())
        telemetry::writeFilesAtExit(metrics_path, "");
    if (auto seed = fault::installFaultFlags(fault_plan, fault_seed))
        opts.retry.seed = *seed;
    serve::installDrainSignals();

    route::Router router(opts);
    if (auto started = router.start(); !started)
        util::fatal(util::cat("ramp_routed: ",
                              started.error().str()));

    serve::waitForDrain("ramp_routed", router.port(), port_file,
                        [&] { return router.draining(); });
    router.stop();
    return 0;
}
