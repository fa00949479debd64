/**
 * @file
 * The RAMP evaluation daemon. Listens on loopback, serves the
 * protocol of serve/protocol.hh, and drains gracefully on SIGTERM /
 * SIGINT or a client shutdown request: admitted work is answered,
 * new work is rejected with "shutting-down", then the process exits.
 *
 * The bound port is printed to stdout (and optionally a --port-file)
 * so scripts can use an ephemeral port without racing the daemon.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "serve/host.hh"
#include "serve/replicator.hh"
#include "serve/server.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace {

void
usage(const char *prog, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --port N            listen port (default 0 = ephemeral)\n"
        "  --port-file PATH    write the bound port to PATH\n"
        "  --cache PATH        evaluation cache file (wins over\n"
        "                      RAMP_EVAL_CACHE; default\n"
        "                      ramp_eval_cache.txt)\n"
        "  --threads N         evaluation pool concurrency\n"
        "  --apps N            serve only the first N suite apps\n"
        "  --queue-depth N     admission queue bound (default 64)\n"
        "  --batch-max N       max requests per batch (default 16)\n"
        "  --idle-timeout-ms N disconnect idle peers (default "
        "30000)\n"
        "  --aging-state PATH  per-chip aging registry: loaded at\n"
        "                      start (corrupt files quarantined),\n"
        "                      saved at drain\n"
        "  --peers P1,P2,...   peer ramp_served ports: stream every\n"
        "                      eval-cache append to the peers\n"
        "                      (cache_append); give each peer its\n"
        "                      own --cache\n"
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

    serve::ServiceOptions service_opts;
    if (const char *env = std::getenv("RAMP_EVAL_CACHE"))
        service_opts.cache_path = env;
    else
        service_opts.cache_path = "ramp_eval_cache.txt";
    serve::ServerOptions server_opts;
    std::string port_file;
    std::string aging_state_path;
    std::string metrics_path;
    std::string fault_plan;
    std::uint64_t fault_seed = 0;
    std::vector<std::uint16_t> peers;

    const char *prog = argc > 0 ? argv[0] : "ramp_served";
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
        if (arg == "--port")
            count(server_opts.port);
        else if (arg == "--port-file")
            port_file = value;
        else if (arg == "--cache")
            service_opts.cache_path = value;
        else if (arg == "--threads")
            count(service_opts.threads);
        else if (arg == "--apps")
            count(service_opts.max_apps);
        else if (arg == "--queue-depth")
            count(server_opts.queue_depth);
        else if (arg == "--batch-max")
            count(server_opts.batch_max);
        else if (arg == "--idle-timeout-ms")
            count(server_opts.idle_timeout_ms);
        else if (arg == "--aging-state")
            aging_state_path = value;
        else if (arg == "--peers") {
            auto list = util::parsePortList(arg, value);
            if (!list)
                badFlag(prog, list.error().message);
            peers = list.value();
        }
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

    if (!metrics_path.empty())
        telemetry::writeFilesAtExit(metrics_path, "");
    fault::installFaultFlags(fault_plan, fault_seed);
    serve::installDrainSignals();

    serve::EvaluationService service(service_opts);
    if (!aging_state_path.empty()) {
        // A future-version registry is a hard error (loading would
        // mean quarantining data a newer build wrote); corruption
        // is quarantined inside loadAgingRegistry.
        if (auto loaded = service.loadAgingRegistry(aging_state_path);
            !loaded)
            util::fatal(util::cat("--aging-state: ",
                                  loaded.error().str()));
    }
    serve::Server server(service, server_opts);
    if (auto started = server.start(); !started)
        util::fatal(util::cat("ramp_served: ",
                              started.error().str()));

    std::unique_ptr<serve::Replicator> replicator;
    if (!peers.empty()) {
        serve::ReplicatorOptions repl_opts;
        repl_opts.peers = peers;
        replicator = std::make_unique<serve::Replicator>(
            service.cache(), repl_opts);
        replicator->start();
    }

    serve::waitForDrain("ramp_served", server.port(), port_file,
                        [&] { return server.draining(); });
    server.stop();
    // Stop replication after the drain so appends from admitted
    // work still reach the peers' queues.
    if (replicator)
        replicator->stop();
    if (!aging_state_path.empty()) {
        if (auto saved = service.saveAgingRegistry(aging_state_path);
            !saved)
            util::warn(util::cat("--aging-state: ",
                                 saved.error().str()));
    }
    return 0;
}
