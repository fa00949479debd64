/**
 * @file
 * Correctness smoke for the serving layer.
 *
 * Spawns an in-process Server over one EvaluationService and drives N
 * concurrent client connections through a deterministic mixed request
 * distribution (evaluate / select_drm / select_dtm / stats; see
 * serve_mix.hh -- `--seed` picks the stream). Serving latency and
 * throughput are measured by rampbench's serve_direct workload, not
 * here.
 *
 * Correctness is checked, not assumed:
 *
 *  - Every ok reply's result object must be byte-identical to the
 *    answer computed directly through the same service (which runs
 *    the same drm::selectDrm / OracleExplorer::tryEvaluate calls a
 *    non-served caller would make). One mismatch fails the run.
 *  - Every request must receive an explicit answer: an ok reply, a
 *    structured rejection ("overloaded"/"shutting-down"), or -- only
 *    under a fault plan that severs connections -- a torn stream,
 *    after which the worker reconnects. With no fault plan, any
 *    transport error fails the run.
 *  - One v2 round trip (hello -> report_usage -> remaining_lifetime)
 *    must succeed on a clean run.
 *
 * Extra flags beyond the shared bench set: --connections N,
 * --requests N (per connection), --queue-depth N, --batch-max N,
 * --port N (attach to an external ramp_served instead of the
 * in-process server; correctness checking then requires the same
 * cache/seed configuration on both sides).
 */

#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "aging/state.hh"
#include "common.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve_mix.hh"
#include "util/flags.hh"

namespace {

using namespace ramp;

struct ServeOptions
{
    std::size_t connections = 8;
    std::size_t requests = 50; ///< Per connection.
    std::size_t queue_depth = 64;
    std::size_t batch_max = 16;
    std::uint16_t port = 0; ///< 0 = in-process server.
};

/** Pull bench_serve's own flags out of argv (before Options). */
ServeOptions
parseServeFlags(int &argc, char **argv)
{
    ServeOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::size_t *dest = nullptr;
        if (arg == "--connections")
            dest = &opts.connections;
        else if (arg == "--requests")
            dest = &opts.requests;
        else if (arg == "--queue-depth")
            dest = &opts.queue_depth;
        else if (arg == "--batch-max")
            dest = &opts.batch_max;
        else if (arg != "--port") {
            argv[out++] = argv[i];
            continue;
        }
        if (i + 1 >= argc)
            util::fatal(util::cat(arg, " needs a value"));
        const auto n = util::parseFlagInt(
            arg, argv[++i], 1,
            dest ? std::numeric_limits<std::size_t>::max()
                 : util::max_port);
        if (!n)
            util::fatal(n.error().message);
        if (dest)
            *dest = static_cast<std::size_t>(n.value());
        else
            opts.port = static_cast<std::uint16_t>(n.value());
    }
    argc = out;
    argv[out] = nullptr;
    return opts;
}

struct WorkerTally
{
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;  ///< overloaded / shutting-down.
    std::uint64_t torn = 0;      ///< Transport errors (fault runs).
    std::uint64_t reconnects = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t transport_failures = 0; ///< Clean-run errors.
};

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions serve_opts = parseServeFlags(argc, argv);
    bench::Options opts = bench::Options::parse(argc, argv);
    const bool faulted = fault::activeFaultPlan() != nullptr;

    std::fprintf(stderr,
                 "bench_serve: %zu connections x %zu requests "
                 "(queue %zu, batch %zu%s)\n",
                 serve_opts.connections, serve_opts.requests,
                 serve_opts.queue_depth, serve_opts.batch_max,
                 faulted ? ", fault plan armed" : "");

    serve::ServiceOptions service_opts;
    service_opts.cache_path = bench::cachePath(opts);
    service_opts.threads = opts.threads;
    service_opts.max_apps = opts.max_apps;
    service_opts.eval_params = bench::benchEvalParams(opts);
    serve::EvaluationService service(service_opts);

    serve::ServerOptions server_opts;
    server_opts.queue_depth = serve_opts.queue_depth;
    server_opts.batch_max = serve_opts.batch_max;
    serve::Server server(service, server_opts);
    std::uint16_t port = serve_opts.port;
    if (port == 0) {
        if (auto started = server.start(); !started)
            util::fatal(util::cat("bench_serve: ",
                                  started.error().str()));
        port = server.port();
    }

    // Expected answers, computed through the same service the server
    // uses -- i.e. the same selectDrm/tryEvaluate calls and the same
    // encoder -- sequentially, before any load exists. This both
    // checks byte-identity and warms the cache and memos.
    service.ensureReady();
    std::map<std::string, std::string> expected;
    for (std::size_t w = 0; w < serve_opts.connections; ++w) {
        for (std::size_t s = 0; s < serve_opts.requests; ++s) {
            serve::Request req = bench::mixedRequest(
                opts.seed, w, s, service.apps());
            if (req.type == serve::RequestType::Stats)
                continue; // Stats answers are time-varying.
            const std::string key = bench::requestKey(req);
            if (expected.count(key))
                continue;
            util::Result<util::JsonValue> direct =
                util::RampError{util::ErrorCode::InvalidInput,
                                "unset"};
            if (req.type == serve::RequestType::Evaluate) {
                auto op = service.evaluatePoint(req.app, req.space,
                                                req.config);
                direct = op ? service.encodeEvaluation(req,
                                                       op.value())
                            : util::Result<util::JsonValue>(
                                  op.error());
            } else {
                direct = service.select(req);
            }
            if (!direct)
                util::fatal(util::cat("bench_serve: direct ", key,
                                      " failed: ",
                                      direct.error().str()));
            expected.emplace(key,
                             util::writeJson(direct.value()));
        }
    }
    std::fprintf(stderr,
                 "bench_serve: %zu unique answers precomputed\n",
                 expected.size());

    std::vector<WorkerTally> tallies(serve_opts.connections);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < serve_opts.connections; ++w) {
        workers.emplace_back([&, w] {
            WorkerTally &tally = tallies[w];
            serve::ClientOptions copts;
            copts.port = port;
            auto client = serve::Client::connect(copts);
            for (std::size_t s = 0; s < serve_opts.requests; ++s) {
                if (!client) {
                    ++tally.reconnects;
                    client = serve::Client::connect(copts);
                    if (!client) {
                        ++tally.transport_failures;
                        break;
                    }
                }
                serve::Request req = bench::mixedRequest(
                    opts.seed, w, s, service.apps());
                const std::string key = bench::requestKey(req);
                auto reply = client.value().call(req);
                if (!reply) {
                    // Torn stream: expected under a conn-drop
                    // fault plan, a failure otherwise.
                    if (faulted)
                        ++tally.torn;
                    else
                        ++tally.transport_failures;
                    client = util::RampError{
                        util::ErrorCode::IoFailure, "reconnect"};
                    continue;
                }
                if (!reply.value().ok) {
                    const std::string &code =
                        reply.value().error_code;
                    if (code == serve::err_overloaded ||
                        code == serve::err_shutting_down) {
                        ++tally.rejected;
                    } else {
                        std::fprintf(
                            stderr,
                            "bench_serve: %s -> %s: %s\n",
                            key.c_str(), code.c_str(),
                            reply.value().error_message.c_str());
                        ++tally.mismatches;
                    }
                    continue;
                }
                ++tally.ok;
                if (req.type == serve::RequestType::Stats)
                    continue;
                const std::string got =
                    util::writeJson(reply.value().result);
                const auto want = expected.find(key);
                if (want == expected.end() ||
                    got != want->second) {
                    ++tally.mismatches;
                    std::fprintf(stderr,
                                 "bench_serve: MISMATCH %s\n  "
                                 "want %s\n  got  %s\n",
                                 key.c_str(),
                                 want == expected.end()
                                     ? "<none>"
                                     : want->second.c_str(),
                                 got.c_str());
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    WorkerTally total;
    for (const auto &tally : tallies) {
        total.ok += tally.ok;
        total.rejected += tally.rejected;
        total.torn += tally.torn;
        total.reconnects += tally.reconnects;
        total.mismatches += tally.mismatches;
        total.transport_failures += tally.transport_failures;
    }

    const std::uint64_t issued =
        static_cast<std::uint64_t>(serve_opts.connections) *
        serve_opts.requests;
    const std::uint64_t answered =
        total.ok + total.rejected + total.torn;
    std::printf("bench_serve: %llu/%llu answered\n",
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(issued));
    std::printf("  ok %llu, rejected %llu, torn %llu "
                "(reconnects %llu)\n",
                static_cast<unsigned long long>(total.ok),
                static_cast<unsigned long long>(total.rejected),
                static_cast<unsigned long long>(total.torn),
                static_cast<unsigned long long>(total.reconnects));

    bool failed = false;
    if (total.mismatches != 0) {
        std::printf("DEVIATION: %llu replies differed from the "
                    "direct evaluation path\n",
                    static_cast<unsigned long long>(
                        total.mismatches));
        failed = true;
    }
    if (total.transport_failures != 0) {
        std::printf("DEVIATION: %llu requests got no answer on a "
                    "clean run\n",
                    static_cast<unsigned long long>(
                        total.transport_failures));
        failed = true;
    }
    if (!faulted && answered != issued) {
        std::printf("DEVIATION: %llu requests were dropped without "
                    "a structured reply\n",
                    static_cast<unsigned long long>(issued -
                                                    answered));
        failed = true;
    }

    // One versioned round-trip through the v2 surface: hello ->
    // report_usage -> remaining_lifetime. Skipped under a fault
    // plan, where a severed connection would fail the smoke rather
    // than the protocol.
    if (!faulted) {
        serve::ClientOptions copts;
        copts.port = port;
        bool smoke_ok = false;
        if (auto session = serve::Session::open(copts);
            session && session.value().version() >= 2) {
            aging::AgingState delta;
            delta.age_hours = 8760.0;
            delta.damage[0][0] = 0.01;
            auto merged = session.value().reportUsage(
                "bench_serve_smoke", aging::toJson(delta));
            if (merged) {
                auto life = session.value().remainingLifetime(
                    "bench_serve_smoke", service.apps()[0].name,
                    drm::AdaptationSpace::Dvs);
                smoke_ok = life &&
                           life.value().find("consumed") !=
                               nullptr &&
                           life.value().find("selection") !=
                               nullptr;
            }
        }
        if (!smoke_ok) {
            std::printf("DEVIATION: v2 remaining_lifetime "
                        "round-trip failed\n");
            failed = true;
        }
    }

    if (serve_opts.port == 0)
        server.stop();
    return failed ? 1 : 0;
}
