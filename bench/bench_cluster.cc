/**
 * @file
 * Cluster chaos bench for the routed serving tier (ISSUE:
 * src/route).
 *
 * Topology: four ramp_served backend *processes* (forked from the
 * build's own binary), each replicating its eval cache to the other
 * three (--peers / cache_append), fronted by an in-process
 * route::Router. 64 worker threads drive a deterministic mixed
 * v0/v2 request stream through the router; mid-run a controller
 * thread SIGKILLs one backend, deletes its cache log, and restarts
 * it on the same port.
 *
 * Everything is checked, nothing assumed:
 *
 *  - Zero loss: every request must end in an ok reply (harness
 *    retries ride out the kill window); a request that exhausts its
 *    retry budget fails the run.
 *  - Byte identity: every ok reply's result object must equal the
 *    answer computed directly through an identically-configured
 *    in-process EvaluationService -- including the v2 fleet verbs,
 *    whose expected replies are precomputed per worker in schedule
 *    order (report_usage carries an idempotency seq, so a retried
 *    merge must come back as the same summary with applied=false,
 *    which the harness accepts as the dup variant).
 *  - Failover visibility: the router's health table must have
 *    recorded at least one down transition (the kill) and one up
 *    transition (the restart).
 *  - Peer re-warm: the restarted backend's cache log was deleted, so
 *    its post-restart record count can only come from its peers'
 *    snapshot replay; the bench polls its stats until the count
 *    reaches the direct service's full record set.
 *
 * v2 chips are pinned (by consistent-hash probing) to backends that
 * survive the run, since the aging registry -- unlike the eval
 * cache -- is deliberately not replicated.
 *
 * Extra flags beyond the shared bench set: --connections N,
 * --requests N (per connection), --backends N, --kill-at FRAC.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "aging/state.hh"
#include "common.hh"
#include "route/router.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "util/flags.hh"
#include "util/random.hh"

#ifndef RAMP_SERVED_BIN
#error "bench_cluster needs RAMP_SERVED_BIN (the ramp_served path)"
#endif

namespace {

using namespace ramp;

struct ClusterOptions
{
    std::size_t connections = 64;
    std::size_t requests = 40; ///< Per connection.
    std::size_t backends = 4;
    double kill_at = 0.125; ///< Completed fraction that triggers it.
};

ClusterOptions
parseClusterFlags(int &argc, char **argv)
{
    ClusterOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::size_t *dest = nullptr;
        if (arg == "--connections")
            dest = &opts.connections;
        else if (arg == "--requests")
            dest = &opts.requests;
        else if (arg == "--backends")
            dest = &opts.backends;
        else if (arg != "--kill-at") {
            argv[out++] = argv[i];
            continue;
        }
        if (i + 1 >= argc)
            util::fatal(util::cat(arg, " needs a value"));
        const std::string value = argv[++i];
        if (dest) {
            const auto n = util::parseFlagInt(
                arg, value, 1, std::numeric_limits<std::size_t>::max());
            if (!n)
                util::fatal(n.error().message);
            *dest = static_cast<std::size_t>(n.value());
        } else {
            char *end = nullptr;
            opts.kill_at = std::strtod(value.c_str(), &end);
            if (*end != '\0' || opts.kill_at < 0.0 ||
                opts.kill_at >= 1.0)
                util::fatal("--kill-at needs a fraction in [0,1)");
        }
    }
    argc = out;
    argv[out] = nullptr;
    if (opts.backends < 2)
        util::fatal("bench_cluster needs at least 2 backends");
    return opts;
}

/** One deterministic step of a worker's stream. */
struct Step
{
    serve::RequestType type = serve::RequestType::Stats;
    std::size_t config = 0;  ///< evaluate
    std::uint64_t seq = 0;   ///< report_usage idempotency seq
};

std::vector<Step>
makeSchedule(std::size_t worker, std::size_t requests,
             std::size_t n_configs)
{
    util::Rng rng(0x636c757374657221ull ^
                  (worker * 0x9e3779b97f4a7c15ull));
    std::vector<Step> steps;
    steps.reserve(requests);
    std::uint64_t next_seq = 1;
    bool reported = false;
    for (std::size_t s = 0; s < requests; ++s) {
        const double roll = rng.uniform();
        Step st;
        if (roll < 0.55) {
            st.type = serve::RequestType::Evaluate;
            st.config = rng.below(n_configs);
        } else if (roll < 0.70) {
            st.type = serve::RequestType::SelectDrm;
        } else if (roll < 0.78) {
            st.type = serve::RequestType::SelectDtm;
        } else if (roll < 0.84) {
            st.type = serve::RequestType::Stats;
        } else if (roll < 0.94 || !reported) {
            // remaining_lifetime needs a reported chip, so the first
            // v2 step is always a report.
            st.type = serve::RequestType::ReportUsage;
            st.seq = next_seq++;
            reported = true;
        } else {
            st.type = serve::RequestType::RemainingLifetime;
        }
        steps.push_back(st);
    }
    return steps;
}

/** Signature for the shared v0 expected-answer table. */
std::string
requestKey(const serve::Request &req)
{
    return util::cat(serve::requestTypeName(req.type), "/", req.app,
                     "/", drm::adaptationSpaceName(req.space), "/",
                     req.config);
}

/** The fixed AgingState delta every report_usage ships. */
aging::AgingState
usageDelta()
{
    aging::AgingState delta;
    delta.age_hours = 500.0;
    delta.damage[0][0] = 0.002;
    return delta;
}

/** A chip name for @p worker whose ring placement avoids the victim
 *  backend (the aging registry is not replicated; eval answers fail
 *  over, chip state must not need to). */
std::string
pinChip(const route::HashRing &ring, std::size_t worker,
        std::size_t victim)
{
    for (std::size_t k = 0;; ++k) {
        const std::string name = util::cat("chip-", worker, "-", k);
        serve::Request probe;
        probe.type = serve::RequestType::ReportUsage;
        probe.chip = name;
        const auto home = ring.pick(route::Router::routeKey(probe));
        if (home && *home != victim)
            return name;
    }
}

pid_t
spawnBackend(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const auto &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        execv(argv[0], argv.data());
        _exit(127);
    }
    if (pid < 0)
        util::fatal("bench_cluster: fork failed");
    return pid;
}

/** One v0 stats round trip to the daemon on @p port. */
util::Result<util::JsonValue>
statsOf(std::uint16_t port)
{
    serve::ClientOptions copts;
    copts.port = port;
    copts.connect_timeout_ms = 500;
    copts.io_timeout_ms = 2'000;
    auto client = serve::Client::connect(copts);
    if (!client)
        return client.error();
    serve::Request req;
    req.type = serve::RequestType::Stats;
    return serve::Client::unwrap(client.value().call(std::move(req)));
}

bool
waitReady(std::uint16_t port, int timeout_ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (statsOf(port))
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
    return false;
}

/** A backend's cache record count via its stats verb (-1 when the
 *  round trip fails). */
long long
cacheRecords(std::uint16_t port)
{
    auto stats = statsOf(port);
    if (!stats)
        return -1;
    const util::JsonValue *cache = stats.value().find("cache");
    if (!cache)
        return -1;
    const util::JsonValue *records = cache->find("records");
    if (!records || !records->isNumber())
        return -1;
    return static_cast<long long>(records->number);
}

struct WorkerTally
{
    std::uint64_t ok = 0;
    std::uint64_t dup_acks = 0; ///< report_usage applied=false.
    std::uint64_t retried = 0;  ///< Transient failures ridden out.
    std::uint64_t lost = 0;     ///< Retry budget exhausted.
    std::uint64_t mismatches = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    ClusterOptions cluster = parseClusterFlags(argc, argv);
    bench::Options opts = bench::Options::parse(argc, argv);

    // The router forwarding to a freshly-killed backend must see a
    // write error, not die (util::writeAll already sends with
    // MSG_NOSIGNAL; this covers any other code path).
    std::signal(SIGPIPE, SIG_IGN);

    const std::size_t n_backends = cluster.backends;
    const std::size_t victim = n_backends - 1;
    std::fprintf(stderr,
                 "bench_cluster: %zu backends (victim %zu), %zu "
                 "connections x %zu requests\n",
                 n_backends, victim, cluster.connections,
                 cluster.requests);

    // --- Reserve backend ports (bind, record, close) --------------
    std::vector<std::uint16_t> ports;
    {
        std::vector<util::Listener> held;
        for (std::size_t b = 0; b < n_backends; ++b) {
            auto listener = util::listenTcp(0);
            if (!listener)
                util::fatal(util::cat("bench_cluster: ",
                                      listener.error().str()));
            ports.push_back(listener.value().port);
            held.push_back(std::move(listener.value()));
        }
        // `held` closes here; SO_REUSEADDR lets the daemons rebind.
    }

    // --- Spawn the backends ---------------------------------------
    const auto cacheFile = [&](std::size_t b) {
        return util::cat("bench_cluster_cache_", b, ".txt");
    };
    const auto backendArgs = [&](std::size_t b) {
        std::string peers;
        for (std::size_t p = 0; p < n_backends; ++p) {
            if (p == b)
                continue;
            if (!peers.empty())
                peers += ',';
            peers += std::to_string(ports[p]);
        }
        return std::vector<std::string>{
            RAMP_SERVED_BIN,
            "--port", std::to_string(ports[b]),
            "--cache", cacheFile(b),
            "--apps", "1",
            "--threads", "2",
            "--queue-depth", "128",
            "--peers", peers,
        };
    };
    std::vector<pid_t> pids(n_backends, -1);
    for (std::size_t b = 0; b < n_backends; ++b) {
        std::remove(cacheFile(b).c_str()); // Stale logs skew warm.
        pids[b] = spawnBackend(backendArgs(b));
    }
    for (std::size_t b = 0; b < n_backends; ++b)
        if (!waitReady(ports[b], 60'000))
            util::fatal(util::cat("bench_cluster: backend ", b,
                                  " (port ", ports[b],
                                  ") never became ready"));

    // --- The direct oracle: same engine configuration as the
    // backends (ramp_served uses default EvalParams), warmed and
    // queried serially before any load exists. ---------------------
    serve::ServiceOptions mirror_opts;
    mirror_opts.cache_path = ""; // In-memory.
    mirror_opts.max_apps = 1;
    serve::EvaluationService mirror(mirror_opts);
    mirror.ensureReady();
    const std::string app = mirror.apps()[0].name;
    const std::size_t n_configs =
        drm::configSpace(drm::AdaptationSpace::Dvs).size();

    route::HashRing ring(n_backends);
    std::map<std::string, std::string> expected_v0;
    struct WorkerPlan
    {
        std::string chip;
        std::vector<Step> steps;
        std::vector<std::string> expected;     ///< "" for stats.
        std::vector<std::string> expected_alt; ///< Dup variants.
    };
    std::vector<WorkerPlan> plans(cluster.connections);
    for (std::size_t w = 0; w < cluster.connections; ++w) {
        WorkerPlan &plan = plans[w];
        plan.chip = pinChip(ring, w, victim);
        plan.steps =
            makeSchedule(w, cluster.requests, n_configs);
        plan.expected.resize(plan.steps.size());
        plan.expected_alt.resize(plan.steps.size());
        for (std::size_t s = 0; s < plan.steps.size(); ++s) {
            const Step &st = plan.steps[s];
            serve::Request req;
            req.version = 2;
            req.type = st.type;
            req.app = app;
            req.space = drm::AdaptationSpace::Dvs;
            util::Result<util::JsonValue> direct =
                util::RampError{util::ErrorCode::InvalidInput,
                                "unset"};
            switch (st.type) {
            case serve::RequestType::Stats:
                continue; // Time-varying; structural check only.
            case serve::RequestType::Evaluate: {
                req.config = st.config;
                const std::string key = requestKey(req);
                if (auto it = expected_v0.find(key);
                    it != expected_v0.end()) {
                    plan.expected[s] = it->second;
                    continue;
                }
                auto op = mirror.evaluatePoint(app, req.space,
                                               st.config);
                direct = op ? mirror.encodeEvaluation(req,
                                                      op.value())
                            : util::Result<util::JsonValue>(
                                  op.error());
                if (!direct)
                    util::fatal(util::cat(
                        "bench_cluster: direct ", key,
                        " failed: ", direct.error().str()));
                plan.expected[s] =
                    util::writeJson(direct.value());
                expected_v0.emplace(key, plan.expected[s]);
                continue;
            }
            case serve::RequestType::SelectDrm:
            case serve::RequestType::SelectDtm: {
                const std::string key = requestKey(req);
                if (auto it = expected_v0.find(key);
                    it != expected_v0.end()) {
                    plan.expected[s] = it->second;
                    continue;
                }
                direct = mirror.select(req);
                if (!direct)
                    util::fatal(util::cat(
                        "bench_cluster: direct ", key,
                        " failed: ", direct.error().str()));
                plan.expected[s] =
                    util::writeJson(direct.value());
                expected_v0.emplace(key, plan.expected[s]);
                continue;
            }
            case serve::RequestType::ReportUsage: {
                req.chip = plan.chip;
                req.state = aging::toJson(usageDelta());
                req.seq = st.seq;
                auto applied = mirror.reportUsage(req);
                if (!applied)
                    util::fatal(util::cat(
                        "bench_cluster: direct report_usage "
                        "failed: ",
                        applied.error().str()));
                plan.expected[s] =
                    util::writeJson(applied.value());
                // A retried merge: same seq, already applied -- the
                // summary is unchanged but applied flips to false.
                auto dup = mirror.reportUsage(req);
                if (!dup)
                    util::fatal(util::cat(
                        "bench_cluster: direct dup report_usage "
                        "failed: ",
                        dup.error().str()));
                plan.expected_alt[s] =
                    util::writeJson(dup.value());
                continue;
            }
            case serve::RequestType::RemainingLifetime: {
                req.chip = plan.chip;
                direct = mirror.remainingLifetime(req);
                if (!direct)
                    util::fatal(util::cat(
                        "bench_cluster: direct "
                        "remaining_lifetime failed: ",
                        direct.error().str()));
                plan.expected[s] =
                    util::writeJson(direct.value());
                continue;
            }
            default:
                util::fatal("bench_cluster: unexpected step type");
            }
        }
    }
    std::fprintf(stderr,
                 "bench_cluster: %zu unique v0 answers + per-worker "
                 "v2 sequences precomputed\n",
                 expected_v0.size());

    // --- The router -----------------------------------------------
    route::RouterOptions router_opts;
    router_opts.backends = ports;
    router_opts.fail_threshold = 2;
    router_opts.probe_interval_ms = 150;
    router_opts.retry.retries = 4;
    router_opts.retry.backoff_ms = 50;
    router_opts.io_timeout_ms = 20'000;
    route::Router router(router_opts);
    if (auto started = router.start(); !started)
        util::fatal(util::cat("bench_cluster: ",
                              started.error().str()));

    // --- Drive the load; kill and resurrect the victim mid-run ----
    const std::uint64_t issued =
        static_cast<std::uint64_t>(cluster.connections) *
        cluster.requests;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> workers_done{false};
    double killed_after_s = -1.0, restarted_after_s = -1.0;

    const auto t0 = std::chrono::steady_clock::now();
    const auto since_t0 = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::thread controller([&] {
        const std::uint64_t trigger = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(issued) * cluster.kill_at));
        while (completed.load(std::memory_order_relaxed) < trigger &&
               !workers_done.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        kill(pids[victim], SIGKILL);
        waitpid(pids[victim], nullptr, 0);
        killed_after_s = since_t0();
        std::fprintf(stderr,
                     "bench_cluster: killed backend %zu at %.2f s "
                     "(%llu/%llu done)\n",
                     victim, killed_after_s,
                     static_cast<unsigned long long>(
                         completed.load(std::memory_order_relaxed)),
                     static_cast<unsigned long long>(issued));
        // Delete its log: everything it knows after restart must
        // have come over the wire from its peers.
        std::remove(cacheFile(victim).c_str());
        std::this_thread::sleep_for(std::chrono::seconds(1));
        pids[victim] = spawnBackend(backendArgs(victim));
        if (!waitReady(ports[victim], 60'000))
            util::fatal("bench_cluster: victim never came back");
        restarted_after_s = since_t0();
        std::fprintf(stderr,
                     "bench_cluster: restarted backend %zu at "
                     "%.2f s\n",
                     victim, restarted_after_s);
    });

    std::vector<WorkerTally> tallies(cluster.connections);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < cluster.connections; ++w) {
        workers.emplace_back([&, w] {
            WorkerTally &tally = tallies[w];
            const WorkerPlan &plan = plans[w];
            serve::ClientOptions copts;
            copts.port = router.port();
            auto session = serve::Session::open(copts);
            const aging::AgingState delta = usageDelta();
            constexpr int max_attempts = 12;
            for (std::size_t s = 0; s < plan.steps.size(); ++s) {
                const Step &st = plan.steps[s];
                bool resolved = false;
                for (int attempt = 0;
                     attempt < max_attempts && !resolved;
                     ++attempt) {
                    if (attempt > 0) {
                        ++tally.retried;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(100));
                    }
                    if (!session) {
                        session = serve::Session::open(copts);
                        if (!session)
                            continue;
                    }
                    util::Result<util::JsonValue> got =
                        util::RampError{
                            util::ErrorCode::InvalidInput,
                            "unset"};
                    switch (st.type) {
                    case serve::RequestType::Evaluate:
                        got = session.value().evaluate(
                            app, drm::AdaptationSpace::Dvs,
                            st.config);
                        break;
                    case serve::RequestType::SelectDrm:
                        got = session.value().selectDrm(
                            app, drm::AdaptationSpace::Dvs);
                        break;
                    case serve::RequestType::SelectDtm:
                        got = session.value().selectDtm(
                            app, drm::AdaptationSpace::Dvs);
                        break;
                    case serve::RequestType::Stats:
                        got = session.value().stats();
                        break;
                    case serve::RequestType::ReportUsage:
                        got = session.value().reportUsage(
                            plan.chip, aging::toJson(delta),
                            st.seq);
                        break;
                    case serve::RequestType::RemainingLifetime:
                        got = session.value().remainingLifetime(
                            plan.chip, app,
                            drm::AdaptationSpace::Dvs);
                        break;
                    default:
                        break;
                    }
                    if (!got) {
                        const util::ErrorCode code =
                            got.error().code;
                        const bool v2 =
                            st.type == serve::RequestType::
                                           ReportUsage ||
                            st.type == serve::RequestType::
                                           RemainingLifetime;
                        // Transient rejections and transport
                        // faults ride the retry loop; a v2 verb
                        // also retries InvalidInput (a failover
                        // race can briefly miss the chip's home).
                        if (route::RetryPolicy::transient(code) ||
                            (v2 && code == util::ErrorCode::
                                               InvalidInput)) {
                            session = util::RampError{
                                util::ErrorCode::IoFailure,
                                "reconnect"};
                            continue;
                        }
                        std::fprintf(
                            stderr,
                            "bench_cluster: worker %zu step %zu "
                            "hard error: %s\n",
                            w, s, got.error().str().c_str());
                        ++tally.mismatches;
                        resolved = true;
                        break;
                    }
                    resolved = true;
                    if (st.type == serve::RequestType::Stats) {
                        ++tally.ok;
                        break;
                    }
                    const std::string text =
                        util::writeJson(got.value());
                    if (text == plan.expected[s]) {
                        ++tally.ok;
                    } else if (!plan.expected_alt[s].empty() &&
                               text == plan.expected_alt[s]) {
                        ++tally.ok;
                        ++tally.dup_acks;
                    } else {
                        ++tally.mismatches;
                        std::fprintf(
                            stderr,
                            "bench_cluster: MISMATCH worker %zu "
                            "step %zu (%s)\n  want %s\n  got  "
                            "%s\n",
                            w, s,
                            serve::requestTypeName(st.type),
                            plan.expected[s].c_str(),
                            text.c_str());
                    }
                }
                if (!resolved)
                    ++tally.lost;
                completed.fetch_add(1,
                                    std::memory_order_relaxed);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    workers_done.store(true, std::memory_order_relaxed);
    controller.join();
    const double wall_s = since_t0();

    WorkerTally total;
    for (const auto &tally : tallies) {
        total.ok += tally.ok;
        total.dup_acks += tally.dup_acks;
        total.retried += tally.retried;
        total.lost += tally.lost;
        total.mismatches += tally.mismatches;
    }

    // --- Post-run assertions --------------------------------------
    bool failed = false;
    if (total.lost != 0) {
        std::printf("DEVIATION: %llu requests never got an ok "
                    "reply\n",
                    static_cast<unsigned long long>(total.lost));
        failed = true;
    }
    if (total.mismatches != 0) {
        std::printf("DEVIATION: %llu replies differed from the "
                    "direct evaluation path\n",
                    static_cast<unsigned long long>(
                        total.mismatches));
        failed = true;
    }
    // The workload can drain before the router's next probe round
    // re-promotes the restarted victim; give the prober a few
    // intervals to observe the recovery before judging it.
    const auto health_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (router.health().transitionsUp() < 1 &&
           std::chrono::steady_clock::now() < health_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t downs = router.health().transitionsDown();
    const std::uint64_t ups = router.health().transitionsUp();
    if (downs < 1 || ups < 1) {
        std::printf("DEVIATION: health transitions not observed "
                    "(down %llu, up %llu)\n",
                    static_cast<unsigned long long>(downs),
                    static_cast<unsigned long long>(ups));
        failed = true;
    }

    // Peer re-warm: the victim restarted from a deleted log, so its
    // record count reaching the oracle's full set proves the
    // records arrived via cache_append snapshots.
    const long long want_records =
        static_cast<long long>(mirror.cache().size());
    long long victim_records = -1;
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
        while (std::chrono::steady_clock::now() < deadline) {
            victim_records = cacheRecords(ports[victim]);
            if (victim_records >= want_records)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(250));
        }
    }
    if (victim_records < want_records) {
        std::printf("DEVIATION: restarted backend re-warmed only "
                    "%lld/%lld cache records from peers\n",
                    victim_records, want_records);
        failed = true;
    }

    const std::uint64_t answered = total.ok + total.mismatches;
    std::printf("bench_cluster: %llu/%llu answered ok in %.2f s "
                "(%.1f req/s), %llu retried, %llu dup acks\n",
                static_cast<unsigned long long>(total.ok),
                static_cast<unsigned long long>(issued), wall_s,
                wall_s > 0.0
                    ? static_cast<double>(answered) / wall_s
                    : 0.0,
                static_cast<unsigned long long>(total.retried),
                static_cast<unsigned long long>(total.dup_acks));
    std::printf("  kill at %.2f s, restart at %.2f s, health "
                "down/up %llu/%llu, victim cache %lld/%lld\n",
                killed_after_s, restarted_after_s,
                static_cast<unsigned long long>(downs),
                static_cast<unsigned long long>(ups),
                victim_records, want_records);

    // Perf/robustness-trajectory artifact.
    {
        const auto snap =
            telemetry::Registry::instance().snapshot();
        util::JsonValue doc = util::JsonValue::makeObject();
        doc.set("bench",
                util::JsonValue::makeString("bench_cluster"));
        const auto num = [](double v) {
            return util::JsonValue::makeNumber(v);
        };
        doc.set("backends",
                num(static_cast<double>(n_backends)));
        doc.set("connections",
                num(static_cast<double>(cluster.connections)));
        doc.set("requests_per_connection",
                num(static_cast<double>(cluster.requests)));
        doc.set("issued", num(static_cast<double>(issued)));
        doc.set("ok", num(static_cast<double>(total.ok)));
        doc.set("retried",
                num(static_cast<double>(total.retried)));
        doc.set("dup_acks",
                num(static_cast<double>(total.dup_acks)));
        doc.set("lost", num(static_cast<double>(total.lost)));
        doc.set("mismatches",
                num(static_cast<double>(total.mismatches)));
        doc.set("wall_s", num(wall_s));
        doc.set("req_per_s",
                num(wall_s > 0.0
                        ? static_cast<double>(answered) / wall_s
                        : 0.0));
        doc.set("killed_after_s", num(killed_after_s));
        doc.set("restarted_after_s", num(restarted_after_s));
        doc.set("victim_records",
                num(static_cast<double>(victim_records)));
        doc.set("oracle_records",
                num(static_cast<double>(want_records)));
        for (const char *name :
             {"route.forwarded", "route.retries",
              "route.failovers", "route.no_backend",
              "route.health_up", "route.health_down",
              "route.probes", "route.probe_failures"})
            doc.set(name, num(static_cast<double>(
                            snap.counter(name))));
        if (!bench::writeBenchArtifact(
                bench::benchJsonPath(opts, "BENCH_cluster.json"), doc))
            failed = true;
    }

    // --- Teardown -------------------------------------------------
    router.stop();
    for (std::size_t b = 0; b < n_backends; ++b) {
        kill(pids[b], SIGTERM);
    }
    for (std::size_t b = 0; b < n_backends; ++b) {
        waitpid(pids[b], nullptr, 0);
        std::remove(cacheFile(b).c_str());
    }
    return failed ? 1 : 0;
}
