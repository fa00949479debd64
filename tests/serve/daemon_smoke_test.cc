/**
 * @file
 * End-to-end smoke of the real binaries: ramp_served is spawned as a
 * child process, driven with ramp_client invocations, and drained
 * two ways -- by a shutdown request and by SIGTERM -- plus once under
 * a fault plan that drops and delays connections. The three
 * binaries' integer flags and arguments are checked to be rejected,
 * naming the flag, when out of range or not plain digits. Paths to
 * the binaries arrive as compile definitions (RAMP_SERVED_BIN,
 * RAMP_ROUTED_BIN, RAMP_CLIENT_BIN), the pattern ramp_lint_test
 * established.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace {

using ramp::util::cat;

/** Scratch directory under the test's CWD (the build tree). */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = cat("daemon_smoke_", name);
    std::system(cat("rm -rf ", dir, " && mkdir -p ", dir).c_str());
    return dir;
}

/** Spawn ramp_served; returns its pid. */
pid_t
spawnServer(const std::vector<std::string> &extra_args,
            const std::string &dir)
{
    std::vector<std::string> args = {
        RAMP_SERVED_BIN,
        "--port-file", dir + "/port.txt",
        "--cache",     dir + "/cache.txt",
        "--threads",   "2",
        "--apps",      "1",
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());

    const pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (auto &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        // Quiet the child; its chatter belongs to the daemon log.
        std::freopen((dir + "/served.log").c_str(), "w", stdout);
        std::freopen((dir + "/served.err").c_str(), "w", stderr);
        ::execv(RAMP_SERVED_BIN, argv.data());
        std::_Exit(127);
    }
    return pid;
}

/** Wait for the daemon's port file; 0 on timeout. */
int
awaitPort(const std::string &dir, int timeout_s = 120)
{
    const std::string path = dir + "/port.txt";
    for (int i = 0; i < timeout_s * 10; ++i) {
        std::ifstream in(path);
        int port = 0;
        if (in >> port && port > 0)
            return port;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
    return 0;
}

/** Run ramp_client; returns its exit code. */
int
runClient(int port, const std::string &args)
{
    const int rc = std::system(cat(RAMP_CLIENT_BIN, " --port ",
                                   port, " ", args,
                                   " >/dev/null 2>&1")
                                   .c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Run a command line; returns its exit code and stderr text. */
std::pair<int, std::string>
runCaptured(const std::string &dir, const std::string &cmd)
{
    const std::string err = dir + "/stderr.txt";
    const int rc =
        std::system(cat(cmd, " >/dev/null 2>", err).c_str());
    std::ifstream in(err);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, text};
}

/** Reap the daemon; returns its exit code (-1 on abnormal exit). */
int
reap(pid_t pid, int timeout_s = 60)
{
    for (int i = 0; i < timeout_s * 10; ++i) {
        int status = 0;
        const pid_t done = ::waitpid(pid, &status, WNOHANG);
        if (done == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -2; // Timed out draining.
}

TEST(DaemonSmoke, ServeThenShutdownRequest)
{
    const std::string dir = scratchDir("shutdown");
    const pid_t pid = spawnServer({}, dir);
    ASSERT_GT(pid, 0);
    const int port = awaitPort(dir);
    ASSERT_GT(port, 0) << "daemon never published its port";

    EXPECT_EQ(runClient(port, "stats"), 0);
    EXPECT_EQ(runClient(port, "evaluate MPGdec DVS 0"), 0);
    EXPECT_EQ(runClient(port, "select-drm MPGdec DVS"), 0);
    // Unknown app: structured failure, daemon stays up.
    EXPECT_NE(runClient(port, "evaluate nope DVS 0"), 0);
    EXPECT_EQ(runClient(port, "stats"), 0);

    EXPECT_EQ(runClient(port, "shutdown"), 0);
    EXPECT_EQ(reap(pid), 0) << "daemon did not drain cleanly";
}

TEST(DaemonSmoke, SigtermDrains)
{
    const std::string dir = scratchDir("sigterm");
    const pid_t pid = spawnServer({}, dir);
    ASSERT_GT(pid, 0);
    const int port = awaitPort(dir);
    ASSERT_GT(port, 0);
    EXPECT_EQ(runClient(port, "stats"), 0);

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    EXPECT_EQ(reap(pid), 0) << "SIGTERM drain failed";
}

TEST(DaemonSmoke, SurvivesDroppedAndSlowConnections)
{
    const std::string dir = scratchDir("faulted");
    const pid_t pid = spawnServer(
        {"--fault-plan",
         "{\"seed\":11,\"faults\":{"
         "\"conn-drop\":{\"rate\":0.3},"
         "\"conn-slow\":{\"rate\":0.5,\"delay-ms\":20}}}"},
        dir);
    ASSERT_GT(pid, 0);
    const int port = awaitPort(dir);
    ASSERT_GT(port, 0);

    // Individual invocations may lose their connection (that is the
    // point); the daemon must answer *some* and survive all of them.
    int ok = 0;
    for (int i = 0; i < 10; ++i)
        if (runClient(port,
                      "--timeout-ms 10000 evaluate MPGdec DVS 1") ==
            0)
            ++ok;
    EXPECT_GT(ok, 0) << "every faulted request failed";

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    EXPECT_EQ(reap(pid), 0)
        << "daemon did not survive the fault campaign";
}

TEST(DaemonSmoke, OutOfRangeIntegersAreRejectedNamingTheFlag)
{
    const std::string dir = scratchDir("flags");
    const std::string served = RAMP_SERVED_BIN;
    const std::string routed = RAMP_ROUTED_BIN;
    const std::string client = RAMP_CLIENT_BIN;
    // Each would previously wrap or truncate silently: 65536 to an
    // ephemeral port, -1 to 65535 or 2^64-1, "abc" to config 0.
    const std::pair<std::string, std::string> cases[] = {
        {served + " --port 65536 --port-file " + dir + "/port.txt",
         "--port"},
        {served + " --threads -1", "--threads"},
        {routed + " --backends 70000", "--backends"},
        {routed + " --backends 1,,2", "--backends"},
        {client + " --port -1 stats", "--port"},
        {client + " --port 1 evaluate MPGdec DVS abc", "CONFIG"},
    };
    for (const auto &[cmd, flag] : cases) {
        const auto [rc, err] = runCaptured(dir, cmd);
        EXPECT_NE(rc, 0) << cmd;
        EXPECT_NE(err.find(flag), std::string::npos)
            << cmd << "\n" << err;
    }
    // Nothing listened on the rejected port.
    EXPECT_FALSE(std::ifstream(dir + "/port.txt").good());
}

} // namespace
