/**
 * @file
 * Tests for the shared bench command line (bench/common.hh): the
 * three-way cache-path precedence (--cache flag > RAMP_EVAL_CACHE >
 * default, with an explicit empty flag selecting an in-memory
 * cache), the checked integer flags, the --bench-json artifact
 * override, and the atomic artifact writer.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// ramp-lint: allow(include-path): header-only bench/common.hh, wired in via a target include dir
#include "common.hh"

namespace ramp::bench {
namespace {

/** Run Options::parse over a synthetic argv. */
Options
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench_test");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    return Options::parse(static_cast<int>(args.size()), argv.data());
}

/** Scoped environment override that restores the prior value. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *cur = std::getenv(name))
            old_ = cur;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> old_;
};

TEST(BenchOptions, CacheDefaultsWhenNothingIsSet)
{
    EnvGuard env("RAMP_EVAL_CACHE", nullptr);
    const Options opts = parseArgs({});
    EXPECT_FALSE(opts.cache_set);
    EXPECT_EQ(cachePath(opts), "ramp_eval_cache.txt");
}

TEST(BenchOptions, CacheEnvBeatsDefault)
{
    EnvGuard env("RAMP_EVAL_CACHE", "from_env.txt");
    const Options opts = parseArgs({});
    EXPECT_EQ(cachePath(opts), "from_env.txt");
}

TEST(BenchOptions, CacheFlagBeatsEnv)
{
    EnvGuard env("RAMP_EVAL_CACHE", "from_env.txt");
    const Options opts = parseArgs({"--cache", "from_flag.txt"});
    EXPECT_TRUE(opts.cache_set);
    EXPECT_EQ(cachePath(opts), "from_flag.txt");
}

TEST(BenchOptions, EmptyCacheFlagMeansInMemoryAndBeatsEnv)
{
    // The regression this pins: an explicit `--cache ""` opts out of
    // any file-backed cache. Falling through to RAMP_EVAL_CACHE here
    // would silently reattach the file the caller rejected.
    EnvGuard env("RAMP_EVAL_CACHE", "from_env.txt");
    const Options opts = parseArgs({"--cache", ""});
    EXPECT_TRUE(opts.cache_set);
    EXPECT_EQ(cachePath(opts), "");
}

TEST(BenchOptions, ChipShapeFlagsParse)
{
    const Options plain = parseArgs({});
    EXPECT_EQ(plain.cores, 0u);
    EXPECT_TRUE(plain.floorplan_path.empty());

    EXPECT_EQ(parseArgs({"--cores", "4"}).cores, 4u);
    EXPECT_EQ(parseArgs({"--cores=8"}).cores, 8u);
    EXPECT_EQ(parseArgs({"--floorplan", "chip.json"}).floorplan_path,
              "chip.json");
}

TEST(BenchOptionsDeath, BadChipShapeFlagsAreFatal)
{
    EXPECT_EXIT(parseArgs({"--cores", "0"}),
                testing::ExitedWithCode(1),
                "--cores needs an integer from 1");
    EXPECT_EXIT(parseArgs({"--cores", "two"}),
                testing::ExitedWithCode(1),
                "--cores needs an integer from 1");
    EXPECT_EXIT(parseArgs({"--floorplan", ""}),
                testing::ExitedWithCode(1), "non-empty path");
}

TEST(BenchOptionsDeath, SignedOrOversizedCountsAreFatal)
{
    // strtoull would take "-1" as 2^64-1 threads.
    EXPECT_EXIT(parseArgs({"--threads", "-1"}),
                testing::ExitedWithCode(1),
                "--threads needs an integer");
    EXPECT_EXIT(parseArgs({"--threads=4294967296"}),
                testing::ExitedWithCode(1),
                "--threads needs an integer");
    EXPECT_EXIT(parseArgs({"--apps", "+2"}), testing::ExitedWithCode(1),
                "--apps needs an integer");
}

TEST(BenchOptions, BenchJsonDefaultsOverridesAndDisables)
{
    const Options plain = parseArgs({});
    EXPECT_FALSE(plain.bench_json_set);
    EXPECT_EQ(benchJsonPath(plain, "BENCH_x.json"), "BENCH_x.json");

    const Options custom =
        parseArgs({"--bench-json", "elsewhere.json"});
    EXPECT_TRUE(custom.bench_json_set);
    EXPECT_EQ(benchJsonPath(custom, "BENCH_x.json"),
              "elsewhere.json");

    const Options disabled = parseArgs({"--bench-json", ""});
    EXPECT_TRUE(disabled.bench_json_set);
    EXPECT_EQ(benchJsonPath(disabled, "BENCH_x.json"), "");
}

TEST(BenchArtifact, ReplacesTheFileWholeAndReportsFailure)
{
    const std::string path = "bench_artifact_test.json";
    {
        std::ofstream old(path);
        old << "stale and longer than the new document\n";
    }
    util::JsonValue doc = util::JsonValue::makeObject();
    doc.set("n", util::JsonValue::makeNumber(1));
    ASSERT_TRUE(writeBenchArtifact(path, doc));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "{\"n\":1}\n");
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());

    // An unwritable path is reported, not warned about and dropped.
    EXPECT_FALSE(writeBenchArtifact("no_such_dir/BENCH_x.json", doc));
}

} // namespace
} // namespace ramp::bench
