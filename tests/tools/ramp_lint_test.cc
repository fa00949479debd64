/**
 * @file
 * ramp-lint self-tests: drive the real binary against the fixture
 * trees under tests/tools/fixtures/ and assert both the exit code
 * and the file:line diagnostics each rule must produce. Paths come
 * in via compile definitions (RAMP_LINT_BIN, RAMP_LINT_FIXTURES,
 * RAMP_LINT_ROOT).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult
{
    int exit_code = -1;
    std::string output;
};

/** Run a command, capturing stdout+stderr and the exit code. */
RunResult
run(const std::string &cmd)
{
    RunResult r;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return r;
    std::array<char, 4096> buf{};
    std::size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

const std::string bin = RAMP_LINT_BIN;
const std::string fixtures = RAMP_LINT_FIXTURES;

/** Lint one fixture dir with its own (or no) manifest. */
RunResult
lintFixture(const std::string &name, bool with_manifest)
{
    const std::string dir = fixtures + "/" + name;
    std::string cmd = bin + " --root " + dir;
    cmd += with_manifest ? " --manifest " + dir + "/metrics.manifest"
                         : " --no-manifest";
    return run(cmd + " " + dir);
}

TEST(RampLint, CleanFixturePasses)
{
    const auto r = lintFixture("pass", true);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("clean"), std::string::npos);
}

TEST(RampLint, UndocumentedMetricFailsWithFileAndLine)
{
    const auto r = lintFixture("fail_manifest", true);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The undocumented name, anchored to its call site.
    EXPECT_NE(r.output.find("code.cc:13:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("rogue.metric"), std::string::npos);
    // A name routed through the channelInstant helper (the literal
    // is the second argument) is still extracted and anchored.
    EXPECT_NE(r.output.find("code.cc:21:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("rogue.instant"), std::string::npos);
    // The dead entry, anchored to its manifest line.
    EXPECT_NE(r.output.find("metrics.manifest:2:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("dead manifest entry"),
              std::string::npos);
}

TEST(RampLint, CoreCounterNamesAreTemplated)
{
    const auto r = lintFixture("fail_core", true);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // coreCounter(core, "rogue") is extracted as the templated
    // name and anchored to its call site.
    EXPECT_NE(r.output.find("code.cc:19:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("cmp.core<i>.rogue"),
              std::string::npos)
        << r.output;
    // A literal digit-run name is undocumented only after the
    // templated fallback also misses.
    EXPECT_NE(r.output.find("code.cc:20:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("cmp.core7.bad"), std::string::npos)
        << r.output;
    // The documented suffix matches; its row is not dead either.
    EXPECT_EQ(r.output.find("cmp.core<i>.good"),
              std::string::npos)
        << r.output;
}

TEST(RampLint, NakedQuantityNamesFail)
{
    const auto r = lintFixture("fail_suffix", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    for (const char *needle : {"naked.hh:5:", "naked.hh:6:",
                               "naked.hh:7:", "naked.hh:10:"})
        EXPECT_NE(r.output.find(needle), std::string::npos)
            << needle << " missing in:\n"
            << r.output;
    EXPECT_NE(r.output.find("[unit-suffix]"), std::string::npos);
    EXPECT_NE(r.output.find("_af"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("_w (Watts)"), std::string::npos);
}

TEST(RampLint, BannedPatternsFail)
{
    const auto r = lintFixture("fail_banned", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    for (const char *needle :
         {"[banned-rand]", "[raw-new]", "[raw-delete]", "[endl]",
          "[mutex-guard]", "[suppression]"})
        EXPECT_NE(r.output.find(needle), std::string::npos)
            << needle << " missing in:\n"
            << r.output;
    // std::rand anchored to its line.
    EXPECT_NE(r.output.find("banned.cc:11:"), std::string::npos)
        << r.output;
    // A reason-less allow() is itself a finding, and suppresses
    // nothing: the srand on the next line still fires.
    EXPECT_NE(r.output.find("banned.cc:23:"), std::string::npos)
        << r.output;
}

TEST(RampLint, IncludeHygieneFails)
{
    const auto r = lintFixture("fail_include", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("[pragma-once]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[include-path]"), std::string::npos);
    EXPECT_NE(r.output.find("upward include"), std::string::npos);
    EXPECT_NE(r.output.find("bad.hh:3:"), std::string::npos);
    EXPECT_NE(r.output.find("bad.hh:4:"), std::string::npos);
}

TEST(RampLint, MixedUnitsAndCrossUnitAssignFail)
{
    const auto r = lintFixture("fail_units", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("[unit-consistency]"), std::string::npos)
        << r.output;
    // Mixed-unit arithmetic, anchored to the offending expression.
    EXPECT_NE(r.output.find("units.cc:9:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("'t_k' (_k) vs 'p_w' (_w)"),
              std::string::npos);
    // Cross-unit assignment without a conversion marker.
    EXPECT_NE(r.output.find("units.cc:17:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("cross-unit assignment"),
              std::string::npos);
    // A convert() marker naming an unknown unit is itself a finding
    // and sanctions nothing: the assignment under it still fires.
    EXPECT_NE(r.output.find("units.cc:20:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("unknown unit suffix"),
              std::string::npos);
    EXPECT_NE(r.output.find("units.cc:21:"), std::string::npos)
        << r.output;
    // The sanctioned conversion (valid marker on line 18) is silent.
    EXPECT_EQ(r.output.find("units.cc:19:"), std::string::npos)
        << r.output;
}

TEST(RampLint, LockDisciplineFails)
{
    const auto r = lintFixture("fail_lock", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    // The one unguarded use, with the annotation echoed back.
    EXPECT_NE(r.output.find("lock.cc:48:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[lock-discipline]"), std::string::npos);
    EXPECT_NE(r.output.find("'value_'"), std::string::npos);
    // Uses under lock_guard / unique_lock / scoped_lock /
    // shared_lock scopes, and the reasoned allow(), are all silent:
    // exactly one finding in the whole fixture.
    EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos)
        << r.output;
}

TEST(RampLint, WireSchemaDriftFails)
{
    const auto r = lintFixture("fail_schema", false);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("[wire-schema]"), std::string::npos)
        << r.output;
    // Implemented-but-undocumented field, anchored in protocol.cc.
    EXPECT_NE(r.output.find("protocol.cc:27:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("field 'color'"), std::string::npos);
    // Documented-but-unimplemented verb, anchored in DESIGN.md.
    EXPECT_NE(r.output.find("DESIGN.md:14:"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("'vanish'"), std::string::npos);
}

TEST(RampLint, ConsistentWireSchemaPasses)
{
    const auto r = lintFixture("pass_schema", false);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

/** Drop the `scanned N files in X ms` line — the only
 *  nondeterministic output (wall time varies run to run). */
std::string
withoutTimingLine(const std::string &out)
{
    std::string kept;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t eol = out.find('\n', pos);
        if (eol == std::string::npos)
            eol = out.size();
        const std::string line = out.substr(pos, eol - pos);
        if (line.find("ramp-lint: scanned") == std::string::npos)
            kept += line + "\n";
        pos = eol + 1;
    }
    return kept;
}

TEST(RampLint, ThreadCountDoesNotChangeOutput)
{
    // Findings are path-sorted after the parallel walk, so modulo
    // the wall-time line the report is byte-identical at any width.
    const std::string dirs =
        fixtures + "/fail_units " + fixtures + "/fail_lock";
    const std::string base =
        bin + " --root " + fixtures + " --no-manifest " + dirs;
    const auto one = run(base + " --threads 1");
    const auto four = run(base + " --threads 4");
    EXPECT_EQ(one.exit_code, 1) << one.output;
    EXPECT_EQ(four.exit_code, 1) << four.output;
    EXPECT_EQ(withoutTimingLine(one.output),
              withoutTimingLine(four.output));
    EXPECT_NE(four.output.find("(4 threads)"), std::string::npos)
        << four.output;
}

TEST(RampLint, RealTreeIsClean)
{
    const auto r = run(bin + " --root " + std::string(RAMP_LINT_ROOT));
    EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(RampLint, UsageErrorsExitTwo)
{
    EXPECT_EQ(run(bin).exit_code, 2);
    EXPECT_EQ(run(bin + " --root /no/such/dir").exit_code, 2);
    EXPECT_EQ(run(bin + " --bogus-flag").exit_code, 2);
    // A file is not a valid --root.
    const std::string f = fixtures + "/fail_units/units.cc";
    const auto file_root = run(bin + " --root " + f + " " + f);
    EXPECT_EQ(file_root.exit_code, 2) << file_root.output;
    EXPECT_NE(file_root.output.find("not a directory"),
              std::string::npos)
        << file_root.output;
    // A nonexistent PATH is a hard error, not a silent skip.
    const auto gone =
        run(bin + " --root " + fixtures + " " + fixtures + "/nope.cc");
    EXPECT_EQ(gone.exit_code, 2) << gone.output;
    EXPECT_NE(gone.output.find("not a file or readable directory"),
              std::string::npos)
        << gone.output;
}

} // namespace
