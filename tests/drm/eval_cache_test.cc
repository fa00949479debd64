/**
 * @file
 * Tests for the persistent evaluation cache: round trips, file
 * persistence across instances, key discrimination, and tolerance of
 * corrupt data.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "drm/adaptation.hh"
#include "drm/eval_cache.hh"
#include "util/random.hh"

namespace ramp::drm {
namespace {

/** Temp file path unique to this test binary run. */
std::string
tmpPath(const char *tag)
{
    return testing::TempDir() + "ramp_cache_test_" + tag + ".txt";
}

CachedEvaluation
sample(double ipc_scale = 1.0)
{
    CachedEvaluation v;
    v.activity.cycles = 1000;
    v.activity.retired = static_cast<std::uint64_t>(800 * ipc_scale);
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        v.activity.activity[i] = 0.05 * static_cast<double>(i + 1);
    v.stats.cycles = 1000;
    v.stats.retired = v.activity.retired;
    v.stats.branches = 77;
    v.stats.mispredicts = 7;
    v.l1d_miss_ratio = 0.031;
    v.l2_miss_ratio = 0.25;
    return v;
}

TEST(EvalCache, MissOnEmpty)
{
    EvaluationCache cache;
    EXPECT_FALSE(cache.get("nope").has_value());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCache, PutGetRoundTrip)
{
    EvaluationCache cache;
    cache.put("k1", sample());
    const auto hit = cache.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->activity.retired, 800u);
    EXPECT_EQ(hit->stats.branches, 77u);
    EXPECT_DOUBLE_EQ(hit->l1d_miss_ratio, 0.031);
    EXPECT_DOUBLE_EQ(hit->activity.activity[3], 0.2);
}

TEST(EvalCache, PersistsAcrossInstances)
{
    const auto path = tmpPath("persist");
    std::remove(path.c_str());
    {
        EvaluationCache cache(path);
        cache.put("a", sample(1.0));
        cache.put("b", sample(0.5));
    }
    EvaluationCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    const auto a = reloaded.get("a");
    const auto b = reloaded.get("b");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->activity.retired, 800u);
    EXPECT_EQ(b->activity.retired, 400u);
    EXPECT_DOUBLE_EQ(a->l2_miss_ratio, 0.25);
    std::remove(path.c_str());
}

TEST(EvalCache, OverwriteKeepsLatest)
{
    const auto path = tmpPath("overwrite");
    std::remove(path.c_str());
    {
        EvaluationCache cache(path);
        cache.put("k", sample(1.0));
        cache.put("k", sample(0.5));
        EXPECT_EQ(cache.get("k")->activity.retired, 400u);
    }
    // The file holds both records; reload must keep the latest.
    EvaluationCache reloaded(path);
    EXPECT_EQ(reloaded.get("k")->activity.retired, 400u);
    std::remove(path.c_str());
}

TEST(EvalCache, IgnoresCorruptLines)
{
    const auto path = tmpPath("corrupt");
    {
        std::ofstream out(path);
        out << "garbage line\n";
        out << "999 badversion 1 2 3\n";
        out << "2 truncated_record 12\n";
    }
    EvaluationCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    // And it still accepts new records.
    cache.put("fresh", sample());
    EXPECT_TRUE(cache.get("fresh").has_value());
    std::remove(path.c_str());
}

TEST(EvalCache, MissingFileIsColdCache)
{
    EvaluationCache cache(tmpPath("never_created_xyz"));
    EXPECT_EQ(cache.size(), 0u);
    std::remove(tmpPath("never_created_xyz").c_str());
}

TEST(EvalCacheKey, DiscriminatesTimingInputs)
{
    const auto &app = workload::findApp("bzip2");
    const auto &other = workload::findApp("gzip");
    const core::EvalParams params;
    const auto base = sim::baseMachine();

    const auto k0 = EvaluationCache::key(base, app, params);

    // Paper-mode (clock-scaled memory): frequency is timing-neutral
    // and every DVS rung shares one record.
    sim::MachineConfig cfg = base;
    cfg.frequency_ghz = 3.0;
    EXPECT_EQ(EvaluationCache::key(cfg, app, params), k0);

    // Physical-time mode: frequency changes the cycle counts.
    sim::MachineConfig ns_base = base;
    ns_base.offchip_scales_with_clock = false;
    sim::MachineConfig ns_slow = ns_base;
    ns_slow.frequency_ghz = 3.0;
    EXPECT_NE(EvaluationCache::key(ns_slow, app, params),
              EvaluationCache::key(ns_base, app, params));

    cfg = base;
    cfg.window_size = 64;
    EXPECT_NE(EvaluationCache::key(cfg, app, params), k0);

    cfg = base;
    cfg.num_int_alu = 2;
    EXPECT_NE(EvaluationCache::key(cfg, app, params), k0);

    EXPECT_NE(EvaluationCache::key(base, other, params), k0);

    core::EvalParams p2 = params;
    p2.seed = 99;
    EXPECT_NE(EvaluationCache::key(base, app, p2), k0);

    p2 = params;
    p2.measure_uops += 1;
    EXPECT_NE(EvaluationCache::key(base, app, p2), k0);
}

TEST(EvalCache, CompactsLogOnLoad)
{
    const auto path = tmpPath("compact");
    std::remove(path.c_str());
    {
        EvaluationCache cache(path);
        cache.put("k", sample(1.0));
        cache.put("k", sample(0.5)); // supersedes the first line
        cache.put("other", sample(1.0));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "garbage line\n";
        out << "1 stale_version 1 2 3\n";
    }
    // Load drops the superseded duplicate, the corrupt line, and the
    // stale version -- and rewrites the log as one line per record.
    EvaluationCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().loaded, 2u);
    EXPECT_EQ(cache.stats().compacted, 3u);
    EXPECT_EQ(cache.get("k")->activity.retired, 400u);

    std::size_t lines = 0;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 2u);

    // A clean reload compacts nothing further.
    EvaluationCache again(path);
    EXPECT_EQ(again.stats().compacted, 0u);
    EXPECT_EQ(again.size(), 2u);
    std::remove(path.c_str());
}

TEST(EvalCache, CountsHitsMissesAppends)
{
    const auto path = tmpPath("stats");
    std::remove(path.c_str());
    EvaluationCache cache(path);
    EXPECT_FALSE(cache.get("absent").has_value());
    cache.put("present", sample());
    EXPECT_TRUE(cache.get("present").has_value());
    EXPECT_TRUE(cache.get("present").has_value());

    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.appended, 1u);
    EXPECT_EQ(s.loaded, 0u);
    std::remove(path.c_str());
}

TEST(EvalCacheKey, FineGrainedDvsRungsDoNotCollide)
{
    // In physical-time mode the frequency is part of the key; rungs
    // differing past 4 significant digits must still get distinct
    // records (the old 4-digit serialization collided them).
    const auto &app = workload::findApp("bzip2");
    const core::EvalParams params;
    sim::MachineConfig a = sim::baseMachine();
    a.offchip_scales_with_clock = false;
    a.frequency_ghz = 4.000;
    sim::MachineConfig b = a;
    b.frequency_ghz = 4.0001;
    EXPECT_NE(EvaluationCache::key(a, app, params),
              EvaluationCache::key(b, app, params));

    // Full round-trip precision: any representable difference keys.
    sim::MachineConfig c = a;
    c.frequency_ghz = std::nextafter(4.0, 5.0);
    EXPECT_NE(EvaluationCache::key(a, app, params),
              EvaluationCache::key(c, app, params));
}

TEST(EvalCacheKey, VoltageDoesNotAffectTiming)
{
    // Voltage changes power and reliability but never timing, so two
    // configs differing only in V share one timing record.
    const auto &app = workload::findApp("bzip2");
    const core::EvalParams params;
    sim::MachineConfig a = sim::baseMachine();
    sim::MachineConfig b = sim::baseMachine();
    b.voltage_v = 1.05;
    EXPECT_EQ(EvaluationCache::key(a, app, params),
              EvaluationCache::key(b, app, params));
}

/** The key as the cache formatted it with a std::ostringstream,
 *  which every existing cache file was written with. */
std::string
streamKey(const sim::MachineConfig &cfg, const workload::AppProfile &app,
          const core::EvalParams &params)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << app.name << "|w" << cfg.window_size << "a" << cfg.num_int_alu
       << "f" << cfg.num_fpu << "g" << cfg.num_agen << "q"
       << cfg.mem_queue << "d" << cfg.fetch_duty_x8 << "|";
    if (cfg.offchip_scales_with_clock)
        os << "cycN";
    else
        os << cfg.frequency_ghz << "GHz";
    os << '|' << params.seed << '|' << params.warmup_uops << '|'
       << params.measure_uops;
    return os.str();
}

TEST(EvalCacheKey, ByteIdenticalToTheStreamFormat)
{
    // Every configuration of every space, absolute-latency variants
    // at awkward frequencies, and extreme run lengths: the key is the
    // same string it always was, so cache files do not change.
    util::Rng rng(101);
    std::vector<sim::MachineConfig> cfgs;
    for (auto space : {AdaptationSpace::Arch, AdaptationSpace::Dvs,
                       AdaptationSpace::ArchDvs,
                       AdaptationSpace::FetchThrottle})
        for (const auto &cfg : configSpace(space))
            cfgs.push_back(cfg);
    for (double f : {0.1, 1.0 / 3.0, 4.0, 2.5, 1e-5, 1e22, 3.0000000000000004,
                     std::numeric_limits<double>::denorm_min(),
                     std::numeric_limits<double>::max(), -2.0,
                     rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)}) {
        sim::MachineConfig cfg = sim::baseMachine();
        cfg.offchip_scales_with_clock = false;
        cfg.frequency_ghz = f;
        cfg.window_size = static_cast<std::uint32_t>(rng.below(1u << 31));
        cfgs.push_back(cfg);
    }
    core::EvalParams params;
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0},
                               ~std::uint64_t{0}}) {
        params.seed = seed;
        params.warmup_uops = seed * 7;
        for (const auto &app : workload::standardApps())
            for (const auto &cfg : cfgs)
                EXPECT_EQ(EvaluationCache::key(cfg, app, params),
                          streamKey(cfg, app, params));
    }
}

/** The record-line parser as it was, on a std::istringstream. */
bool
streamParse(const std::string &line, std::string &key,
            CachedEvaluation &v)
{
    std::istringstream is(line);
    int version = 0;
    is >> version >> key;
    if (version != 3 || key.empty()) // the current record version
        return false;
    is >> v.activity.cycles >> v.activity.retired;
    for (auto &a : v.activity.activity)
        is >> a;
    is >> v.stats.cycles >> v.stats.fetched >> v.stats.retired >>
        v.stats.dispatched >> v.stats.issued >> v.stats.branches >>
        v.stats.mispredicts >> v.stats.ras_returns >> v.stats.loads >>
        v.stats.stores;
    is >> v.l1d_miss_ratio >> v.l1i_miss_ratio >> v.l2_miss_ratio;
    return static_cast<bool>(is);
}

bool
sameRecord(const CachedEvaluation &a, const CachedEvaluation &b)
{
    return std::memcmp(&a.activity.cycles, &b.activity.cycles, 8) == 0 &&
           a.activity.retired == b.activity.retired &&
           std::memcmp(&a.activity.activity, &b.activity.activity,
                       sizeof a.activity.activity) == 0 &&
           std::memcmp(&a.stats, &b.stats, sizeof a.stats) == 0 &&
           std::memcmp(&a.l1d_miss_ratio, &b.l1d_miss_ratio, 8) == 0 &&
           std::memcmp(&a.l1i_miss_ratio, &b.l1i_miss_ratio, 8) == 0 &&
           std::memcmp(&a.l2_miss_ratio, &b.l2_miss_ratio, 8) == 0;
}

/** A finite double from random bits (any exponent, subnormals too). */
double
randomDouble(util::Rng &rng)
{
    for (;;) {
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        if (std::isfinite(d))
            return d;
    }
}

TEST(EvalCache, RecordsRoundTripBitForBit)
{
    // Random doubles over the whole finite range, subnormals and the
    // values max_digits10 exists for, written to a file and read back
    // by a fresh instance.
    using L = std::numeric_limits<double>;
    const std::vector<double> edges{
        0.1, 1.0 / 3.0, 2.0 / 3.0, -0.0, 0.0, L::max(), -L::max(),
        L::min(), L::denorm_min(), -L::denorm_min(),
        std::nextafter(L::min(), 0.0), std::nextafter(1.0, 2.0),
        std::nextafter(1.0, 0.0), 9007199254740993.0, 1e23, 5e-324,
        2.2250738585072009e-308, 0.30000000000000004};
    util::Rng rng(103);
    std::vector<CachedEvaluation> records(64);
    for (std::size_t r = 0; r < records.size(); ++r) {
        CachedEvaluation &v = records[r];
        const auto value = [&] {
            return r < 16 ? edges[rng.below(edges.size())]
                          : randomDouble(rng);
        };
        v.activity.cycles = rng.next();
        v.activity.retired = r % 2 ? ~std::uint64_t{0} : rng.next();
        for (double &a : v.activity.activity)
            a = value();
        v.stats.cycles = rng.next();
        v.stats.loads = r;
        v.stats.stores = std::uint64_t{1} << 63;
        v.l1d_miss_ratio = value();
        v.l1i_miss_ratio = value();
        v.l2_miss_ratio = value();
    }
    const auto path = tmpPath("roundtrip_bits");
    std::remove(path.c_str());
    {
        EvaluationCache cache(path);
        for (std::size_t r = 0; r < records.size(); ++r)
            cache.put("k" + std::to_string(r), records[r]);
    }
    EvaluationCache reloaded(path);
    EXPECT_EQ(reloaded.stats().loaded, records.size());
    EXPECT_EQ(reloaded.stats().quarantined, 0u);
    for (std::size_t r = 0; r < records.size(); ++r) {
        const auto got = reloaded.get("k" + std::to_string(r));
        ASSERT_TRUE(got.has_value()) << r;
        EXPECT_TRUE(sameRecord(*got, records[r])) << r;
    }
    std::remove(path.c_str());
}

TEST(EvalCache, ParserAcceptsExactlyWhatTheStreamParserDid)
{
    // Valid lines mutated token by token, separator by separator,
    // byte by byte and by truncation: the parser accepts exactly the
    // lines the istringstream parser accepted, with the same values,
    // and a load quarantines exactly the lines it rejected.
    EvaluationCache source;
    source.put("app|w128a6f4g2q32d8|cycN|1|600000|600000", sample());
    const std::string valid = source.exportRecords().front().second;
    const std::vector<std::string> tokens{
        "", "+5", "-5", "0x10", "1e", "1e+", "1.e5", ".5", "5.", ".",
        "-", "+", "nan", "inf", "-inf", "infinity", "1e400", "-1e400",
        "1e-400", "-1e-400", "0.1e-330", "2.4703282292062327e-324",
        "4.9e-324", "18446744073709551615", "18446744073709551616",
        "-18446744073709551615", "99999999999999999999999", "007",
        "1,5", "1.5.5", "1e5e5", "12abc", "abc", "+-1", "--1", "0e0",
        "1E5", "1e-5", "00.5", "-0", "+0", "4.0x", "0x1p3", "3", "+3",
        "03", "2147483648", "-2147483649", "1e-5x", ".e5", "-.5", "+.5e-2"};
    util::Rng rng(107);
    std::vector<std::string> lines{valid};
    std::vector<std::string> words;
    {
        std::istringstream is(valid);
        for (std::string w; is >> w;)
            words.push_back(w);
    }
    for (std::size_t w = 0; w < words.size(); ++w) {
        for (const auto &t : tokens) {
            std::string line;
            for (std::size_t i = 0; i < words.size(); ++i)
                line += (i ? " " : "") + (i == w ? t : words[i]);
            lines.push_back(line);
        }
    }
    for (int i = 0; i < 400; ++i) {
        std::string line = valid;
        switch (i % 4) {
          case 0: // one separator changed
            for (std::size_t at = rng.below(line.size());; ++at) {
                if (line[at % line.size()] == ' ') {
                    static const char *seps[] = {"\t", "  ", "\v", "\r",
                                                 "\f", "", "\n", ","};
                    line.replace(at % line.size(), 1, seps[rng.below(8)]);
                    break;
                }
            }
            break;
          case 1: // one byte changed
            line[rng.below(line.size())] =
                "0123456789.+-eExX \t"[rng.below(19)];
            break;
          case 2: // truncated
            line.resize(rng.below(line.size()));
            break;
          default: // trailing material
            line += std::vector<std::string>{
                "x", " 1", " extra", "\t", " ", "e5", "5"}[rng.below(7)];
        }
        lines.push_back(line);
    }

    std::size_t rejected = 0;
    const auto path = tmpPath("parser_equivalence");
    std::remove(path.c_str());
    {
        std::ofstream out(path);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string &line = lines[i];
            std::string want_key;
            CachedEvaluation want;
            const bool ok = streamParse(line, want_key, want);
            rejected += ok ? 0 : 1;
            if (line.find('\n') == std::string::npos)
                out << line << '\n'; // a file holds one-line records
            // The key a wrongly accepted line would parse to.
            std::string key = want_key;
            if (!ok) {
                std::istringstream is(line);
                is >> key >> key;
            }
            EvaluationCache cache;
            ASSERT_EQ(cache.putSerialized(key, line), ok)
                << "line " << i << ": '" << line << "'";
            if (ok) {
                const auto got = cache.get(key);
                ASSERT_TRUE(got.has_value());
                EXPECT_TRUE(sameRecord(*got, want))
                    << "line " << i << ": '" << line << "'";
            }
        }
    }
    EXPECT_GT(rejected, 100u);
    EXPECT_LT(rejected, lines.size() - 100);

    // Loading the same lines (one per line of the file) quarantines
    // exactly those the stream parser rejected.
    std::size_t want_quarantined = 0;
    {
        std::ifstream in(path);
        std::string key;
        CachedEvaluation v;
        for (std::string line; std::getline(in, line);)
            want_quarantined += streamParse(line, key, v) ? 0 : 1;
    }
    EvaluationCache loaded(path);
    EXPECT_EQ(loaded.stats().quarantined, want_quarantined);
    std::remove(path.c_str());
    std::remove((path + ".quarantine").c_str());
    std::remove((path + ".lock").c_str());
}

} // namespace
} // namespace ramp::drm
