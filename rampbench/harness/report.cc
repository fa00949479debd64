#include "report.hh"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ramp {
namespace bench {

using util::JsonValue;

void
RunRecord::fail(const std::string &what)
{
    std::fprintf(stderr, "ramp_bench: CHECK FAILED: %s\n", what.c_str());
    check_failures.push_back(what);
}

const Metric *
RunRecord::findMetric(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

namespace {

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

JsonValue
metricsJson(const std::vector<Metric> &metrics)
{
    JsonValue out = JsonValue::makeObject();
    for (const auto &m : metrics) {
        JsonValue entry = JsonValue::makeObject();
        entry.set("value", num(m.value));
        entry.set("unit", JsonValue::makeString(m.unit));
        out.set(m.name, std::move(entry));
    }
    return out;
}

} // namespace

JsonValue
toJson(const RunRecord &run)
{
    JsonValue host = JsonValue::makeObject();
    host.set("nproc", num(run.host.nproc));
    host.set("threads", num(run.host.threads));
    host.set("build_type", JsonValue::makeString(run.host.build_type));
    host.set("compiler", JsonValue::makeString(run.host.compiler));

    JsonValue counts = JsonValue::makeObject();
    for (const auto &[name, n] : run.counts)
        counts.set(name, num(static_cast<double>(n)));
    JsonValue digests = JsonValue::makeObject();
    for (const auto &[name, d] : run.digests)
        digests.set(name, JsonValue::makeString(d));
    JsonValue checks = JsonValue::makeArray();
    for (const auto &c : run.check_failures)
        checks.push(JsonValue::makeString(c));

    JsonValue out = JsonValue::makeObject();
    out.set("schema", JsonValue::makeString("ramp_bench/1"));
    out.set("workload", JsonValue::makeString(run.workload));
    out.set("seed", num(static_cast<double>(run.seed)));
    out.set("trace", JsonValue::makeBool(run.trace));
    out.set("seconds", num(run.seconds));
    out.set("smoke", JsonValue::makeBool(run.smoke));
    out.set("host", std::move(host));
    out.set("correct", JsonValue::makeBool(run.correct()));
    out.set("attempted", num(static_cast<double>(run.attempted)));
    out.set("failed", num(static_cast<double>(run.failed)));
    out.set("check_failures", std::move(checks));
    out.set("metrics", metricsJson(run.metrics));
    out.set("counts", std::move(counts));
    out.set("digests", std::move(digests));
    return out;
}

util::Result<RunRecord>
runFromJson(const JsonValue &doc)
{
    const auto bad = [](const std::string &what) {
        return util::RampError{util::ErrorCode::InvalidInput,
                               "run JSON: " + what};
    };
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() || schema->str != "ramp_bench/1")
        return bad("schema is not ramp_bench/1");

    const auto number = [&](const JsonValue &obj, const char *key,
                            double &dst) {
        const JsonValue *v = obj.find(key);
        if (!v || !v->isNumber())
            return false;
        dst = v->number;
        return true;
    };
    const auto string = [&](const JsonValue &obj, const char *key,
                            std::string &dst) {
        const JsonValue *v = obj.find(key);
        if (!v || !v->isString())
            return false;
        dst = v->str;
        return true;
    };

    RunRecord run;
    double seed = 0, attempted = 0, failed = 0, nproc = 0, threads = 0;
    const JsonValue *host = doc.find("host");
    const JsonValue *trace = doc.find("trace");
    const JsonValue *metrics = doc.find("metrics");
    if (!string(doc, "workload", run.workload) ||
        !number(doc, "seed", seed) || !trace || !trace->isBool() ||
        !number(doc, "attempted", attempted) ||
        !number(doc, "failed", failed) || !host || !host->isObject() ||
        !number(*host, "nproc", nproc) ||
        !number(*host, "threads", threads) ||
        !string(*host, "build_type", run.host.build_type) ||
        !string(*host, "compiler", run.host.compiler) || !metrics ||
        !metrics->isObject())
        return bad("missing or mistyped top-level field");
    run.seed = static_cast<std::uint64_t>(seed);
    run.trace = trace->boolean;
    run.attempted = static_cast<std::uint64_t>(attempted);
    run.failed = static_cast<std::uint64_t>(failed);
    run.host.nproc = static_cast<unsigned>(nproc);
    run.host.threads = static_cast<unsigned>(threads);
    if (const JsonValue *smoke = doc.find("smoke");
        smoke && smoke->isBool())
        run.smoke = smoke->boolean;
    number(doc, "seconds", run.seconds);

    for (const auto &[name, entry] : metrics->object) {
        Metric m;
        m.name = name;
        if (!entry.isObject() || !number(entry, "value", m.value) ||
            !string(entry, "unit", m.unit))
            return bad("metric '" + name + "' needs value and unit");
        run.metrics.push_back(std::move(m));
    }
    if (const JsonValue *counts = doc.find("counts");
        counts && counts->isObject())
        for (const auto &[name, v] : counts->object)
            if (v.isNumber())
                run.counts[name] = static_cast<std::uint64_t>(v.number);
    if (const JsonValue *digests = doc.find("digests");
        digests && digests->isObject())
        for (const auto &[name, v] : digests->object)
            if (v.isString())
                run.digests[name] = v.str;
    if (const JsonValue *checks = doc.find("check_failures");
        checks && checks->isArray())
        for (const auto &c : checks->array)
            if (c.isString())
                run.check_failures.push_back(c.str);
    return run;
}

std::string
resultLine(const RunRecord &run)
{
    JsonValue out = JsonValue::makeObject();
    out.set("correct", JsonValue::makeBool(run.correct()));
    out.set("attempted", num(static_cast<double>(run.attempted)));
    out.set("failed", num(static_cast<double>(run.failed)));
    out.set("metrics", metricsJson(run.metrics));
    return util::writeJson(out);
}

util::Result<JsonValue>
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return util::RampError{util::ErrorCode::IoFailure,
                               "cannot read " + path};
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    auto doc = util::parseJson(text.str(), &error);
    if (!doc)
        return util::RampError{util::ErrorCode::InvalidInput,
                               path + ": " + error};
    return std::move(*doc);
}

util::Result<void>
writeJsonFile(const std::string &path, const JsonValue &doc)
{
    std::ofstream out(path, std::ios::trunc);
    if (out)
        out << util::writeJson(doc) << '\n';
    if (!out)
        return util::RampError{util::ErrorCode::IoFailure,
                               "cannot write " + path};
    return {};
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
SpanLog::add(Span span)
{
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
}

void
SpanLog::addAll(std::vector<Span> spans)
{
    std::lock_guard lock(mu_);
    spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                  std::make_move_iterator(spans.end()));
}

util::Result<void>
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return util::RampError{util::ErrorCode::IoFailure,
                               "cannot write " + path};
    util::JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    std::lock_guard lock(mu_);
    for (const auto &s : spans_) {
        w.beginObject()
            .kv("name", s.name)
            .kv("cat", s.cat)
            .kv("ph", "X")
            .kv("pid", std::uint64_t{1})
            .kv("tid", std::uint64_t{s.tid})
            .kv("ts", s.ts_us)
            .kv("dur", s.dur_us);
        if (s.id != 0)
            w.key("args").beginObject().kv("id", s.id).endObject();
        w.endObject();
    }
    w.endArray().endObject();
    out << '\n';
    if (!out)
        return util::RampError{util::ErrorCode::IoFailure,
                               "cannot write " + path};
    return {};
}

} // namespace bench
} // namespace ramp
