/**
 * @file
 * The regex/line-level ramp-lint rules and the per-file scan
 * driver. Every rule reports `path:line: [rule] msg` diagnostics;
 * suppression is per-line via
 * `ramp-lint: allow(<rule>): <reason>` comments (reason mandatory).
 *
 * Scanning runs over the comment/string-blanked views built by
 * source.cc, so tokens inside comments or string literals never
 * trigger, and metric names are read only from recognised telemetry
 * call sites (plus `emits` markers for names that reach the registry
 * through a helper function). The token-level passes (units, locks,
 * wire schema) live in their own files and are driven from
 * scanFile() below.
 */

#include "lint.hh"

#include <cctype>
#include <regex>
#include <sstream>

namespace ramp_lint {

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> rules = {
        "metrics-manifest", "unit-suffix",
        "banned-rand",      "raw-new",
        "raw-delete",       "endl",
        "mutex-guard",      "pragma-once",
        "include-path",     "unit-consistency",
        "lock-discipline",  "wire-schema",
    };
    return rules;
}

Suppressions::Suppressions(const SourceFile &src,
                           std::vector<Diagnostic> &diags)
{
    // Built from split tokens so ramp-lint's own sources (which
    // mention the syntax in string literals) never self-match.
    static const std::regex allow_re(
        std::string("ramp-lint:\\s*al") +
        "low\\(([a-z-]+)\\)(\\s*:\\s*(\\S.*)?)?");
    for (const auto &c : src.comments) {
        if (!c.is_line)
            continue; // block comments may quote the syntax
        std::smatch m;
        if (!std::regex_search(c.text, m, allow_re))
            continue;
        const std::string rule = m[1];
        if (!knownRules().count(rule)) {
            diags.push_back({src.path, c.line, "suppression",
                             "allow() of unknown rule '" + rule +
                                 "'"});
            continue;
        }
        if (!m[3].matched || m[3].str().empty()) {
            diags.push_back({src.path, c.line, "suppression",
                             "allow(" + rule +
                                 ") needs a reason: "
                                 "`allow(" +
                                 rule + "): <why>`"});
            continue;
        }
        lines_[rule].insert(c.line);
        lines_[rule].insert(c.line + 1);
    }
}

bool
Suppressions::covers(const std::string &rule,
                     std::size_t line) const
{
    auto it = lines_.find(rule);
    return it != lines_.end() && it->second.count(line);
}

namespace {

void
report(FileScan &scan, std::size_t line, const std::string &rule,
       const std::string &msg)
{
    if (scan.sup.covers(rule, line))
        return;
    scan.diags.push_back({scan.src.path, line, rule, msg});
}

/** Apply @p re to @p text, calling fn(match, line) per match. */
template <typename Fn>
void
forEachMatch(const SourceFile &src, const std::string &text,
             const std::regex &re, Fn fn)
{
    auto begin =
        std::sregex_iterator(text.begin(), text.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        fn(*it, src.lineOf(static_cast<std::size_t>(
               it->position(0))));
}

// ---------------------------------------------------------------
// Rule: unit-suffix
// ---------------------------------------------------------------

/** Quantity word (the final `_` token of a name) -> suffix advice. */
const std::map<std::string, std::string> quantity_words = {
    {"temp", "_k (Kelvin) or _c (Celsius)"},
    {"temperature", "_k (Kelvin) or _c (Celsius)"},
    {"ambient", "_k (Kelvin) or _c (Celsius)"},
    {"power", "_w (Watts) or _mw"},
    {"activity", "_af (activity factor)"},
    {"voltage", "_v (Volts)"},
    {"freq", "_ghz / _mhz / _hz"},
    {"frequency", "_ghz / _mhz / _hz"},
    {"consumed", "_frac (consumed-lifetime fraction)"},
    {"damage", "_frac (consumed-lifetime fraction)"},
    {"slack", "_frac (banked-budget fraction)"},
    {"age", "_hours (integrated operating time)"},
    {"eta", "_hours (or _years) to budget exhaustion"},
    {"lifetime", "_hours / _years"},
};

void
checkUnitSuffix(FileScan &scan)
{
    static const std::regex decl_re(
        "\\b(?:double|float)\\s+&?\\s*([A-Za-z_][A-Za-z0-9_]*)");
    forEachMatch(
        scan.src, scan.src.code, decl_re,
        [&](const std::smatch &m, std::size_t line) {
            const std::string name = m[1];
            const auto us = name.rfind('_');
            const std::string last =
                us == std::string::npos ? name
                                        : name.substr(us + 1);
            const auto it = quantity_words.find(last);
            if (it == quantity_words.end())
                return;
            report(scan, line, "unit-suffix",
                   "'" + name +
                       "' carries a physical quantity but no unit "
                       "suffix; use " +
                       it->second);
        });
}

// ---------------------------------------------------------------
// Rule: banned patterns
// ---------------------------------------------------------------

void
checkBanned(FileScan &scan)
{
    const SourceFile &src = scan.src;
    const std::string path = src.path.generic_string();

    // std::rand/srand: the only sanctioned randomness source is
    // src/util/random (seeded, reproducible across threads).
    if (path.find("src/util/random") == std::string::npos) {
        static const std::regex rand_re(
            "\\bstd::rand\\b|\\bsrand\\s*\\(|[^:\\w]rand\\s*\\(");
        forEachMatch(src, src.code, rand_re,
                     [&](const std::smatch &, std::size_t line) {
                         report(scan, line, "banned-rand",
                                "std::rand/srand is banned; use "
                                "util::Random (seeded, "
                                "reproducible)");
                     });
    }

    // Raw new/delete: ownership must be RAII
    // (unique_ptr/vector/deque). `= delete;` declarations and
    // words like new_argc do not match.
    static const std::regex new_re("\\bnew\\s+[A-Za-z_:<(]");
    forEachMatch(src, src.code, new_re,
                 [&](const std::smatch &, std::size_t line) {
                     report(scan, line, "raw-new",
                            "raw new is banned; use "
                            "std::make_unique or a container");
                 });
    static const std::regex del_re(
        "\\bdelete\\s*\\[?\\]?\\s+[A-Za-z_(*]|\\bdelete\\s+\\[");
    forEachMatch(src, src.code, del_re,
                 [&](const std::smatch &, std::size_t line) {
                     report(scan, line, "raw-delete",
                            "raw delete is banned; use RAII "
                            "ownership");
                 });

    // std::endl flushes; benches print per-row in hot loops.
    static const std::regex endl_re("\\bstd::endl\\b");
    forEachMatch(src, src.code, endl_re,
                 [&](const std::smatch &, std::size_t line) {
                     report(scan, line, "endl",
                            "std::endl is banned (hidden flush); "
                            "use '\\n'");
                 });

    // Locking a mutex member directly leaks the lock on early
    // return/throw; use lock_guard/unique_lock/scoped_lock.
    // Calls on guard objects (e.g. `lock.lock()`) are fine.
    static const std::regex lock_re(
        "\\b([A-Za-z_][A-Za-z0-9_]*)(\\.|->)lock\\s*\\(\\s*\\)");
    forEachMatch(
        src, src.code, lock_re,
        [&](const std::smatch &m, std::size_t line) {
            std::string obj = m[1];
            while (!obj.empty() && obj.back() == '_')
                obj.pop_back();
            const bool mutexish =
                obj == "mu" || obj == "mtx" ||
                obj.find("mutex") != std::string::npos ||
                (obj.size() > 3 &&
                 (obj.rfind("_mu") == obj.size() - 3 ||
                  obj.rfind("_mtx") == obj.size() - 4));
            if (!mutexish)
                return;
            report(scan, line, "mutex-guard",
                   "direct " + obj +
                       ".lock(); hold mutexes via "
                       "std::lock_guard/unique_lock/scoped_lock");
        });
}

// ---------------------------------------------------------------
// Rule: include hygiene
// ---------------------------------------------------------------

void
checkIncludes(FileScan &scan, const std::filesystem::path &root)
{
    namespace fs = std::filesystem;
    const SourceFile &src = scan.src;

    if (src.isHeader()) {
        // First non-blank line of the comment-stripped view must be
        // `#pragma once`.
        std::istringstream ss(src.code);
        std::string line;
        std::size_t lineno = 0;
        bool pragma_first = false;
        while (std::getline(ss, line)) {
            ++lineno;
            const auto pos = line.find_first_not_of(" \t\r");
            if (pos == std::string::npos)
                continue;
            pragma_first =
                line.compare(pos, 12, "#pragma once") == 0;
            break;
        }
        if (!pragma_first)
            report(scan, 1, "pragma-once",
                   "header must start with #pragma once");
    }

    static const std::regex inc_re(
        "#\\s*include\\s+\"([^\"]+)\"");
    forEachMatch(
        src, src.code_str, inc_re,
        [&](const std::smatch &m, std::size_t line) {
            const std::string inc = m[1];
            if (inc.find("..") != std::string::npos) {
                report(scan, line, "include-path",
                       "upward include \"" + inc +
                           "\"; include from the src/ root "
                           "instead");
                return;
            }
            const fs::path sibling = src.path.parent_path() / inc;
            const fs::path rooted = root / "src" / inc;
            if (!fs::exists(sibling) && !fs::exists(rooted))
                report(scan, line, "include-path",
                       "\"" + inc +
                           "\" resolves neither next to the "
                           "includer nor under src/");
        });
}

} // namespace

// ---------------------------------------------------------------
// Metric reference extraction
// ---------------------------------------------------------------

void
extractMetricRefs(const SourceFile &src,
                  std::vector<MetricRef> &refs)
{
    // Registration/lookup call sites with a literal first argument:
    // telemetry::counter("x"), reg.gauge("x"), snap.counter("x"),
    // telemetry::histogram("x", ...), telemetry::instant("x", ...).
    static const std::regex call_re(
        std::string("\\b(counter|gauge|histogram|ins") +
        "tant)\\s*\\(\\s*\"([^\"]+)\"");
    forEachMatch(src, src.code_str, call_re,
                 [&](const std::smatch &m, std::size_t line) {
                     refs.push_back(
                         {m[1], m[2], src.path, line});
                 });

    // Registry::recordSpan / recordInstant with a literal name.
    static const std::regex rec_re(
        std::string("\\brecord(Span|Ins") +
        "tant)\\s*\\(\\s*\"([^\"]+)\"");
    forEachMatch(src, src.code_str, rec_re,
                 [&](const std::smatch &m, std::size_t line) {
                     refs.push_back({m[1] == "Span" ? "span"
                                                    : "instant",
                                     m[2], src.path, line});
                 });

    // ScopedTimer's second argument is a span name.
    static const std::regex timer_re(
        std::string("\\bScopedTi") +
        "mer\\s+\\w+\\s*\\(\\s*[^,()]*,\\s*\"([^\"]+)\"");
    forEachMatch(src, src.code_str, timer_re,
                 [&](const std::smatch &m, std::size_t line) {
                     refs.push_back(
                         {"span", m[1], src.path, line});
                 });

    // SensorChannel's channelInstant helper: the first argument is
    // the channel label (a variable), the second the instant name.
    static const std::regex chan_re(
        std::string("\\bchannelIns") +
        "tant\\s*\\(\\s*[^,()\"]*,\\s*\"([^\"]+)\"");
    forEachMatch(src, src.code_str, chan_re,
                 [&](const std::smatch &m, std::size_t line) {
                     refs.push_back(
                         {"instant", m[1], src.path, line});
                 });

    // cmp::coreCounter builds per-core names: the first argument is
    // the core index (an expression), the second the suffix of
    // `cmp.core<i>.<suffix>`. The manifest documents each suffix
    // once in that templated form.
    static const std::regex core_re(
        std::string("\\bcoreCoun") +
        "ter\\s*\\(\\s*[^,()\"]*,\\s*\"([^\"]+)\"");
    forEachMatch(src, src.code_str, core_re,
                 [&](const std::smatch &m, std::size_t line) {
                     refs.push_back({"counter",
                                     "cmp.core<i>." + m[1].str(),
                                     src.path, line});
                 });

    // Names that reach the registry through a helper carry a marker
    // comment at the call site.
    static const std::regex marker_re(
        std::string("ramp-lint:\\s*em") +
        "its\\((counter|gauge|histogram|span|instant),"
        "\\s*([A-Za-z0-9_.]+)\\)");
    for (const auto &c : src.comments) {
        std::smatch m;
        std::string rest = c.text;
        while (std::regex_search(rest, m, marker_re)) {
            refs.push_back({m[1], m[2], src.path, c.line});
            rest = m.suffix();
        }
    }
}

// ---------------------------------------------------------------
// Cross-file: manifest consistency
// ---------------------------------------------------------------

namespace {

/** Each maximal digit run replaced with `<i>`, so a literal site
 *  like `counter("cmp.core3.evals")` can match the one templated
 *  manifest row `cmp.core<i>.evals`. */
std::string
templateDigits(const std::string &name)
{
    std::string out;
    for (std::size_t i = 0; i < name.size();) {
        if (std::isdigit(static_cast<unsigned char>(name[i]))) {
            out += "<i>";
            while (i < name.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(name[i])))
                ++i;
        } else {
            out += name[i++];
        }
    }
    return out;
}

} // namespace

void
checkManifest(LintContext &ctx)
{
    for (const auto &ref : ctx.refs) {
        auto it = ctx.manifest.entries.find(ref.name);
        if (it == ctx.manifest.entries.end()) {
            // Fall back to the templated form before declaring the
            // name undocumented.
            const std::string templated = templateDigits(ref.name);
            if (templated != ref.name)
                it = ctx.manifest.entries.find(templated);
        }
        if (it == ctx.manifest.entries.end()) {
            ctx.diags.push_back(
                {ref.file, ref.line, "metrics-manifest",
                 ref.kind + " '" + ref.name +
                     "' is not in " +
                     ctx.manifest.path.generic_string() +
                     "; document it (kind, name, scope)"});
            continue;
        }
        auto &entry = it->second;
        entry.referenced = true;
        if (entry.kind != ref.kind) {
            ctx.diags.push_back(
                {ref.file, ref.line, "metrics-manifest",
                 "'" + ref.name + "' used as " + ref.kind +
                     " but declared " + entry.kind +
                     " in the manifest"});
        }
        const bool in_tests =
            ref.file.generic_string().find("tests/") !=
            std::string::npos;
        if (entry.scope == "test" && !in_tests) {
            ctx.diags.push_back(
                {ref.file, ref.line, "metrics-manifest",
                 "'" + ref.name +
                     "' is test-scoped but referenced outside "
                     "tests/"});
        }
    }
    for (const auto &[name, entry] : ctx.manifest.entries) {
        if (!entry.referenced)
            ctx.diags.push_back(
                {ctx.manifest.path, entry.line,
                 "metrics-manifest",
                 "dead manifest entry '" + name +
                     "': no reference anywhere in the tree"});
    }
}

// ---------------------------------------------------------------
// Per-file scan driver
// ---------------------------------------------------------------

void
runLineRules(FileScan &scan, const std::filesystem::path &root)
{
    checkUnitSuffix(scan);
    checkBanned(scan);
    checkIncludes(scan, root);
    extractMetricRefs(scan.src, scan.refs);

    // Suppressions also apply to manifest diagnostics raised later
    // at a ref site; manifest checking happens cross-file with no
    // per-file suppression context, so drop suppressed refs now.
    std::erase_if(scan.refs, [&](const MetricRef &ref) {
        return scan.sup.covers("metrics-manifest", ref.line);
    });
}

FileScan
scanFile(const std::filesystem::path &path,
         const std::filesystem::path &root)
{
    FileScan scan;
    scan.src = loadSource(path);
    scan.toks = tokenize(scan.src);
    scan.sup = Suppressions(scan.src, scan.diags);

    runLineRules(scan, root);
    checkUnits(scan);
    checkLockDiscipline(scan);
    return scan;
}

} // namespace ramp_lint
