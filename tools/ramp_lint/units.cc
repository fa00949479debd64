/**
 * @file
 * Pass 1: unit consistency. Identifiers carry their unit in the
 * final `_` suffix (`temp_k`, `power_w`, `eta_hours`, ...); this
 * pass tracks those suffixes through token streams and flags
 *
 *  - mixed-unit additive arithmetic:  `temp_k + power_w`
 *  - cross-unit assignment/init:      `temp_c = temp_k;`
 *
 * Multiplication and division legitimately change dimensions, so a
 * right-hand side containing `*` or `/` is never judged, and only
 * unit-pure expressions (every suffixed identifier agreeing on one
 * unit) are compared against the left-hand side -- the pass is
 * deliberately conservative: it only fires on expressions whose
 * units it can fully resolve.
 *
 * An intentional conversion is declared -- with a mandatory reason,
 * like allow() -- on the same or the preceding line:
 *
 *     // ramp-lint: convert(k->c): reporting delta in Celsius
 *
 * which permits exactly that pair of units to meet on the covered
 * lines. Registering a new unit: add the suffix to unit_suffixes
 * below, docs/DESIGN.md section 15, and a fixture case.
 */

#include "lint.hh"

#include <regex>

namespace ramp_lint {

namespace {

/** The recognised unit suffixes (the vocabulary of the naming
 *  rule plus the time/reliability units added with this pass). */
const std::set<std::string> unit_suffixes = {
    "k",  "c",   "w",  "mw",    "af",  "v",    "hz",  "mhz",
    "ghz", "s",  "ms", "hours", "fit", "frac", "years",
};

/** Pairs of units a convert() marker has sanctioned, per line. */
struct Conversions
{
    std::map<std::size_t, std::set<std::string>> pairs;

    static std::string
    key(std::string a, std::string b)
    {
        return a < b ? a + "->" + b : b + "->" + a;
    }

    bool
    covers(std::size_t line, const std::string &a,
           const std::string &b) const
    {
        auto it = pairs.find(line);
        return it != pairs.end() && it->second.count(key(a, b));
    }
};

Conversions
parseConversions(const FileScan &scan,
                 std::vector<Diagnostic> &diags)
{
    Conversions conv;
    // Split so ramp-lint's own sources never self-match.
    static const std::regex conv_re(
        std::string("ramp-lint:\\s*conv") +
        "ert\\(([a-z]+)\\s*->\\s*([a-z]+)\\)"
        "(\\s*:\\s*(\\S.*)?)?");
    for (const auto &c : scan.src.comments) {
        if (!c.is_line)
            continue; // block comments may quote the syntax
        std::smatch m;
        if (!std::regex_search(c.text, m, conv_re))
            continue;
        const std::string from = m[1];
        const std::string to = m[2];
        if (!unit_suffixes.count(from) ||
            !unit_suffixes.count(to)) {
            diags.push_back(
                {scan.src.path, c.line, "unit-consistency",
                 "convert(" + from + "->" + to +
                     ") names an unknown unit suffix"});
            continue;
        }
        if (!m[4].matched || m[4].str().empty()) {
            diags.push_back(
                {scan.src.path, c.line, "unit-consistency",
                 "convert(" + from + "->" + to +
                     ") needs a reason: `convert(" + from + "->" +
                     to + "): <why>`"});
            continue;
        }
        conv.pairs[c.line].insert(Conversions::key(from, to));
        conv.pairs[c.line + 1].insert(Conversions::key(from, to));
    }
    return conv;
}

/**
 * Resolve the identifier a value expression starting at @p i ends
 * in, following member/namespace chains (`obj.temp_k`,
 * `ns::limit_w`). Returns the index of the final identifier, or
 * npos when the expression is a call (unknown unit) or not an
 * identifier at all.
 */
std::size_t
resolveChain(const std::vector<Token> &t, std::size_t i)
{
    if (!isIdent(t, i))
        return std::string::npos;
    while (i + 2 < t.size() &&
           (isPunct(t, i + 1, ".") || isPunct(t, i + 1, "->") ||
            isPunct(t, i + 1, "::")) &&
           isIdent(t, i + 2))
        i += 2;
    if (isPunct(t, i + 1, "(")) // call: value unit unknown
        return std::string::npos;
    return i;
}

void
reportMix(FileScan &scan, const Conversions &conv,
          std::size_t line, const std::string &ln,
          const std::string &lu, const std::string &rn,
          const std::string &ru, const char *what)
{
    if (conv.covers(line, lu, ru))
        return;
    if (scan.sup.covers("unit-consistency", line))
        return;
    scan.diags.push_back(
        {scan.src.path, line, "unit-consistency",
         std::string(what) + ": '" + ln + "' (_" + lu + ") vs '" +
             rn + "' (_" + ru +
             "); convert explicitly and mark "
             "`ramp-lint: convert(" +
             ru + "->" + lu + "): <why>`"});
}

} // namespace

std::string
unitSuffixOf(const std::string &name)
{
    const auto us = name.rfind('_');
    if (us == std::string::npos || us == 0 ||
        us + 1 >= name.size())
        return "";
    const std::string suffix = name.substr(us + 1);
    return unit_suffixes.count(suffix) ? suffix : "";
}

void
checkUnits(FileScan &scan)
{
    const auto &t = scan.toks;
    const Conversions conv = parseConversions(scan, scan.diags);

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::Kind::Punct)
            continue;
        const std::string &op = t[i].text;

        // Mixed-unit additive arithmetic: IDENT (+|-) IDENT-chain.
        if ((op == "+" || op == "-") && i > 0 && isIdent(t, i - 1)) {
            const std::string lhs = t[i - 1].text;
            const std::string lu = unitSuffixOf(lhs);
            if (lu.empty())
                continue;
            const std::size_t r = resolveChain(t, i + 1);
            if (r == std::string::npos)
                continue;
            const std::string rhs = t[r].text;
            const std::string ru = unitSuffixOf(rhs);
            if (ru.empty() || ru == lu)
                continue;
            reportMix(scan, conv, t[i].line, lhs, lu, rhs, ru,
                      "mixed-unit arithmetic");
            continue;
        }

        // Cross-unit assignment: IDENT (=|+=|-=) unit-pure expr.
        if (op != "=" && op != "+=" && op != "-=")
            continue;
        if (i == 0 || !isIdent(t, i - 1))
            continue;
        const std::string lhs = t[i - 1].text;
        const std::string lu = unitSuffixOf(lhs);
        if (lu.empty())
            continue;

        // Walk the RHS to the statement end at depth 0, collecting
        // the units of value-position identifiers. Bail on any
        // `*`/`/` (dimension change) or scope punctuation.
        std::set<std::string> rhs_units;
        std::string rhs_name;
        int depth = 0;
        bool judge = true;
        std::size_t j = i + 1;
        for (; j < t.size(); ++j) {
            const Token &tok = t[j];
            if (tok.kind == Token::Kind::Punct) {
                const std::string &p = tok.text;
                if (p == "(" || p == "[" || p == "{") {
                    ++depth;
                    continue;
                }
                if (p == ")" || p == "]" || p == "}") {
                    if (--depth < 0)
                        break; // ran off the enclosing expression
                    continue;
                }
                if (depth == 0 && (p == ";" || p == ","))
                    break;
                if (p == "*" || p == "/" || p == "?" || p == ":") {
                    judge = false;
                    break;
                }
                continue;
            }
            if (tok.kind != Token::Kind::Ident)
                continue;
            // Skip call names and namespace qualifiers; a chain's
            // unit lives in its final identifier.
            if (isPunct(t, j + 1, "(") || isPunct(t, j + 1, "::") ||
                isPunct(t, j + 1, ".") || isPunct(t, j + 1, "->"))
                continue;
            const std::string u = unitSuffixOf(tok.text);
            if (!u.empty()) {
                rhs_units.insert(u);
                rhs_name = tok.text;
            }
        }
        if (!judge || rhs_units.size() != 1)
            continue;
        const std::string ru = *rhs_units.begin();
        if (ru == lu)
            continue;
        reportMix(scan, conv, t[i].line, lhs, lu, rhs_name, ru,
                  "cross-unit assignment");
    }
}

} // namespace ramp_lint
