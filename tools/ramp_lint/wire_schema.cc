/**
 * @file
 * Pass 3: wire-schema drift. src/serve/protocol.cc declares the
 * whole serve protocol in one place -- the `type_names[]` verb
 * list, the per-verb `FieldRule` arrays (field name, required,
 * arrival version) and the `type_rules[]` table binding them. This
 * pass re-parses that table from tokens and cross-checks it against
 *
 *  - the schema table in DESIGN.md between the
 *    `<!-- ramp-lint: wire-schema-begin -->` /
 *    `<!-- ramp-lint: wire-schema-end -->` markers
 *    (rows `| verb | field | required | since |`; a `-` field row
 *    documents the verb itself),
 *  - README.md, which must mention every verb by name, and
 *  - the sources under tests/serve/, which must reference every
 *    verb and field name at least once (the pinned-bytes /
 *    field-gating tests).
 *
 * Net effect: adding a v3 field without documenting it and pinning
 * it in a test makes `ctest -L lint` fail with the exact
 * `protocol.cc:line` of the new field.
 */

#include "lint.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace ramp_lint {

namespace {

namespace fs = std::filesystem;

struct FieldInfo
{
    std::string name;
    bool required = false;
    int since = 0;
    std::size_t line = 0;
};

struct VerbInfo
{
    std::string name;
    int since = 0;
    std::size_t line = 0;
    std::vector<FieldInfo> fields;
};

bool
isIdentText(const std::vector<Token> &t, std::size_t i,
            const char *text)
{
    return i < t.size() && t[i].kind == Token::Kind::Ident &&
           t[i].text == text;
}

/** Find `NAME ... = {`, returning the index of the `{` + 1. */
std::size_t
findArrayInit(const std::vector<Token> &t, const char *name)
{
    for (std::size_t i = 0; i + 1 < t.size(); ++i)
        if (isIdentText(t, i, name))
            for (std::size_t j = i + 1;
                 j < t.size() && j < i + 8; ++j)
                if (isPunct(t, j, "{"))
                    return j + 1;
    return std::string::npos;
}

/**
 * Parse the protocol tables out of protocol.cc's token stream.
 * Returns false (with a diagnostic) when the expected shape is not
 * found -- the pass is pinned to the table idiom on purpose: if the
 * declaration style changes, the checker must be taught the new
 * shape rather than silently passing.
 */
bool
parseProtocol(const FileScan &scan, std::vector<VerbInfo> &verbs,
              std::vector<Diagnostic> &out)
{
    const auto &t = scan.toks;

    // 1. Verb names, in enum order.
    std::size_t i = findArrayInit(t, "type_names");
    if (i == std::string::npos) {
        out.push_back({scan.src.path, 1, "wire-schema",
                       "could not find the type_names[] verb list"});
        return false;
    }
    for (; i < t.size() && !isPunct(t, i, "}"); ++i)
        if (t[i].kind == Token::Kind::String)
            verbs.push_back({t[i].text, 0, t[i].line, {}});
    if (verbs.empty()) {
        out.push_back({scan.src.path, 1, "wire-schema",
                       "type_names[] holds no verb names"});
        return false;
    }

    // 2. FieldRule arrays: `FieldRule <name>[] = { {...}, ... };`.
    std::map<std::string, std::vector<FieldInfo>> arrays;
    for (std::size_t j = 0; j + 1 < t.size(); ++j) {
        if (!isIdentText(t, j, "FieldRule") ||
            t[j + 1].kind != Token::Kind::Ident)
            continue;
        const std::string arr = t[j + 1].text;
        std::size_t k = j + 2;
        while (k < t.size() && !isPunct(t, k, "{"))
            ++k;
        ++k; // into the outer init list
        std::vector<FieldInfo> fields;
        while (k < t.size() && !isPunct(t, k, ";")) {
            if (isPunct(t, k, "{")) {
                // One entry: { Field::X, "name", req, ver }
                FieldInfo f;
                bool have_name = false, have_ver = false;
                int commas = 0;
                for (++k; k < t.size() && !isPunct(t, k, "}");
                     ++k) {
                    const Token &tok = t[k];
                    if (isPunct(t, k, ","))
                        ++commas;
                    else if (tok.kind == Token::Kind::String &&
                             commas == 1) {
                        f.name = tok.text;
                        f.line = tok.line;
                        have_name = true;
                    } else if (tok.kind == Token::Kind::Ident &&
                               commas == 2)
                        f.required = tok.text == "true";
                    else if (tok.kind == Token::Kind::Number &&
                             commas == 3) {
                        f.since = std::stoi(tok.text);
                        have_ver = true;
                    }
                }
                if (have_name && have_ver)
                    fields.push_back(f);
            }
            ++k;
        }
        arrays[arr] = std::move(fields);
    }

    // 3. type_rules[]: { RequestType::X, ver, <array>|nullptr, n }.
    i = findArrayInit(t, "type_rules");
    if (i == std::string::npos) {
        out.push_back({scan.src.path, 1, "wire-schema",
                       "could not find the type_rules[] table"});
        return false;
    }
    std::size_t verb_idx = 0;
    while (i < t.size() && !isPunct(t, i, ";")) {
        if (isPunct(t, i, "{")) {
            if (verb_idx >= verbs.size()) {
                out.push_back(
                    {scan.src.path, t[i].line, "wire-schema",
                     "type_rules[] has more entries than "
                     "type_names[] has verbs"});
                return false;
            }
            VerbInfo &verb = verbs[verb_idx++];
            int commas = 0;
            for (++i; i < t.size() && !isPunct(t, i, "}"); ++i) {
                if (isPunct(t, i, ","))
                    ++commas;
                else if (t[i].kind == Token::Kind::Number &&
                         commas == 1)
                    verb.since = std::stoi(t[i].text);
                else if (t[i].kind == Token::Kind::Ident &&
                         commas == 2 && arrays.count(t[i].text))
                    verb.fields = arrays[t[i].text];
            }
        }
        ++i;
    }
    if (verb_idx != verbs.size()) {
        out.push_back(
            {scan.src.path, 1, "wire-schema",
             "type_rules[] declares " + std::to_string(verb_idx) +
                 " entries but type_names[] has " +
                 std::to_string(verbs.size()) + " verbs"});
        return false;
    }
    return true;
}

/** Whole-file read; empty optional-ish on failure. */
bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

struct DocRow
{
    std::string verb;
    std::string field; ///< "-" documents the verb itself.
    bool required = false;
    int since = 0;
    std::size_t line = 0;
};

std::string
trim(std::string s)
{
    const auto a = s.find_first_not_of(" \t");
    const auto b = s.find_last_not_of(" \t");
    return a == std::string::npos ? ""
                                  : s.substr(a, b - a + 1);
}

/** Parse the marked markdown table out of DESIGN.md. */
bool
parseDesignTable(const fs::path &design, std::vector<DocRow> &rows,
                 std::vector<Diagnostic> &out)
{
    std::string text;
    if (!readFile(design, text)) {
        out.push_back({design, 1, "wire-schema",
                       "DESIGN.md is missing; the wire schema must "
                       "be documented"});
        return false;
    }
    const std::string begin_mark =
        "<!-- ramp-lint: wire-schema-begin -->";
    const std::string end_mark =
        "<!-- ramp-lint: wire-schema-end -->";
    const auto begin = text.find(begin_mark);
    const auto end = text.find(end_mark);
    if (begin == std::string::npos || end == std::string::npos ||
        end < begin) {
        out.push_back(
            {design, 1, "wire-schema",
             "DESIGN.md has no `" + begin_mark +
                 "` ... end block documenting the serve protocol"});
        return false;
    }
    std::size_t line =
        1 + static_cast<std::size_t>(std::count(
                text.begin(),
                text.begin() + static_cast<std::ptrdiff_t>(begin),
                '\n'));
    std::istringstream ss(text.substr(begin, end - begin));
    std::string raw;
    while (std::getline(ss, raw)) {
        const std::string l = trim(raw);
        if (l.size() < 2 || l[0] != '|') {
            ++line;
            continue;
        }
        // Split cells.
        std::vector<std::string> cells;
        std::size_t pos = 1;
        while (pos < l.size()) {
            auto bar = l.find('|', pos);
            if (bar == std::string::npos)
                break;
            cells.push_back(trim(l.substr(pos, bar - pos)));
            pos = bar + 1;
        }
        if (cells.size() >= 4 && cells[0] != "verb" &&
            cells[0].find("---") == std::string::npos) {
            DocRow row;
            row.verb = cells[0];
            row.field = cells[1];
            row.required = cells[2] == "yes";
            row.line = line;
            if (!cells[3].empty() && cells[3][0] == 'v')
                row.since = std::atoi(cells[3].c_str() + 1);
            rows.push_back(row);
        }
        ++line;
    }
    return true;
}

} // namespace

void
checkWireSchema(const fs::path &root,
                const std::vector<FileScan> &scans,
                std::vector<Diagnostic> &out)
{
    const FileScan *proto = nullptr;
    std::string tests_text;
    for (const auto &scan : scans) {
        const std::string p = scan.src.path.generic_string();
        if (p.size() >= 21 &&
            p.find("src/serve/protocol.cc") != std::string::npos)
            proto = &scan;
        if (p.find("tests/serve/") != std::string::npos)
            tests_text += scan.src.raw;
    }
    if (!proto)
        return; // tree without a serve protocol: nothing to check

    std::vector<VerbInfo> verbs;
    if (!parseProtocol(*proto, verbs, out))
        return;

    const fs::path design = root / "DESIGN.md";
    std::vector<DocRow> rows;
    if (!parseDesignTable(design, rows, out))
        return;

    std::string readme_text;
    readFile(root / "README.md", readme_text);

    // Code -> docs/tests direction.
    auto verbRow = [&](const std::string &verb) -> const DocRow * {
        for (const auto &r : rows)
            if (r.verb == verb && r.field == "-")
                return &r;
        return nullptr;
    };
    auto fieldRow = [&](const std::string &verb,
                        const std::string &field) -> const DocRow * {
        for (const auto &r : rows)
            if (r.verb == verb && r.field == field)
                return &r;
        return nullptr;
    };

    for (const auto &verb : verbs) {
        const DocRow *vr = verbRow(verb.name);
        if (!vr) {
            out.push_back(
                {proto->src.path, verb.line, "wire-schema",
                 "verb '" + verb.name + "' (since v" +
                     std::to_string(verb.since) +
                     ") is not documented in the DESIGN.md "
                     "wire-schema table"});
        } else if (vr->since != verb.since) {
            out.push_back(
                {design, vr->line, "wire-schema",
                 "verb '" + verb.name + "' documented as v" +
                     std::to_string(vr->since) +
                     " but protocol.cc says v" +
                     std::to_string(verb.since)});
        }
        if (readme_text.find(verb.name) == std::string::npos)
            out.push_back(
                {proto->src.path, verb.line, "wire-schema",
                 "verb '" + verb.name +
                     "' is not mentioned in README.md"});
        if (tests_text.find(verb.name) == std::string::npos)
            out.push_back(
                {proto->src.path, verb.line, "wire-schema",
                 "verb '" + verb.name +
                     "' has no reference under tests/serve/ "
                     "(pinned-bytes / field-gating tests)"});
        for (const auto &field : verb.fields) {
            const DocRow *fr = fieldRow(verb.name, field.name);
            if (!fr) {
                out.push_back(
                    {proto->src.path, field.line, "wire-schema",
                     "field '" + field.name + "' of '" +
                         verb.name + "' (since v" +
                         std::to_string(field.since) +
                         ") is not documented in the DESIGN.md "
                         "wire-schema table"});
            } else {
                if (fr->since != field.since)
                    out.push_back(
                        {design, fr->line, "wire-schema",
                         "field '" + field.name + "' of '" +
                             verb.name + "' documented as v" +
                             std::to_string(fr->since) +
                             " but protocol.cc says v" +
                             std::to_string(field.since)});
                if (fr->required != field.required)
                    out.push_back(
                        {design, fr->line, "wire-schema",
                         "field '" + field.name + "' of '" +
                             verb.name + "' documented as " +
                             (fr->required ? "required"
                                           : "optional") +
                             " but protocol.cc says " +
                             (field.required ? "required"
                                             : "optional")});
            }
            if (tests_text.find(field.name) == std::string::npos)
                out.push_back(
                    {proto->src.path, field.line, "wire-schema",
                     "field '" + field.name + "' of '" +
                         verb.name +
                         "' has no reference under tests/serve/ "
                         "(pinned-bytes / field-gating tests)"});
        }
    }

    // Docs -> code direction: no phantom rows.
    for (const auto &r : rows) {
        const auto vit = std::find_if(
            verbs.begin(), verbs.end(),
            [&](const VerbInfo &v) { return v.name == r.verb; });
        if (vit == verbs.end()) {
            out.push_back(
                {design, r.line, "wire-schema",
                 "documents verb '" + r.verb +
                     "' which protocol.cc does not implement"});
            continue;
        }
        if (r.field == "-")
            continue;
        const bool in_code =
            std::any_of(vit->fields.begin(), vit->fields.end(),
                        [&](const FieldInfo &f) {
                            return f.name == r.field;
                        });
        if (!in_code)
            out.push_back(
                {design, r.line, "wire-schema",
                 "documents field '" + r.field + "' of '" +
                     r.verb +
                     "' which protocol.cc does not declare"});
    }
}

} // namespace ramp_lint
