/**
 * @file
 * Pass 2: lock discipline. Members annotated
 *
 *     std::deque<Job> queue_; // ramp-lint: guarded_by(queue_mu_)
 *
 * (same or preceding line of the declaration) -- or, for members
 * whose uses live in the implementation file, the explicit file-
 * scope form naming the member:
 *
 *     // ramp-lint: guarded_by(queue_mu_): queue_
 *
 * -- may only be touched in a scope holding one of
 * std::lock_guard / unique_lock / scoped_lock / shared_lock on the
 * named mutex. The check is intra-file and token-level: a forward
 * pass builds the real brace-scope tree, records every guard
 * construction (with the identifiers it locks) in the scope where
 * it occurs, and then verifies each use of an annotated member has
 * a matching guard earlier in an enclosing scope. Deliberately
 * lock-free uses (constructors before threads exist, destructors
 * after joins, atomics) carry a reasoned
 * `allow(lock-discipline): why`.
 */

#include "lint.hh"

#include <regex>

namespace ramp_lint {

namespace {

struct Annotation
{
    std::string member;
    std::string mutex_name;
    std::size_t line = 0; ///< Annotation line (uses here exempt).
};

const std::set<std::string> guard_types = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};

/** Skip a template argument list (`>>` closes two). */
std::size_t
skipAngles(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size() && j < i + 64; ++j) {
        if (t[j].kind != Token::Kind::Punct)
            continue;
        const std::string &p = t[j].text;
        if (p == "<") {
            ++depth;
        } else if (p == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (p == ">>") {
            depth -= 2;
            if (depth <= 0)
                return j + 1;
        } else if (p == ";" || p == "{" || p == "}") {
            return std::string::npos;
        }
    }
    return std::string::npos;
}

std::vector<Annotation>
parseAnnotations(FileScan &scan)
{
    std::vector<Annotation> out;
    static const std::regex re(
        std::string("ramp-lint:\\s*guar") +
        "ded_by\\(([A-Za-z_][A-Za-z0-9_]*)\\)"
        "(\\s*:\\s*([A-Za-z_][A-Za-z0-9_]*))?");
    for (const auto &c : scan.src.comments) {
        if (!c.is_line)
            continue; // block comments may quote the syntax
        std::smatch m;
        if (!std::regex_search(c.text, m, re))
            continue;
        Annotation a;
        a.mutex_name = m[1];
        a.line = c.line;
        if (m[3].matched) {
            a.member = m[3];
            out.push_back(a);
            continue;
        }
        // Infer the member from the annotated declaration: the last
        // identifier on the comment's own line (trailing form) or
        // the next line (preceding form) that a declarator ends in.
        for (std::size_t line : {c.line, c.line + 1}) {
            for (std::size_t i = 0; i < scan.toks.size(); ++i) {
                const Token &tok = scan.toks[i];
                if (tok.line != line ||
                    tok.kind != Token::Kind::Ident)
                    continue;
                if (isPunct(scan.toks, i + 1, ";") ||
                    isPunct(scan.toks, i + 1, "=") ||
                    isPunct(scan.toks, i + 1, "{"))
                    a.member = tok.text;
            }
            if (!a.member.empty()) {
                a.line = line;
                break;
            }
        }
        if (a.member.empty()) {
            scan.diags.push_back(
                {scan.src.path, c.line, "lock-discipline",
                 "guarded_by(" + a.mutex_name +
                     ") could not infer the member it annotates; "
                     "use `guarded_by(" +
                     a.mutex_name + "): <member>`"});
            continue;
        }
        out.push_back(a);
    }
    return out;
}

struct Scope
{
    int parent = -1;
    /** (locked identifier, token index of the guard). */
    std::vector<std::pair<std::string, std::size_t>> locks;
};

} // namespace

void
checkLockDiscipline(FileScan &scan)
{
    const std::vector<Annotation> annotations =
        parseAnnotations(scan);
    if (annotations.empty())
        return;

    const auto &t = scan.toks;

    // Forward pass: scope tree + guard registrations + the scope
    // each token lives in.
    std::vector<Scope> scopes(1);
    std::vector<int> stack{0};
    std::vector<int> scope_of(t.size(), 0);

    for (std::size_t i = 0; i < t.size(); ++i) {
        scope_of[i] = stack.back();
        if (t[i].kind == Token::Kind::Punct) {
            if (t[i].text == "{") {
                scopes.push_back({stack.back(), {}});
                stack.push_back(static_cast<int>(scopes.size()) - 1);
            } else if (t[i].text == "}" && stack.size() > 1) {
                stack.pop_back();
            }
            continue;
        }
        if (t[i].kind != Token::Kind::Ident ||
            !guard_types.count(t[i].text))
            continue;

        // guard_type [<...>] var ( mutex [, mutex...] )   -- or {}.
        std::size_t j = i + 1;
        if (isPunct(t, j, "<")) {
            j = skipAngles(t, j);
            if (j == std::string::npos)
                continue;
        }
        if (!isIdent(t, j))
            continue;
        const bool paren = isPunct(t, j + 1, "(");
        const bool brace = isPunct(t, j + 1, "{");
        if (!paren && !brace)
            continue;
        const char *close = paren ? ")" : "}";
        const char *open = paren ? "(" : "{";
        int depth = 0;
        for (std::size_t k = j + 1; k < t.size(); ++k) {
            if (t[k].kind == Token::Kind::Punct) {
                if (t[k].text == open)
                    ++depth;
                else if (t[k].text == close && --depth == 0)
                    break;
            } else if (t[k].kind == Token::Kind::Ident &&
                       !isPunct(t, k + 1, "(")) {
                // Every identifier in the argument list counts as
                // locked (scoped_lock takes several mutexes;
                // `other.mu_` registers both parts, harmlessly).
                scopes[stack.back()].locks.push_back(
                    {t[k].text, i});
            }
        }
    }

    // Verify every use of every annotated member.
    for (const Annotation &a : annotations) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != Token::Kind::Ident ||
                t[i].text != a.member)
                continue;
            if (t[i].line == a.line || t[i].line == a.line + 1)
                continue; // the annotated declaration itself
            bool guarded = false;
            for (int s = scope_of[i]; s != -1 && !guarded;
                 s = scopes[s].parent)
                for (const auto &[name, at] : scopes[s].locks)
                    if (name == a.mutex_name && at < i) {
                        guarded = true;
                        break;
                    }
            if (guarded ||
                scan.sup.covers("lock-discipline", t[i].line))
                continue;
            scan.diags.push_back(
                {scan.src.path, t[i].line, "lock-discipline",
                 "'" + a.member + "' is guarded_by(" +
                     a.mutex_name +
                     ") but no lock_guard/unique_lock/scoped_lock/"
                     "shared_lock on it is in scope here"});
        }
    }
}

} // namespace ramp_lint
