/**
 * @file
 * ramp-lint: the repo's domain checker. Enforces invariants a
 * generic linter cannot know about:
 *
 *  - every telemetry metric/trace name used in code is documented in
 *    docs/metrics.manifest, and every manifest entry is live;
 *  - physical quantities carry unit suffixes (`temp_k`, `power_w`,
 *    `activity_af`, ...) instead of naked `double temp` names;
 *  - unit consistency: expressions never add/subtract/assign across
 *    different unit suffixes without an explicit conversion marker
 *    (`// ramp-lint: convert(k->c): why`);
 *  - lock discipline: members annotated
 *    `// ramp-lint: guarded_by(mutex_name)` are only touched in
 *    scopes holding a lock_guard/unique_lock/scoped_lock/shared_lock
 *    on that mutex (checked intra-file against a real scope tree);
 *  - wire-schema drift: the per-version field table in
 *    src/serve/protocol.cc matches the DESIGN.md schema table, the
 *    README verb list, and the serve test coverage exactly;
 *  - banned patterns: `std::rand`/`srand` outside src/util/random,
 *    raw `new`/`delete`, `std::endl`, locking a mutex member
 *    directly instead of through a guard;
 *  - include hygiene: `#pragma once` in every header, no upward
 *    (`..`) quoted includes, quoted includes resolvable from the
 *    canonical roots.
 *
 * A finding can be suppressed -- with a mandatory reason -- by a
 * comment on the same or the preceding line:
 *
 *     // ramp-lint: allow(raw-new): leaked singleton, never freed
 *
 * Names that reach the telemetry registry through a helper (so no
 * string literal sits at a recognised call site) are declared with a
 * marker comment next to the call (kind one of counter, gauge,
 * histogram, span, instant):
 *
 *     // ramp-lint: emits(<kind>, <name>)
 *
 * The token-level passes (unit consistency, lock discipline, wire
 * schema) run over a shared tokenizer that blanks
 * comments and understands string/char/raw-string literals, so a
 * banned shape inside a literal never fires and every diagnostic
 * carries an exact `file:line`.
 */

#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ramp_lint {

/** One finding, printed as `path:line: [rule] message`. */
struct Diagnostic
{
    std::filesystem::path file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/** A metric/trace name reference extracted from source. */
struct MetricRef
{
    std::string kind; ///< counter|gauge|histogram|span|instant.
    std::string name;
    std::filesystem::path file;
    std::size_t line = 0;
};

/** One comment's text, for marker/suppression scanning. Markers
 *  (`ramp-lint: ...`) are only honored in line comments; block
 *  comments are documentation and may quote marker syntax freely. */
struct CommentSpan
{
    std::size_t line = 0;
    std::string text;
    bool is_line = false; ///< true for `//`, false for `/* */`.
};

/**
 * A source file preprocessed for scanning. `code_str` keeps string
 * literals but blanks comments; `code` additionally blanks string
 * and char literal contents. Both preserve line structure, so an
 * offset maps to the same line in every view.
 */
struct SourceFile
{
    std::filesystem::path path;
    std::string raw;
    std::string code_str;
    std::string code;
    std::vector<CommentSpan> comments;

    bool isHeader() const;
    /** 1-based line of a byte offset into any of the views. */
    std::size_t lineOf(std::size_t offset) const;
};

/** Load and preprocess one file (strip comments, blank strings). */
SourceFile loadSource(const std::filesystem::path &path);

/**
 * Collect the .cc/.hh files under each of @p dirs, skipping any
 * directory named `fixtures` (lint's own deliberately-failing test
 * inputs) and build trees (`build*`). A path that does not exist or
 * cannot be walked is a hard error: returns false with @p error set.
 */
bool collectSources(const std::vector<std::filesystem::path> &dirs,
                    std::vector<std::filesystem::path> &out,
                    std::string &error);

// ---------------------------------------------------------------
// Tokenizer (shared by the token-level passes)
// ---------------------------------------------------------------

/** One lexical token of a source file. */
struct Token
{
    enum class Kind { Ident, Number, String, CharLit, Punct };
    Kind kind = Kind::Punct;
    /** Identifier/number spelling, literal contents (quotes
     *  stripped), or operator spelling (maximal munch: `->`, `::`,
     *  `+=`, ... are single tokens). */
    std::string text;
    std::size_t line = 1;
};

/**
 * Tokenize the comment-blanked view of @p src. String and char
 * literals become single String/CharLit tokens holding their inner
 * text; raw strings (`R"(...)"`) are handled. Comments never
 * produce tokens (they are read separately via src.comments).
 */
std::vector<Token> tokenize(const SourceFile &src);

/** t[i] exists and is the punctuator @p text. */
bool isPunct(const std::vector<Token> &t, std::size_t i,
             const char *text);

/** t[i] exists and is an identifier. */
bool isIdent(const std::vector<Token> &t, std::size_t i);

// ---------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------

/** Rule ids that exist; allow() of anything else is an error. */
const std::set<std::string> &knownRules();

/**
 * Per-file suppression table: `ramp-lint: allow(<rule>): <reason>`
 * covers its own and the following line. A reason-less or
 * unknown-rule allow() is itself reported.
 */
class Suppressions
{
  public:
    Suppressions() = default;
    Suppressions(const SourceFile &src,
                 std::vector<Diagnostic> &diags);

    bool covers(const std::string &rule, std::size_t line) const;

  private:
    std::map<std::string, std::set<std::size_t>> lines_;
};

// ---------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------

/** One docs/metrics.manifest entry. */
struct ManifestEntry
{
    std::string kind;  ///< counter|gauge|histogram|span|instant.
    std::string scope; ///< fig2|aux|test.
    std::size_t line = 0;
    bool referenced = false;
};

/** name -> entry; parse errors are reported as diagnostics. */
struct Manifest
{
    std::filesystem::path path;
    std::map<std::string, ManifestEntry> entries;
};

Manifest loadManifest(const std::filesystem::path &path,
                      std::vector<Diagnostic> &diags);

// ---------------------------------------------------------------
// Per-file scan state
// ---------------------------------------------------------------

/**
 * Everything one file contributes: its own diagnostics (emitted in
 * path order), metric references, and the token stream kept for the
 * cross-file passes.
 */
struct FileScan
{
    SourceFile src;
    std::vector<Token> toks;
    Suppressions sup;
    std::vector<Diagnostic> diags;
    std::vector<MetricRef> refs;
};

/**
 * Load, tokenize and run every per-file pass on one file. Pure
 * function of the file contents (plus @p root for include
 * resolution), so scans run in parallel across a thread pool and
 * merge deterministically in path order.
 */
FileScan scanFile(const std::filesystem::path &path,
                  const std::filesystem::path &root);

/** Extract metric references (call sites + `emits` markers). */
void extractMetricRefs(const SourceFile &src,
                       std::vector<MetricRef> &refs);

/** The regex/line-level rules (naming, banned, includes). */
void runLineRules(FileScan &scan,
                  const std::filesystem::path &root);

// ---------------------------------------------------------------
// Token-level passes
// ---------------------------------------------------------------

/** Recognised unit suffix of @p name ("" when it carries none). */
std::string unitSuffixOf(const std::string &name);

/** Pass 1: unit consistency (mixed arithmetic, cross-unit assign,
 *  `convert(a->b)` marker validation). */
void checkUnits(FileScan &scan);

/** Pass 2: guarded_by(mutex) members used without a lock in any
 *  enclosing scope. */
void checkLockDiscipline(FileScan &scan);

/** Pass 3: protocol.cc field table vs DESIGN.md table, README verb
 *  mentions, and tests/serve coverage. Runs only when the scanned
 *  set contains src/serve/protocol.cc. */
void checkWireSchema(const std::filesystem::path &root,
                     const std::vector<FileScan> &scans,
                     std::vector<Diagnostic> &out);

// ---------------------------------------------------------------
// Cross-file context
// ---------------------------------------------------------------

/** Context shared by every rule run. */
struct LintContext
{
    std::filesystem::path root;
    Manifest manifest;
    std::vector<Diagnostic> diags;
    std::vector<MetricRef> refs;
};

/** Cross-file rules: manifest consistency (after every file ran). */
void checkManifest(LintContext &ctx);

} // namespace ramp_lint
