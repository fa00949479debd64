/**
 * @file
 * The shared tokenizer feeding ramp-lint's token-level passes. It
 * lexes the comment-blanked view of a file (so comments never
 * produce tokens) while keeping string/char literals as single
 * tokens with their inner text -- the wire-schema pass reads field
 * names out of them -- and tracks the 1-based line of every token.
 *
 * This is a scanner, not a compiler front end: it knows maximal-
 * munch operator spelling (`->`, `::`, `+=`, `<<=`, ...) and literal
 * forms (including raw strings and digit separators), and nothing
 * about the grammar above tokens. The passes layer their own small
 * amount of structure (scope trees, member chains) on top.
 */

#include "lint.hh"

#include <cctype>

namespace ramp_lint {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Multi-character operators, longest first per leading char. */
const char *const multi_ops[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",  "++",  "--",  ".*",
};

/** Encoding prefixes that may precede a string/char literal. */
bool
isLiteralPrefix(const std::string &word)
{
    return word == "R" || word == "L" || word == "u" ||
           word == "U" || word == "u8" || word == "LR" ||
           word == "uR" || word == "UR" || word == "u8R";
}

} // namespace

std::vector<Token>
tokenize(const SourceFile &src)
{
    const std::string &text = src.code_str;
    std::vector<Token> toks;
    toks.reserve(text.size() / 6);

    std::size_t i = 0;
    std::size_t line = 1;
    const std::size_t n = text.size();

    auto scanQuoted = [&](std::size_t start, char quote,
                          bool raw) -> std::size_t {
        // Returns one past the closing delimiter; pushes the token.
        if (raw) {
            std::size_t paren = text.find('(', start + 1);
            if (paren == std::string::npos)
                return start + 1;
            const std::string close =
                ")" + text.substr(start + 1, paren - start - 1) +
                "\"";
            std::size_t end = text.find(close, paren + 1);
            const std::size_t body = paren + 1;
            const std::size_t stop =
                end == std::string::npos ? n : end;
            toks.push_back({Token::Kind::String,
                            text.substr(body, stop - body), line});
            for (std::size_t k = start; k < stop; ++k)
                if (text[k] == '\n')
                    ++line;
            return end == std::string::npos ? n
                                            : end + close.size();
        }
        std::size_t j = start + 1;
        while (j < n && text[j] != quote && text[j] != '\n') {
            if (text[j] == '\\' && j + 1 < n)
                ++j;
            ++j;
        }
        toks.push_back({quote == '"' ? Token::Kind::String
                                     : Token::Kind::CharLit,
                        text.substr(start + 1, j - start - 1),
                        line});
        return j < n && text[j] == quote ? j + 1 : j;
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < n && identChar(text[j]))
                ++j;
            std::string word = text.substr(i, j - i);
            if (j < n && (text[j] == '"' || text[j] == '\'') &&
                isLiteralPrefix(word)) {
                const bool raw = word.back() == 'R';
                i = scanQuoted(j, text[j], raw);
                continue;
            }
            toks.push_back(
                {Token::Kind::Ident, std::move(word), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
            std::size_t j = i + 1;
            while (j < n &&
                   (identChar(text[j]) || text[j] == '.' ||
                    text[j] == '\'' ||
                    ((text[j] == '+' || text[j] == '-') &&
                     (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                      text[j - 1] == 'p' || text[j - 1] == 'P'))))
                ++j;
            toks.push_back(
                {Token::Kind::Number, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (c == '"' || c == '\'') {
            i = scanQuoted(i, c, false);
            continue;
        }
        // Operators: longest match from the table, else one char.
        std::string op(1, c);
        for (const char *cand : multi_ops) {
            const std::size_t len = std::char_traits<char>::length(cand);
            if (cand[0] == c && i + len <= n &&
                text.compare(i, len, cand) == 0) {
                op = cand;
                break;
            }
        }
        toks.push_back({Token::Kind::Punct, op, line});
        i += op.size();
    }
    return toks;
}

bool
isPunct(const std::vector<Token> &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].kind == Token::Kind::Punct &&
           t[i].text == text;
}

bool
isIdent(const std::vector<Token> &t, std::size_t i)
{
    return i < t.size() && t[i].kind == Token::Kind::Ident;
}

} // namespace ramp_lint
