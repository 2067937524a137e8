/**
 * @file
 * Implementation of the viva-analyze tokenizer (see check_lexer.hh for
 * the contract).
 */

#include "tools/check_lexer.hh"

#include <algorithm>
#include <cctype>

namespace viva::check
{

namespace
{

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
isWordStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Advance `i` past any run of line splices (backslash-newline,
 * backslash-CR-LF), counting the swallowed newlines into `line`.
 * Phase-2 of translation: splices vanish before tokens are formed.
 */
void
skipSplices(const std::string &s, std::size_t &i, std::size_t &line)
{
    while (i + 1 < s.size() && s[i] == '\\') {
        if (s[i + 1] == '\n') {
            i += 2;
            ++line;
        } else if (s[i + 1] == '\r' && i + 2 < s.size() &&
                   s[i + 2] == '\n') {
            i += 3;
            ++line;
        } else {
            break;
        }
    }
}

/** Index of the first non-splice byte at or after `k` (peek only). */
std::size_t
afterSplices(const std::string &s, std::size_t k)
{
    std::size_t line = 0;
    skipSplices(s, k, line);
    return k;
}

/** The three-character punctuators. */
const char *const kPunct3[] = {"<<=", ">>=", "->*", "..."};

/** The two-character punctuators. */
const char *const kPunct2[] = {"::", "->", "<<", ">>", "<=", ">=",
                               "==", "!=", "&&", "||", "+=", "-=",
                               "*=", "/=", "%=", "^=", "&=", "|=",
                               "++", "--", "##", ".*"};

/** Is `prefix` a valid encoding prefix for a string/char literal? */
bool
isEncodingPrefix(const std::string &prefix)
{
    return prefix == "u8" || prefix == "u" || prefix == "U" ||
           prefix == "L";
}

/** Is `prefix` a valid raw-string prefix (sans the quote)? */
bool
isRawPrefix(const std::string &prefix)
{
    return prefix == "R" || prefix == "u8R" || prefix == "uR" ||
           prefix == "UR" || prefix == "LR";
}

} // namespace

std::vector<Token>
lex(const std::string &s)
{
    std::vector<Token> out;
    const std::size_t n = s.size();
    std::size_t i = 0;
    std::size_t line = 1;
    bool atLineStart = true;
    bool inPreproc = false;

    auto cur = [&](std::size_t k) { return k < n ? s[k] : '\0'; };

    // Consume one logical character (splices skipped first).
    auto take = [&]() -> char {
        skipSplices(s, i, line);
        return i < n ? s[i++] : '\0';
    };

    // Peek the j-th logical character ahead of `i` without consuming.
    auto peek = [&](std::size_t j) -> char {
        std::size_t k = afterSplices(s, i);
        while (j > 0 && k < n) {
            ++k;
            k = afterSplices(s, k);
            --j;
        }
        return cur(k);
    };

    // Scan an ordinary "..." or '...' literal body; `i` sits on the
    // opening quote. Returns the content (escapes left as written).
    auto lexQuoted = [&](char quote) -> std::string {
        std::string content;
        take();  // opening quote
        while (true) {
            skipSplices(s, i, line);
            char c = cur(i);
            if (c == '\0' || c == '\n')
                break;  // unterminated: stop at the line end
            if (c == '\\') {
                content += take();
                skipSplices(s, i, line);
                if (cur(i) != '\0' && cur(i) != '\n')
                    content += take();
                continue;
            }
            if (c == quote) {
                take();
                break;
            }
            content += take();
        }
        return content;
    };

    while (true) {
        skipSplices(s, i, line);
        if (i >= n)
            break;
        char c = s[i];

        if (c == '\n') {
            ++i;
            ++line;
            atLineStart = true;
            inPreproc = false;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }

        Token t;
        t.offset = i;
        t.line = line;

        if (c == '#' && atLineStart)
            inPreproc = true;
        t.inPreproc = inPreproc;
        atLineStart = false;

        if (c == '/' && peek(1) == '/') {
            // Line comment; a trailing splice continues it (phase 2
            // runs before comment recognition).
            t.kind = Tok::Comment;
            take();
            take();
            while (true) {
                skipSplices(s, i, line);
                if (i >= n || s[i] == '\n')
                    break;
                ++i;
            }
            t.text = s.substr(t.offset, i - t.offset);
        } else if (c == '/' && peek(1) == '*') {
            t.kind = Tok::Comment;
            take();
            take();
            while (i < n) {
                skipSplices(s, i, line);
                if (i >= n)
                    break;
                if (s[i] == '\n') {
                    ++i;
                    ++line;
                    continue;
                }
                if (s[i] == '*' && afterSplices(s, i + 1) < n &&
                    s[afterSplices(s, i + 1)] == '/') {
                    take();
                    take();
                    break;
                }
                ++i;
            }
            t.text = s.substr(t.offset, i - t.offset);
        } else if (isWordStart(c)) {
            std::string word;
            while (true) {
                skipSplices(s, i, line);
                if (i < n && isWordChar(s[i]))
                    word += s[i++];
                else
                    break;
            }
            skipSplices(s, i, line);
            char q = cur(i);
            if (isRawPrefix(word) && q == '"') {
                // Raw string: splices are NOT processed inside (the
                // standard re-inserts them); scan raw bytes.
                t.kind = Tok::RawString;
                std::size_t open = s.find('(', i + 1);
                if (open == std::string::npos) {
                    // Malformed: treat the rest of the line as the
                    // literal so the scan cannot derail.
                    std::size_t eol = s.find('\n', i);
                    i = eol == std::string::npos ? n : eol;
                    t.text = "";
                } else {
                    const std::string delim =
                        s.substr(i + 1, open - (i + 1));
                    const std::string closer = ")" + delim + "\"";
                    std::size_t close = s.find(closer, open + 1);
                    std::size_t stop =
                        close == std::string::npos
                            ? n
                            : close + closer.size();
                    t.text = s.substr(
                        open + 1,
                        (close == std::string::npos ? n : close) -
                            (open + 1));
                    line += std::size_t(std::count(
                        s.begin() + std::ptrdiff_t(i),
                        s.begin() + std::ptrdiff_t(stop), '\n'));
                    i = stop;
                }
            } else if (isEncodingPrefix(word) &&
                       (q == '"' || q == '\'')) {
                t.kind = q == '"' ? Tok::String : Tok::CharLit;
                t.text = lexQuoted(q);
            } else {
                t.kind = Tok::Identifier;
                t.text = std::move(word);
            }
        } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                   (c == '.' &&
                    std::isdigit(
                        static_cast<unsigned char>(peek(1))) != 0)) {
            t.kind = Tok::Number;
            std::string num;
            while (true) {
                skipSplices(s, i, line);
                char d = cur(i);
                bool takeIt = false;
                if (std::isalnum(static_cast<unsigned char>(d)) != 0 ||
                    d == '_' || d == '.') {
                    takeIt = true;
                } else if (d == '\'' &&
                           std::isalnum(static_cast<unsigned char>(
                               peek(1))) != 0) {
                    // Digit separator, not a character literal.
                    takeIt = true;
                } else if ((d == '+' || d == '-') && !num.empty()) {
                    char prev = num.back();
                    takeIt = prev == 'e' || prev == 'E' ||
                             prev == 'p' || prev == 'P';
                }
                if (!takeIt)
                    break;
                num += take();
            }
            t.text = std::move(num);
        } else if (c == '"') {
            t.kind = Tok::String;
            t.text = lexQuoted('"');
        } else if (c == '\'') {
            t.kind = Tok::CharLit;
            t.text = lexQuoted('\'');
        } else {
            t.kind = Tok::Punct;
            char p0 = c, p1 = peek(1), p2 = peek(2);
            std::size_t len = 1;
            const std::string three{p0, p1, p2};
            const std::string two{p0, p1};
            for (const char *op : kPunct3)
                if (three == op)
                    len = 3;
            if (len == 1)
                for (const char *op : kPunct2)
                    if (two == op)
                        len = 2;
            for (std::size_t k = 0; k < len; ++k)
                t.text += take();
        }

        t.end = i;
        out.push_back(std::move(t));
    }
    return out;
}

} // namespace viva::check
