/**
 * @file
 * The viva-analyze lexer: a dependency-free single-translation-unit
 * C++ tokenizer. It is deliberately not a compiler frontend -- no
 * preprocessing, no name lookup -- but unlike the line/regex scanning
 * it replaces, it gets the lexical blind spots right:
 *
 *  - raw string literals (R"delim(...)delim", including prefixed
 *    u8R/LR/uR/UR forms) are one token, never mistaken for code;
 *  - ordinary string and character literals understand escapes and
 *    encoding prefixes, and digit separators (1'000'000) are numbers,
 *    not the start of a character literal;
 *  - line splices (backslash-newline) are erased inside identifiers,
 *    operators, string literals and -- crucially -- line comments, so
 *    a comment continued by a trailing backslash cannot leak "code"
 *    into an analysis pass;
 *  - preprocessor directives are tokenized but flagged, so flow rules
 *    can skip macro definitions while include/manifest passes can
 *    still read them.
 *
 * Every token carries its byte range in the ORIGINAL text and the
 * 1-based line of its first byte, so findings point at real source
 * coordinates even across splices and multi-line literals.
 *
 * viva-analyze lexes every file once with it, and every rule reads
 * that one token stream.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace viva::check
{

/** Lexical class of one token. */
enum class Tok
{
    Identifier,  ///< identifiers and keywords (no keyword table needed)
    Number,      ///< integer/float literal, digit separators included
    String,      ///< "..." with optional u8/u/U/L prefix
    CharLit,     ///< '...' with optional prefix
    RawString,   ///< R"delim(...)delim" with optional prefix
    Punct,       ///< operator or punctuator (maximal munch)
    Comment,     ///< // or block comment, one token
};

/** One lexed token. */
struct Token
{
    Tok kind = Tok::Punct;

    /**
     * Logical text: splices removed; for String/CharLit/RawString the
     * *content* between the quotes/parens (prefix, quotes and raw
     * delimiters stripped, escape sequences left as written); for
     * Comment the raw comment text.
     */
    std::string text;

    std::size_t offset = 0;  ///< first byte in the original content
    std::size_t end = 0;     ///< one past the last byte
    std::size_t line = 1;    ///< 1-based line of the first byte

    /** Token is part of a preprocessor directive line. */
    bool inPreproc = false;
};

/**
 * Tokenize one file. Never fails: malformed input (unterminated
 * literal or comment) produces a best-effort token ending at the next
 * newline or end of input. Comments are included in the stream;
 * filter on kind for pure code passes.
 */
std::vector<Token> lex(const std::string &content);

} // namespace viva::check
