/**
 * @file
 * Small string utilities used by the trace reader/writer and the command
 * interpreter.
 */

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace viva::support
{

/** Split on a delimiter character; empty fields are kept. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Strip leading and trailing whitespace. */
std::string trim(std::string_view text);

/** trim() without the copy: the trimmed part of `text`. */
std::string_view trimView(std::string_view text);

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view sep);

/** True if text begins with prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if text ends with suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/**
 * Parse a double, reporting success. Surrounding whitespace is
 * ignored; the rest must be one number in strtod's grammar, which
 * includes a leading '+', hex floats, inf and nan. Out-of-range
 * values read as strtod reads them (1e400 as inf, 1e-400 as 0).
 * Decimal fields are parsed in place with std::from_chars; strtod
 * decides the few it does not take whole.
 *
 * @param text the field to parse
 * @param out receives the value on success
 * @retval true if the entire field parsed as a number
 */
bool parseDouble(std::string_view text, double &out);

/**
 * Parse a non-negative decimal integer, reporting success; surrounding
 * whitespace is ignored.
 */
bool parseSize(std::string_view text, std::size_t &out);

/**
 * Append the shortest text that parses back to exactly `value`
 * (std::to_chars shortest round trip: fixed or scientific, whichever
 * is shorter). Every writer formats its numbers through this, so
 * written files are lossless and no longer than "%.17g" output.
 */
void appendDouble(std::string &out, double value);

/** appendDouble into a fresh string. */
std::string formatDouble(double value);

/** Render a quantity with an SI-style suffix (1.5K, 2.3M, ...). */
std::string humanize(double value);

/** Escape the five XML special characters (for SVG text/titles). */
std::string xmlEscape(std::string_view text);

} // namespace viva::support

