/**
 * @file
 * Implementation of string utilities.
 */

#include "support/strings.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace viva::support
{

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            return fields;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> fields;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        std::size_t start = i;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start)
            fields.emplace_back(text.substr(start, i - start));
    }
    return fields;
}

std::string_view
trimView(std::string_view text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

std::string
trim(std::string_view text)
{
    return std::string(trimView(text));
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseDouble(std::string_view text, double &out)
{
    std::string_view s = trimView(text);
    if (s.empty())
        return false;
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    // from_chars and strtod agree on every decimal field from_chars
    // takes whole. strtod decides the rest: a leading '+', hex floats,
    // out-of-range values (from_chars refuses them; strtod saturates to
    // inf or 0) and nan, whose "nan(n-chars)" payload only strtod keeps.
    if (ec != std::errc() || ptr != s.data() + s.size() || std::isnan(v)) {
        const std::string copy(s);
        char *end = nullptr;
        v = std::strtod(copy.c_str(), &end);
        if (end != copy.c_str() + copy.size())
            return false;
    }
    out = v;
    return true;
}

bool
parseSize(std::string_view text, std::size_t &out)
{
    std::string_view s = trimView(text);
    if (s.empty())
        return false;
    std::size_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size())
        return false;
    out = v;
    return true;
}

void
appendDouble(std::string &out, double value)
{
    // The longest shortest form of a binary64 is 24 characters
    // ("-2.2250738585072014e-308"); fixed notation is only chosen when
    // it is no longer than scientific.
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    VIVA_ASSERT(ec == std::errc(), "to_chars overflowed its buffer");
    out.append(buf, end);
}

std::string
formatDouble(double value)
{
    std::string out;
    appendDouble(out, value);
    return out;
}

std::string
humanize(double value)
{
    static const char *suffixes[] = {"", "K", "M", "G", "T", "P"};
    double v = value;
    std::size_t s = 0;
    double sign = 1.0;
    if (v < 0) {
        sign = -1.0;
        v = -v;
    }
    while (v >= 1000.0 && s + 1 < sizeof(suffixes) / sizeof(suffixes[0])) {
        v /= 1000.0;
        ++s;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g%s", sign * v, suffixes[s]);
    return buf;
}

std::string
xmlEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace viva::support
