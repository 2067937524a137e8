/**
 * @file
 * The deliberately small visual vocabulary of Section 3.1: "Only simple
 * shapes and properties are used: square, diamond and circle as
 * representations; node color and size, and an optional filling".
 */

#pragma once

#include <cstdint>
#include <string>

namespace viva::viz
{

/** The three node glyphs. */
enum class ShapeKind : std::uint8_t { Square, Diamond, Circle };

/** An sRGB color. */
struct Color
{
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;

    /** "#rrggbb" form for SVG. */
    std::string hex() const;

    /** Append the "#rrggbb" form to a caller's buffer. */
    void appendHex(std::string &out) const;

    bool operator==(const Color &other) const = default;
};

/** The default palette. */
namespace palette
{
inline constexpr Color host{70, 130, 180};      ///< steel blue
inline constexpr Color link{205, 133, 63};      ///< peru
inline constexpr Color router{120, 120, 120};   ///< grey
inline constexpr Color aggregate{60, 120, 60};  ///< green
inline constexpr Color accent{178, 34, 34};     ///< firebrick
inline constexpr Color background{255, 255, 255};
inline constexpr Color edge{150, 150, 150};

/**
 * A categorical series for pie segments and state colors; indices wrap.
 */
Color categorical(std::size_t index);
} // namespace palette

/** A stable, readable color derived from a name (for state glyphs). */
Color colorForName(const std::string &name);

} // namespace viva::viz

