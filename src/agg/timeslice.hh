/**
 * @file
 * Time-slice helpers: the temporal neighbourhood Delta of Equation 1 is
 * an Interval; these utilities carve an observation period into the
 * slices the analyst steps through (Fig. 6 sub-slices, Fig. 9 frames).
 */

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "support/interval.hh"
#include "support/strong_id.hh"

namespace viva::agg
{

using TimeSlice = support::Interval;

/** Tag type of the temporal slice index space. */
struct SliceTag
{
};

/**
 * Position of one slice inside a uniform division of the observation
 * period -- the frame number the analyst steps through. Strongly typed
 * so a slice position cannot be confused with a container or node id.
 */
using SliceIndex = support::StrongId<SliceTag, std::uint32_t>;

/**
 * The largest slice count a SliceIndex can address: every index of a
 * division into at most this many slices fits the index type.
 */
inline constexpr std::size_t kMaxSliceCount =
    std::numeric_limits<SliceIndex::Underlying>::max();

/**
 * The i-th of n equal consecutive slices of a period, computed
 * directly (no other slice is built). The last slice ends exactly at
 * the period's end.
 */
inline TimeSlice
sliceAt(const TimeSlice &span, SliceIndex i, std::size_t n)
{
    VIVA_ASSERT(n <= kMaxSliceCount, "slice count ", n, " out of range");
    VIVA_ASSERT(i.index() < n, "slice index ", i, " out of ", n);
    double width = span.length() / double(n);
    double b = span.begin + width * double(i.index());
    double e = (i.index() + 1 == n) ? span.end : b + width;
    return {b, e};
}

/** Split a period into n equal consecutive slices (each one sliceAt). */
inline std::vector<TimeSlice>
uniformSlices(const TimeSlice &span, std::size_t n)
{
    VIVA_ASSERT(n > 0, "need at least one slice");
    std::vector<TimeSlice> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(sliceAt(span, SliceIndex::fromIndex(i), n));
    return out;
}

/**
 * Sliding windows of the given width advancing by `step` (an animation
 * through time, Section 3.2.1: "shifting the corresponding frame").
 */
inline std::vector<TimeSlice>
slidingSlices(const TimeSlice &span, double width, double step)
{
    VIVA_ASSERT(width > 0 && step > 0, "bad sliding window parameters");
    std::vector<TimeSlice> out;
    for (double b = span.begin; b < span.end; b += step)
        out.emplace_back(b, std::min(b + width, span.end));
    return out;
}

} // namespace viva::agg

