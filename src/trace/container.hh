/**
 * @file
 * Hierarchical containers, after the Paje data model: every monitored
 * entity (grid, site, cluster, host, link, process, ...) is a container
 * nested inside a parent container. The hierarchy is what the spatial
 * aggregation of Section 3.2.2 collapses and expands.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/strong_id.hh"

namespace viva::trace
{

/** Tag type of the container id space (one space per Trace). */
struct ContainerTag
{
};

/** Dense identifier of a container inside one Trace. */
using ContainerId = support::StrongId<ContainerTag, std::uint32_t>;

/** Sentinel for "no container" (e.g. the root's parent). */
inline constexpr ContainerId kNoContainer{0xFFFFFFFFu};

/**
 * The role a container plays. Kinds drive default visual mapping (hosts
 * are squares, links diamonds, aggregates circles) and per-type scaling.
 */
enum class ContainerKind : std::uint8_t
{
    Root,     ///< the single top-level container
    Grid,     ///< a whole distributed platform
    Site,     ///< a geographic site of a grid
    Cluster,  ///< a homogeneous cluster
    Host,     ///< a processing node
    Link,     ///< a network link
    Router,   ///< a switch or router (no compute capacity)
    Process,  ///< an application process pinned to a host
    Custom,   ///< anything else
};

/** Human-readable name of a container kind. */
const char *containerKindName(ContainerKind kind);

/** Parse a kind name produced by containerKindName(); Custom on failure. */
ContainerKind containerKindFromName(std::string_view name);

/**
 * One node of the container hierarchy. Plain data; owned and indexed by
 * the enclosing Trace.
 */
struct Container
{
    ContainerId id = kNoContainer;
    std::string name;               ///< unique among siblings
    ContainerKind kind = ContainerKind::Custom;
    ContainerId parent = kNoContainer;
    std::vector<ContainerId> children;
    std::uint16_t depth = 0;        ///< root is depth 0

    /** True for containers with no children. */
    bool leaf() const { return children.empty(); }
};

} // namespace viva::trace

