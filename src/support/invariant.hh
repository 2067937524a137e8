/**
 * @file
 * The runtime invariant-audit substrate. Every core data structure
 * exposes an `auditInvariants()` returning an AuditLog -- the list of
 * violated invariants, empty when the structure is well-formed. The
 * audits are always compiled (tests corrupt structures on purpose and
 * assert the audit catches it); what the VIVA_VALIDATE build mode
 * controls is whether the Session runs a full audit after every
 * mutating command and panics on the first violation.
 *
 * Audits are deep and O(structure size): QuadTree mass/centroid
 * consistency, graph adjacency integrity, the hierarchy cut's
 * antichain/cover property, Eq.-1 conservation of aggregated views,
 * platform parent/child consistency, finite layout positions. They are
 * the machine-checked counterpart of the bitwise-determinism contract:
 * cheap enough to run after each interactive operation in a validate
 * build, and compiled out of release hot paths entirely.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace viva::support
{

/** The violations found by one audit pass; empty means well-formed. */
using AuditLog = std::vector<std::string>;

/** Append one formatted violation to a log. */
template <typename... Args>
void
auditFail(AuditLog &log, Args &&...args)
{
    log.push_back(detail::concat(std::forward<Args>(args)...));
}

/** True in -DVIVA_VALIDATE=ON builds (audits run after each mutating call). */
constexpr bool
validateEnabled()
{
#if defined(VIVA_VALIDATE) && VIVA_VALIDATE
    return true;
#else
    return false;
#endif
}

/**
 * Relative floating-point comparison against the larger magnitude
 * (and against 1, so values near zero compare absolutely).
 */
inline bool
nearlyEqual(double a, double b, double tol)
{
    return std::abs(a - b) <=
           tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/** Panic listing every violation when the log is non-empty. */
inline void
requireClean(const AuditLog &log, const std::string &where)  // viva-graph: allow(fatal-reachable): the audit harness; panicking on violations is its contract
{
    if (log.empty())
        return;
    std::string joined;
    for (const std::string &violation : log) {
        joined += "\n  - ";
        joined += violation;
    }
    panic(where, log.size(), " invariant violation(s):", joined);
}

} // namespace viva::support
