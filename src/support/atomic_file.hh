/**
 * @file
 * File output: support::writeOutputFile, the one open-write-flush path
 * of every trace and SVG writer, and support::atomicReplace, the one
 * audited atomic-rename code path.
 *
 * Durable writers follow write-temp -> flush -> atomic-rename so a
 * crash at any byte leaves either the old file or the new one, never
 * a torn hybrid. The rename step lives behind this shim (and only
 * here -- the viva-lint rule `raw-rename` rejects direct std::rename /
 * std::filesystem::rename elsewhere) so the protocol cannot be
 * half-copied into a new writer without review.
 */

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "support/error.hh"
#include "support/obs.hh"

namespace viva::support
{

/**
 * Write `path` (truncating) through `write`, then flush. A failed
 * open, a failed stream or the injected `fault_point` firing returns
 * an Errc::Io error and adds one to the `errors` counter.
 */
Expected<void> writeOutputFile(
    const std::string &path, const char *fault_point,
    obs::CounterId errors,
    const std::function<void(std::ostream &)> &write);

/**
 * Atomically replace `final_path` with `temp_path` (same filesystem;
 * POSIX rename(2) semantics). The temp file must already be written
 * and flushed. On failure the temp file is left in place for
 * inspection and an Errc::Io error is returned.
 */
Expected<void> atomicReplace(const std::string &temp_path,
                             const std::string &final_path);

} // namespace viva::support
