/**
 * @file
 * Implementation of the file-output helpers.
 */

#include "support/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/fault.hh"

namespace viva::support
{

Expected<void>
writeOutputFile(const std::string &path, const char *fault_point,
                obs::CounterId errors,
                const std::function<void(std::ostream &)> &write)
{
    obs::Registry &reg = obs::Registry::global();
    std::ofstream out(path);
    if (!out) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "cannot open '", path,
                          "' for writing");
    }
    write(out);
    out.flush();
    if (!out || faultAt(fault_point)) {
        reg.add(errors);
        return VIVA_ERROR(Errc::Io, "write failed for '", path, "'");
    }
    return {};
}

Expected<void>
atomicReplace(const std::string &temp_path,
              const std::string &final_path)
{
    // The single sanctioned rename call (see raw-rename in viva-lint).
    // std::rename maps to POSIX rename(2): atomic within a filesystem,
    // which is exactly the crash guarantee checkpointing needs.
    // viva-lint: allow(raw-rename)
    if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
        return VIVA_ERROR(Errc::Io, "rename '", temp_path, "' -> '",
                          final_path, "' failed: ",
                          std::strerror(errno));
    }
    return {};
}

} // namespace viva::support
