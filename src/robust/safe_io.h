#ifndef INCOGNITO_ROBUST_SAFE_IO_H_
#define INCOGNITO_ROBUST_SAFE_IO_H_

#include <string>

#include "common/status.h"

namespace incognito {

/// Reads a whole file into a string. `fault_site_prefix` names the
/// injection site family ("<prefix>.open"); see robust/fault_injector.h.
Result<std::string> ReadFileToString(const std::string& path,
                                     const std::string& fault_site_prefix);

/// Writes `content` to `path` atomically: the bytes go to a sibling
/// temporary file ("<path>.tmp.<pid>.<seq>", `seq` a process-wide counter,
/// so concurrent writers of one path each get their own) which is renamed
/// over `path` only after a successful flush — a failure at any step (open,
/// write, rename, or an injected fault at "<prefix>.open"/"<prefix>.io"/
/// "<prefix>.rename") removes the temporary and leaves no partial output
/// file behind. Nothing is fsynced: the rename survives the process dying,
/// not an OS crash or power loss.
Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const std::string& fault_site_prefix);

}  // namespace incognito

#endif  // INCOGNITO_ROBUST_SAFE_IO_H_
