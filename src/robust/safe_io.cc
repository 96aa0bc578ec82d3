#include "robust/safe_io.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/strings.h"
#include "robust/fault_injector.h"

namespace incognito {

namespace {

/// "<path>.tmp.<pid>.<seq>": the sequence number gives every write its own
/// temporary, so two threads writing one target never share one.
std::string TempPathFor(const std::string& path) {
  static std::atomic<unsigned long long> next_seq{0};
#ifdef _WIN32
  int pid = _getpid();
#else
  int pid = static_cast<int>(getpid());
#endif
  return StringPrintf("%s.tmp.%d.%llu", path.c_str(), pid,
                      next_seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path,
                                     const std::string& fault_site_prefix) {
  INCOGNITO_FAULT_POINT(
      fault_site_prefix + ".open",
      Status::IOError("injected open failure reading '" + path + "'"));
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << file.rdbuf();
  if (file.bad()) return Status::IOError("read from '" + path + "' failed");
  return buf.str();
}

Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const std::string& fault_site_prefix) {
  INCOGNITO_FAULT_POINT(
      fault_site_prefix + ".open",
      Status::IOError("injected open failure writing '" + path + "'"));
  const std::string tmp = TempPathFor(path);
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
    bool injected_io = false;
#ifdef INCOGNITO_FAULTS
    injected_io = FaultInjector::Global().Hit(fault_site_prefix + ".io");
#endif
    if (!injected_io) {
      file.write(content.data(),
                 static_cast<std::streamsize>(content.size()));
      file.flush();
    }
    if (injected_io || !file) {
      file.close();
      std::remove(tmp.c_str());
      return Status::IOError(
          injected_io
              ? "injected write failure for '" + path + "'"
              : "write to '" + tmp + "' failed");
    }
  }
  bool injected_rename = false;
#ifdef INCOGNITO_FAULTS
  injected_rename = FaultInjector::Global().Hit(fault_site_prefix +
                                                ".rename");
#endif
  if (injected_rename || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(
        injected_rename
            ? "injected rename failure for '" + path + "'"
            : "cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace incognito
