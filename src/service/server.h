#ifndef INCOGNITO_SERVICE_SERVER_H_
#define INCOGNITO_SERVICE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/service.h"

namespace incognito {

/// Longest request line the server reads, newline excluded: 1 MiB, the
/// same as the CSV reader's default row limit. A longer line gets one
/// InvalidArgument reply and the connection is closed.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// Writes one protocol reply (`json` + '\n') to `fd`, retrying short
/// writes. Fault site "service.reply.write" (IOError); a failed write
/// closes the connection rather than leaving a partial line on the wire.
Status WriteReplyLine(int fd, const std::string& json);

/// Newline-delimited-JSON front-end over a Unix-domain socket: each
/// request is one JSON object on one line, each reply is one JSON object
/// on one line, connections are handled on their own thread and may issue
/// any number of requests. docs/SERVICE.md gives the protocol grammar;
/// the request ops are:
///
///   {"op":"ping"}                          liveness probe
///   {"op":"submit","spec":{...}}           admit a JobSpec (job_spec.h)
///   {"op":"status","id":N}                 JobSnapshot of a job
///   {"op":"result","id":N[,"wait":true]}   fetch (or block for) a result
///   {"op":"cancel","id":N}                 cancel a job
///   {"op":"drain"}                         graceful drain (blocks)
///   {"op":"shutdown"}                      request daemon shutdown
///
/// Every reply carries "ok" plus the machine-readable outcome contract:
/// "status" (common/status.h StatusCodeName) and "exit_code"
/// (ExitCodeForStatus) — for the "result" op these describe the JOB's
/// outcome (partial releases accepted by the spec's partial_ok map to
/// exit code 0), for every other op the op's own outcome.
class ServiceServer {
 public:
  /// `core` must outlive the server. Nothing is bound until Start().
  ServiceServer(ServiceCore* core, std::string socket_path);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds the socket (unlinking any stale file at the path), starts
  /// listening, and spawns the accept loop.
  Status Start();

  /// Stops accepting, shuts down open connections, joins every thread,
  /// and unlinks the socket file. Idempotent.
  void Stop();

  /// True once a client issued {"op":"shutdown"} — the daemon's serve
  /// loop polls this alongside its signal flag.
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  const std::string& socket_path() const { return socket_path_; }

  /// Connection threads not yet joined: the running ones, plus finished
  /// ones the accept loop has not reaped yet (it joins those before it
  /// starts the next connection's thread).
  size_t ConnectionThreadCount() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Dispatches one request line; returns the reply JSON line.
  std::string HandleRequest(const std::string& line);

  ServiceCore* const core_;
  const std::string socket_path_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread accept_thread_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex conn_mu_;
  std::set<int> open_fds_;
  std::map<uint64_t, std::thread> conn_threads_;  // by connection number
  std::vector<uint64_t> finished_conns_;  // returned, not yet joined
  uint64_t next_conn_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_SERVICE_SERVER_H_
