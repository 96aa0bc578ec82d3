#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/json_util.h"
#include "robust/fault_injector.h"

namespace incognito {
namespace {

using obs::JsonString;
using obs::JsonValue;
using obs::ParseJson;

/// Reply assembly: every reply leads with the outcome contract so clients
/// can branch on "ok" / "exit_code" without parsing model-specific fields.
std::string ReplyHead(bool ok, StatusCode code) {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"status\":" + JsonString(StatusCodeName(code));
  out += ",\"exit_code\":" + std::to_string(ExitCodeForStatus(code));
  return out;
}

std::string ErrorReply(const Status& status) {
  return ReplyHead(false, status.code()) +
         ",\"error\":" + JsonString(status.message()) + "}";
}

}  // namespace

Status WriteReplyLine(int fd, const std::string& json) {
  INCOGNITO_FAULT_POINT(
      "service.reply.write",
      Status::IOError("injected fault at service.reply.write"));
  std::string line = json + "\n";
  size_t written = 0;
  while (written < line.size()) {
    ssize_t n = ::write(fd, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("reply write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

ServiceServer::ServiceServer(ServiceCore* core, std::string socket_path)
    : core_(core), socket_path_(std::move(socket_path)) {}

ServiceServer::~ServiceServer() { Stop(); }

Status ServiceServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // stale socket from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status failed = Status::IOError("bind(" + socket_path_ +
                                    ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  if (::listen(listen_fd_, 16) != 0) {
    Status failed = Status::IOError(std::string("listen() failed: ") +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  if (::pipe(stop_pipe_) != 0) {
    Status failed = Status::IOError(std::string("pipe() failed: ") +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ServiceServer::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    return;
  }
  // Wake the accept loop, then unblock any connection reads.
  char byte = 0;
  (void)!::write(stop_pipe_[1], &byte, 1);
  accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (auto& [conn, thread] : threads) thread.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  ::unlink(socket_path_.c_str());
}

void ServiceServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Stop() signalled
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Join the connections that have ended since the last accept, so a
    // long-running daemon holds threads only for live connections. Each
    // has already returned from HandleConnection, so the joins are brief.
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (uint64_t conn : finished_conns_) {
        auto it = conn_threads_.find(conn);
        finished.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
      finished_conns_.clear();
    }
    for (std::thread& thread : finished) thread.join();
    std::lock_guard<std::mutex> lock(conn_mu_);
    open_fds_.insert(fd);
    const uint64_t conn = next_conn_++;
    std::thread thread([this, fd, conn] {
      HandleConnection(fd);
      std::lock_guard<std::mutex> done(conn_mu_);
      finished_conns_.push_back(conn);
    });
    conn_threads_.emplace(conn, std::move(thread));
  }
}

size_t ServiceServer::ConnectionThreadCount() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size();
}

void ServiceServer::HandleConnection(int fd) {
  std::string buffer;
  size_t scanned = 0;  // leading bytes of `buffer` known to hold no '\n'
  char chunk[4096];
  for (;;) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client closed (or Stop() shut the socket down)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n', scanned)) != std::string::npos &&
           newline <= kMaxRequestLineBytes) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (line.empty()) continue;
      std::string reply = HandleRequest(line);
      Status written = WriteReplyLine(fd, reply);
      if (!written.ok()) {
        // A torn reply is worse than a dropped connection: the client
        // re-connects and re-polls (every op is idempotent or keyed).
        ::shutdown(fd, SHUT_RDWR);
        std::lock_guard<std::mutex> lock(conn_mu_);
        open_fds_.erase(fd);
        ::close(fd);
        return;
      }
    }
    // What is left is the start of one line, with no newline in it yet.
    scanned = buffer.size();
    if (buffer.size() > kMaxRequestLineBytes) {
      // Refuse the line and drop the connection rather than read on to
      // its end: the sender may never send one.
      (void)WriteReplyLine(
          fd, ErrorReply(Status::InvalidArgument(
                  "request line longer than " +
                  std::to_string(kMaxRequestLineBytes) + " bytes")));
      break;
    }
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  open_fds_.erase(fd);
  ::close(fd);
}

std::string ServiceServer::HandleRequest(const std::string& line) {
  JsonValue request;
  std::string error;
  if (!ParseJson(line, &request, &error)) {
    return ErrorReply(Status::InvalidArgument("bad request JSON: " + error));
  }
  const JsonValue* op_value = request.Find("op");
  std::string op = op_value ? op_value->StringOr("") : "";
  if (op == "ping") {
    return ReplyHead(true, StatusCode::kOk) + "}";
  }
  if (op == "submit") {
    const JsonValue* spec_value = request.Find("spec");
    if (spec_value == nullptr) {
      return ErrorReply(
          Status::InvalidArgument("submit needs a \"spec\" object"));
    }
    Result<JobSpec> spec = JobSpecFromJson(*spec_value);
    if (!spec.ok()) return ErrorReply(spec.status());
    Result<JobId> id = core_->Submit(std::move(spec).value());
    if (!id.ok()) return ErrorReply(id.status());
    return ReplyHead(true, StatusCode::kOk) +
           ",\"id\":" + std::to_string(id.value()) + "}";
  }
  // The remaining ops all address a job by id.
  const JsonValue* id_value = request.Find("id");
  JobId id = id_value ? static_cast<JobId>(id_value->NumberOr(0)) : 0;
  if (op == "status") {
    Result<JobSnapshot> snapshot = core_->Poll(id);
    if (!snapshot.ok()) return ErrorReply(snapshot.status());
    std::string out = ReplyHead(true, StatusCode::kOk);
    out += ",\"id\":" + std::to_string(snapshot->id);
    out += ",\"tenant\":" + JsonString(snapshot->tenant);
    out += ",\"model\":" + JsonString(JobModelName(snapshot->model));
    out += ",\"state\":" + JsonString(JobStateName(snapshot->state));
    out += std::string(",\"cancel_requested\":") +
           (snapshot->cancel_requested ? "true" : "false");
    out += ",\"memory_used_bytes\":" +
           std::to_string(snapshot->memory_used_bytes);
    out += ",\"memory_peak_bytes\":" +
           std::to_string(snapshot->memory_peak_bytes);
    out += ",\"finish_seq\":" + std::to_string(snapshot->finish_seq);
    return out + "}";
  }
  if (op == "result") {
    const JsonValue* wait = request.Find("wait");
    Result<JobResult> result = (wait != nullptr && wait->is_bool() && wait->b)
                                   ? core_->Wait(id)
                                   : core_->FetchResult(id);
    if (!result.ok()) return ErrorReply(result.status());
    // The job-level outcome contract: "status" always carries the job's
    // real status code, but a partial release the spec accepted with
    // partial_ok is a success for ok/exit-code purposes.
    Result<JobSnapshot> snapshot = core_->Poll(id);
    bool accepted = result->status.ok() ||
                    (result->partial && snapshot.ok() &&
                     snapshot->partial_ok);
    StatusCode job_code = result->status.code();
    std::string out = "{\"ok\":";
    out += accepted ? "true" : "false";
    out += ",\"status\":" + JsonString(StatusCodeName(job_code));
    out += ",\"exit_code\":" +
           std::to_string(accepted ? 0 : ExitCodeForStatus(job_code));
    out += ",\"id\":" + std::to_string(id);
    out += std::string(",\"partial\":") + (result->partial ? "true" : "false");
    if (!result->status.ok()) {
      out += ",\"error\":" + JsonString(result->status.message());
    }
    out += ",\"result\":" + JsonString(JobResultToJson(result.value()));
    return out + "}";
  }
  if (op == "cancel") {
    Status cancelled = core_->Cancel(id);
    if (!cancelled.ok()) return ErrorReply(cancelled);
    return ReplyHead(true, StatusCode::kOk) + "}";
  }
  if (op == "drain") {
    core_->Drain();
    return ReplyHead(true, StatusCode::kOk) + "}";
  }
  if (op == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_release);
    return ReplyHead(true, StatusCode::kOk) + "}";
  }
  return ErrorReply(Status::InvalidArgument(
      "unknown op '" + op +
      "' (want ping, submit, status, result, cancel, drain, or shutdown)"));
}

}  // namespace incognito
