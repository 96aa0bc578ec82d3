// incognito_client — socket client for the anonymization daemon
// (`incognito_cli serve`; see docs/SERVICE.md for the protocol).
//
// Subcommands (all but run-direct need --socket=PATH):
//   ping         liveness probe
//   submit       build a JobSpec from the flags below and submit it;
//                prints the assigned job id
//   status       --id=N  print the job's state snapshot
//   result       --id=N [--wait]  fetch the job's result; prints the
//                canonical result JSON (service/job_spec.h) on stdout and
//                exits with the job's documented exit code
//   cancel       --id=N  cancel a queued or running job
//   drain        graceful drain (blocks until in-flight jobs finish)
//   shutdown     ask the daemon to drain and exit
//   run-direct   execute the same JobSpec in-process (no daemon) and
//                print the identical canonical result JSON — the CI
//                service-smoke job diffs this against `result` output
//                bit-for-bit
//
// JobSpec flags (submit, run-direct):
//   --input=FILE --qid=Col1,Col2,... --hierarchies=COL=SPEC,...
//   --model=M            k-anonymity (default), l-diversity, k-optimize,
//                        or mondrian
//   --k=N --l=N --sensitive=COL --suppress=N
//   --variant=V          basic (default), superroots, or cube
//   --tenant=NAME        tenant the job is accounted to (default "default")
//   --deadline-ms=N --memory-budget-mb=N --threads=N --substrate=S
//   --checkpoint=FILE --checkpoint-interval-ms=N --resume=off|auto|require
//   --partial-ok         accept a budget-tripped sound partial (exit 0)
//
// Exit codes follow the library contract (src/common/status.h):
//   0 success, 1 other failure, 2 usage, 3 invalid input, 4 I/O error,
//   5 budget tripped (deadline/memory/cancel) without --partial-ok.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/json_util.h"
#include "service/job_spec.h"
#include "service/server.h"

namespace incognito {
namespace {

using obs::JsonValue;
using obs::ParseJson;

int Usage() {
  fprintf(stderr,
          "usage: incognito_client "
          "(ping|submit|status|result|cancel|drain|shutdown|run-direct) "
          "--socket=PATH [flags]\n"
          "see the header of tools/incognito_client.cpp and "
          "docs/SERVICE.md\n");
  return 2;
}

int Fail(const Status& status) {
  fprintf(stderr, "error[%s]: %s\n", StatusCodeName(status.code()),
          status.message().c_str());
  return ExitCodeForStatus(status.code());
}

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args[arg.substr(2)] = "true";
    } else {
      args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return args;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& def = "") {
  auto it = args.find(key);
  return it == args.end() ? def : it->second;
}

/// Assembles a JobSpec from the submit/run-direct flags.
Result<JobSpec> SpecFromArgs(const std::map<std::string, std::string>& args) {
  JobSpec spec;
  spec.tenant = Get(args, "tenant", "default");
  spec.input = Get(args, "input");
  for (const std::string& name : Split(Get(args, "qid"), ',')) {
    if (!name.empty()) spec.qid.push_back(name);
  }
  for (const std::string& entry : Split(Get(args, "hierarchies"), ',')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad --hierarchies entry '" + entry +
                                     "' (want COL=SPEC)");
    }
    spec.hierarchies[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  std::string model = Get(args, "model");
  if (!model.empty() && !ParseJobModel(model, &spec.model)) {
    return Status::InvalidArgument(
        "bad --model value '" + model +
        "' (want k-anonymity, l-diversity, k-optimize, or mondrian)");
  }
  spec.k = atoll(Get(args, "k", "2").c_str());
  spec.l = atoll(Get(args, "l", "2").c_str());
  spec.sensitive_attribute = Get(args, "sensitive");
  spec.max_suppressed = atoll(Get(args, "suppress", "0").c_str());
  std::string variant = Get(args, "variant");
  if (!variant.empty()) {
    if (variant == "basic") {
      spec.variant = IncognitoVariant::kBasic;
    } else if (variant == "superroots") {
      spec.variant = IncognitoVariant::kSuperRoots;
    } else if (variant == "cube") {
      spec.variant = IncognitoVariant::kCube;
    } else {
      return Status::InvalidArgument(
          "bad --variant value '" + variant +
          "' (want basic, superroots, or cube)");
    }
  }
  std::string deadline = Get(args, "deadline-ms");
  if (!deadline.empty()) spec.exec.deadline_ms = atoll(deadline.c_str());
  std::string budget = Get(args, "memory-budget-mb");
  if (!budget.empty()) {
    spec.exec.memory_budget_bytes = atoll(budget.c_str()) * (1ll << 20);
  }
  spec.exec.num_threads = atoi(Get(args, "threads", "0").c_str());
  std::string substrate = Get(args, "substrate");
  if (!substrate.empty() &&
      !ParseSubstrateMode(substrate, &spec.exec.substrate)) {
    return Status::InvalidArgument("bad --substrate value '" + substrate +
                                   "' (want hash, radix, or auto)");
  }
  spec.exec.checkpoint.path = Get(args, "checkpoint");
  std::string interval = Get(args, "checkpoint-interval-ms");
  if (!interval.empty()) {
    spec.exec.checkpoint.interval_ms = atoll(interval.c_str());
  }
  std::string resume = Get(args, "resume");
  if (resume == "auto") {
    spec.exec.checkpoint.resume = ResumeMode::kAuto;
  } else if (resume == "require" || resume == "true") {
    spec.exec.checkpoint.resume = ResumeMode::kRequire;
  } else if (!resume.empty() && resume != "off") {
    return Status::InvalidArgument("bad --resume value '" + resume +
                                   "' (want off, auto, or require)");
  }
  spec.partial_ok = Get(args, "partial-ok") == "true";
  return spec;
}

/// One request/reply round trip over the daemon socket.
Result<JsonValue> RoundTrip(const std::string& socket_path,
                            const std::string& request) {
  if (socket_path.empty()) {
    return Status::InvalidArgument("--socket=PATH is required");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status failed = Status::IOError("connect(" + socket_path +
                                    ") failed: " + std::strerror(errno));
    ::close(fd);
    return failed;
  }
  std::string line = request + "\n";
  size_t written = 0;
  while (written < line.size()) {
    ssize_t n = ::write(fd, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status failed = Status::IOError(std::string("request write failed: ") +
                                      std::strerror(errno));
      ::close(fd);
      return failed;
    }
    written += static_cast<size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("daemon closed the connection mid-reply");
    }
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  reply.resize(reply.find('\n'));
  JsonValue parsed;
  std::string error;
  if (!ParseJson(reply, &parsed, &error)) {
    return Status::Internal("bad reply JSON: " + error);
  }
  return parsed;
}

/// The reply's machine-readable outcome: prints the error (if any) and
/// returns the daemon-computed exit code.
int FinishFromReply(const JsonValue& reply) {
  const JsonValue* ok = reply.Find("ok");
  const JsonValue* error = reply.Find("error");
  const JsonValue* status = reply.Find("status");
  const JsonValue* exit_code = reply.Find("exit_code");
  if (ok != nullptr && ok->is_bool() && !ok->b) {
    fprintf(stderr, "error[%s]: %s\n",
            status ? status->StringOr("Internal").c_str() : "Internal",
            error ? error->StringOr("").c_str() : "");
  }
  return exit_code ? static_cast<int>(exit_code->NumberOr(1)) : 1;
}

int CmdSimple(const std::string& socket_path, const std::string& op,
              JobId id, bool has_id) {
  std::string request = "{\"op\":\"" + op + "\"";
  if (has_id) request += ",\"id\":" + std::to_string(id);
  request += "}";
  Result<JsonValue> reply = RoundTrip(socket_path, request);
  if (!reply.ok()) return Fail(reply.status());
  int code = FinishFromReply(reply.value());
  if (code == 0) printf("%s: ok\n", op.c_str());
  return code;
}

int CmdSubmit(const std::map<std::string, std::string>& args) {
  Result<JobSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) return Fail(spec.status());
  std::string request =
      "{\"op\":\"submit\",\"spec\":" + JobSpecToJson(spec.value()) + "}";
  Result<JsonValue> reply = RoundTrip(Get(args, "socket"), request);
  if (!reply.ok()) return Fail(reply.status());
  int code = FinishFromReply(reply.value());
  if (code != 0) return code;
  const JsonValue* id = reply->Find("id");
  printf("%lld\n",
         static_cast<long long>(id ? id->NumberOr(0) : 0));
  return 0;
}

int CmdStatus(const std::map<std::string, std::string>& args) {
  std::string request =
      "{\"op\":\"status\",\"id\":" + Get(args, "id", "0") + "}";
  Result<JsonValue> reply = RoundTrip(Get(args, "socket"), request);
  if (!reply.ok()) return Fail(reply.status());
  int code = FinishFromReply(reply.value());
  if (code != 0) return code;
  const JsonValue& r = reply.value();
  auto str = [&r](const char* key) {
    const JsonValue* v = r.Find(key);
    return v ? v->StringOr("") : std::string();
  };
  auto num = [&r](const char* key) {
    const JsonValue* v = r.Find(key);
    return static_cast<long long>(v ? v->NumberOr(0) : 0);
  };
  const JsonValue* cancel = r.Find("cancel_requested");
  printf("job %lld tenant=%s model=%s state=%s cancel_requested=%s "
         "memory_used=%lld memory_peak=%lld finish_seq=%lld\n",
         num("id"), str("tenant").c_str(), str("model").c_str(),
         str("state").c_str(),
         (cancel != nullptr && cancel->is_bool() && cancel->b) ? "true"
                                                               : "false",
         num("memory_used_bytes"), num("memory_peak_bytes"),
         num("finish_seq"));
  return 0;
}

int CmdResult(const std::map<std::string, std::string>& args) {
  std::string request = "{\"op\":\"result\",\"id\":" + Get(args, "id", "0");
  if (Get(args, "wait") == "true") request += ",\"wait\":true";
  request += "}";
  Result<JsonValue> reply = RoundTrip(Get(args, "socket"), request);
  if (!reply.ok()) return Fail(reply.status());
  // Print the canonical result JSON verbatim whenever the daemon produced
  // one (including accepted partials) so stdout diffs bit-for-bit against
  // run-direct; the exit code is the daemon's job-outcome contract.
  const JsonValue* result = reply->Find("result");
  if (result != nullptr && result->is_string()) {
    printf("%s\n", result->str.c_str());
  }
  return FinishFromReply(reply.value());
}

int CmdRunDirect(const std::map<std::string, std::string>& args) {
  Result<JobSpec> spec = SpecFromArgs(args);
  if (!spec.ok()) return Fail(spec.status());
  ExecutionGovernor governor;
  JobResult result = ExecuteJob(spec.value(), &governor);
  printf("%s\n", JobResultToJson(result).c_str());
  if (result.status.ok()) return 0;
  if (result.partial && spec->partial_ok) {
    fprintf(stderr, "warning[%s]: %s; releasing the sound partial\n",
            StatusCodeName(result.status.code()),
            result.status.message().c_str());
    return 0;
  }
  fprintf(stderr, "error[%s]: %s\n", StatusCodeName(result.status.code()),
          result.status.message().c_str());
  return ExitCodeForStatus(result.status.code());
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::map<std::string, std::string> args = ParseArgs(argc, argv);
  std::string socket_path = Get(args, "socket");
  if (command == "ping") return CmdSimple(socket_path, "ping", 0, false);
  if (command == "submit") return CmdSubmit(args);
  if (command == "status") return CmdStatus(args);
  if (command == "result") return CmdResult(args);
  if (command == "cancel") {
    return CmdSimple(socket_path, "cancel",
                     atoll(Get(args, "id", "0").c_str()), true);
  }
  if (command == "drain") return CmdSimple(socket_path, "drain", 0, false);
  if (command == "shutdown") {
    return CmdSimple(socket_path, "shutdown", 0, false);
  }
  if (command == "run-direct") return CmdRunDirect(args);
  return Usage();
}

}  // namespace
}  // namespace incognito

int main(int argc, char** argv) { return incognito::Main(argc, argv); }
