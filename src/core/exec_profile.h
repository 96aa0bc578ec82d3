#ifndef INCOGNITO_CORE_EXEC_PROFILE_H_
#define INCOGNITO_CORE_EXEC_PROFILE_H_

#include <cstdint>

#include "core/run_context.h"
#include "robust/checkpoint.h"

namespace incognito {

/// The most worker threads one run may ask for: the range of the CLI's
/// --threads flag and of the JobSpec "threads" field.
inline constexpr int kMaxThreads = 256;

/// One value-typed description of HOW a run should execute — budgets,
/// threads, checkpointing — independent of WHAT it
/// runs. This is the single JobSpec/flag → RunContext translation shared by
/// the CLI (tools/incognito_cli.cpp), the benches, and the service daemon
/// (src/service/), so the arming rules live in exactly one place.
///
/// A RunContext only borrows the governor and the checkpoint policy, so
/// the profile (which owns the policy) and the caller's governor must
/// outlive the run the context is handed to.
struct ExecProfile {
  /// Milliseconds until the run's deadline; negative (default) means none.
  int64_t deadline_ms = -1;
  /// Memory budget in bytes; <= 0 (default) means unlimited.
  int64_t memory_budget_bytes = 0;
  /// Optional caller-owned cancellation token, pollable from any thread.
  const CancelToken* cancel = nullptr;
  /// Worker threads (0 defers to the algorithm's own option); at most
  /// kMaxThreads.
  int num_threads = 0;
  /// Owned checkpoint policy; inert unless a path is set.
  CheckpointPolicy checkpoint;

  /// True when any budget is configured — only then does MakeContext arm
  /// and attach the governor (an unattached governor stays inert and trip
  /// counters stay zero, matching the ungoverned fast path).
  bool governed() const {
    return deadline_ms >= 0 || memory_budget_bytes > 0 || cancel != nullptr;
  }

  /// Assembles the RunContext every Run* call of the job shares.
  /// `governor` is the caller's stack slot (the context only borrows it);
  /// it is armed and attached only when governed(). Trips latch, so
  /// callers making several governed runs arm a fresh governor per run.
  RunContext MakeContext(ExecutionGovernor* governor) const;
};

}  // namespace incognito

#endif  // INCOGNITO_CORE_EXEC_PROFILE_H_
