#ifndef INCOGNITO_CORE_RUN_CONTEXT_H_
#define INCOGNITO_CORE_RUN_CONTEXT_H_

#include <cassert>
#include <cstdint>

#include "robust/governor.h"

namespace incognito {

struct CheckpointPolicy;

/// Execution parameters shared by every Run* entry point: who governs the
/// run (deadline / memory budget / cancellation), how many worker threads
/// it may use, and where it checkpoints. Replaces the old
/// governed/ungoverned overload pairs (docs/API.md): a default-constructed
/// RunContext reproduces the legacy ungoverned call exactly, and
/// RunContext::Governed(governor) reproduces the legacy governed one.
///
/// The context only borrows the governor — the caller keeps ownership and
/// must keep it alive for the duration of the run. Construct a fresh
/// governor per run; trips latch.
struct RunContext {
  /// Optional resource governor. Null runs ungoverned: no deadline, no
  /// memory budget, trip counters stay zero.
  ExecutionGovernor* governor = nullptr;

  /// Worker threads. 0 (default) inherits the algorithm's own option where
  /// one exists (IncognitoOptions::num_threads) and means 1 everywhere
  /// else; values > 1 run algorithms with a parallel path across a worker
  /// pool. Single-threaded algorithms ignore the value.
  int num_threads = 0;

  /// Optional crash-safe checkpointing (robust/checkpoint.h): when set
  /// and enabled, the Incognito lattice search periodically spills its
  /// completed-unit progress to the policy's file and, under
  /// ResumeMode::kAuto/kRequire, warm-starts from an existing compatible
  /// checkpoint. Borrowed, like the governor; null disables. Algorithms
  /// without a checkpointable search ignore it.
  const CheckpointPolicy* checkpoint = nullptr;

  /// The legacy governed call, as a context: RunContext::Governed(g) ==
  /// old Run*(..., g).
  static RunContext Governed(ExecutionGovernor& governor,
                             int num_threads = 0) {
    RunContext ctx;
    ctx.governor = &governor;
    ctx.num_threads = num_threads;
    return ctx;
  }

  /// Convenience for thread-count-only contexts.
  static RunContext WithThreads(int num_threads) {
    RunContext ctx;
    ctx.num_threads = num_threads;
    return ctx;
  }

  // --- Fluent builders ----------------------------------------------------
  //
  // Each mutates this context and returns it, so assembling a context from
  // an execution profile (a JobSpec, CLI flags, bench flags) is one
  // expression:
  //
  //   RunContext ctx = RunContext::Governed(governor)
  //                        .WithDeadline(spec.deadline_ms)
  //                        .WithMemoryBudget(spec.memory_budget_bytes)
  //                        .WithCheckpoint(&policy);
  //
  // The budget builders pass "unset" sentinels through unchanged (negative
  // deadline, zero bytes, null pointers are no-ops), so optional fields
  // chain without conditionals. Copy the result — do not bind a reference
  // to a chain that started from a temporary.

  /// Attaches (borrows) the governor budgets are armed on.
  RunContext& WithGovernor(ExecutionGovernor& g) {
    governor = &g;
    return *this;
  }

  /// Arms a deadline `deadline_ms` milliseconds from now on the attached
  /// governor. Negative values mean "no deadline" and are a no-op; a zero
  /// deadline is already expired (forces an immediate trip). Requires a
  /// governor.
  RunContext& WithDeadline(int64_t deadline_ms) {
    if (deadline_ms >= 0) {
      assert(governor != nullptr && "WithDeadline needs a governor");
      governor->SetDeadline(Deadline::AfterMillis(deadline_ms));
    }
    return *this;
  }

  /// Arms a memory budget of `bytes` on the attached governor. Zero or
  /// negative means "unlimited" and is a no-op. Requires a governor.
  RunContext& WithMemoryBudget(int64_t bytes) {
    if (bytes > 0) {
      assert(governor != nullptr && "WithMemoryBudget needs a governor");
      governor->SetMemoryLimitBytes(bytes);
    }
    return *this;
  }

  /// Attaches a caller-owned cancellation token to the attached governor
  /// (null is a no-op). Requires a governor when non-null.
  RunContext& WithCancel(const CancelToken* token) {
    if (token != nullptr) {
      assert(governor != nullptr && "WithCancel needs a governor");
      governor->SetCancelToken(token);
    }
    return *this;
  }

  /// Sets the worker-thread count (0 defers to the algorithm's option).
  RunContext& WithWorkers(int n) {
    num_threads = n;
    return *this;
  }

  /// Attaches (borrows) a checkpoint policy; null or a disabled policy is
  /// a no-op, so `.WithCheckpoint(spec.checkpoint_policy())` chains
  /// unconditionally.
  RunContext& WithCheckpoint(const CheckpointPolicy* policy) {
    checkpoint = policy;
    return *this;
  }
};

}  // namespace incognito

#endif  // INCOGNITO_CORE_RUN_CONTEXT_H_
