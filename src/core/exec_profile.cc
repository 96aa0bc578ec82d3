#include "core/exec_profile.h"

namespace incognito {

RunContext ExecProfile::MakeContext(ExecutionGovernor* governor) const {
  RunContext ctx;
  if (governed()) {
    ctx.WithGovernor(*governor)
        .WithDeadline(deadline_ms)
        .WithMemoryBudget(memory_budget_bytes)
        .WithCancel(cancel);
  }
  return ctx.WithWorkers(num_threads)
      .WithSubstrate(substrate)
      .WithCheckpoint(checkpoint.enabled() ? &checkpoint : nullptr);
}

}  // namespace incognito
