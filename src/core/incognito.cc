#include "core/incognito.h"

#include <algorithm>

#include "common/strings.h"
#include "core/parallel.h"

namespace incognito {

const char* IncognitoVariantName(IncognitoVariant variant) {
  switch (variant) {
    case IncognitoVariant::kBasic:
      return "Basic Incognito";
    case IncognitoVariant::kSuperRoots:
      return "Super-roots Incognito";
    case IncognitoVariant::kCube:
      return "Cube Incognito";
  }
  return "Incognito";
}

PartialResult<IncognitoResult> RunIncognito(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const IncognitoOptions& options,
                                            const RunContext& ctx) {
  if (config.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (config.max_suppressed < 0) {
    return Status::InvalidArgument("max_suppressed must be >= 0");
  }
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  if (qid.size() > kMaxQidAttributes) {
    return Status::InvalidArgument(StringPrintf(
        "quasi-identifier has %zu attributes; at most %zu are supported",
        qid.size(), kMaxQidAttributes));
  }
  if (options.variant == IncognitoVariant::kCube &&
      qid.size() > kMaxCubeQidAttributes) {
    return Status::InvalidArgument(StringPrintf(
        "quasi-identifier has %zu attributes; Cube Incognito supports at "
        "most %zu",
        qid.size(), kMaxCubeQidAttributes));
  }
  const int num_threads = std::max(
      1, ctx.num_threads > 0 ? ctx.num_threads : options.num_threads);
  // A non-kAuto context substrate overrides the option, mirroring the
  // thread-count precedence above.
  IncognitoOptions effective = options;
  if (ctx.substrate != SubstrateMode::kAuto) {
    effective.substrate = ctx.substrate;
  }
  return RunSubsetDag(table, qid, config, effective, ctx.governor,
                      num_threads, ctx.checkpoint);
}

}  // namespace incognito
