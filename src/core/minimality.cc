#include "core/minimality.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace incognito {

std::vector<SubsetNode> MinimalByHeight(const std::vector<SubsetNode>& nodes) {
  std::vector<SubsetNode> out;
  int32_t best = std::numeric_limits<int32_t>::max();
  for (const SubsetNode& n : nodes) {
    int32_t h = n.Height();
    if (h < best) {
      best = h;
      out.clear();
    }
    if (h == best) out.push_back(n);
  }
  return out;
}

Result<std::vector<SubsetNode>> MinimalByWeight(
    const std::vector<SubsetNode>& nodes, const std::vector<double>& weights,
    const QuasiIdentifier& qid) {
  if (weights.size() != qid.size()) {
    return Status::InvalidArgument(
        "weights must have one entry per quasi-identifier attribute");
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!std::isfinite(weights[i])) {
      return Status::InvalidArgument(StringPrintf(
          "weight %g for attribute '%s' is not a finite number", weights[i],
          qid.name(i).c_str()));
    }
  }
  std::vector<SubsetNode> out;
  double best = std::numeric_limits<double>::infinity();
  for (const SubsetNode& n : nodes) {
    if (n.size() != qid.size()) {
      return Status::InvalidArgument(
          "nodes must be full-quasi-identifier generalizations");
    }
    double cost = 0;
    for (size_t i = 0; i < n.size(); ++i) {
      size_t height = qid.hierarchy(static_cast<size_t>(n.dims[i])).height();
      if (height > 0) {
        cost += weights[i] * static_cast<double>(n.levels[i]) /
                static_cast<double>(height);
      }
    }
    if (cost < best - 1e-12) {
      best = cost;
      out.clear();
      out.push_back(n);
    } else if (cost <= best + 1e-12) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<SubsetNode> ParetoMinimal(const std::vector<SubsetNode>& nodes) {
  std::vector<SubsetNode> out;
  for (const SubsetNode& candidate : nodes) {
    bool dominated = false;
    for (const SubsetNode& other : nodes) {
      if (!(other == candidate) && other.IsGeneralizedBy(candidate)) {
        // `candidate` is a strict generalization of `other`: not minimal.
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(candidate);
  }
  return out;
}

}  // namespace incognito
