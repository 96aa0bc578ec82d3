#ifndef INCOGNITO_CORE_MINIMALITY_H_
#define INCOGNITO_CORE_MINIMALITY_H_

#include <vector>

#include "common/status.h"
#include "core/quasi_identifier.h"
#include "lattice/node.h"

namespace incognito {

/// Minimality selectors over the complete result set Incognito produces.
/// Because Incognito is sound and complete, "the minimal may be chosen
/// according to any criteria" (paper §3.2); these are the criteria
/// discussed in §2.1.

/// Samarati/Sweeney minimality: the generalizations whose height (sum of
/// the distance vector) is minimal. Returns the empty vector for empty
/// input.
std::vector<SubsetNode> MinimalByHeight(const std::vector<SubsetNode>& nodes);

/// User-defined weighted minimality (§2.1: "users would want the
/// flexibility to introduce their own, possibly application-specific,
/// notions of minimality"): cost(v) = Σ_i weights[i] · levels[i] /
/// hierarchy height_i (normalizing so each attribute contributes its
/// weight at full generalization). Returns the nodes of minimal cost.
/// Requires weights.size() == qid.size(), every weight finite (a NaN or
/// infinite one is InvalidArgument, naming its attribute), and all nodes
/// over the full QID.
Result<std::vector<SubsetNode>> MinimalByWeight(
    const std::vector<SubsetNode>& nodes, const std::vector<double>& weights,
    const QuasiIdentifier& qid);

/// The antichain of lattice-minimal results: nodes with no other result
/// strictly below them in the generalization order. Every other result is
/// an (implied) generalization of one of these.
std::vector<SubsetNode> ParetoMinimal(const std::vector<SubsetNode>& nodes);

}  // namespace incognito

#endif  // INCOGNITO_CORE_MINIMALITY_H_
