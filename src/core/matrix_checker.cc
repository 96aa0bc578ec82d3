#include "core/matrix_checker.h"

#include <numeric>

#include "common/strings.h"
#include "freq/frequency_set.h"

namespace incognito {

Result<DistanceVectorMatrix> DistanceVectorMatrix::Build(
    const Table& table, const QuasiIdentifier& qid) {
  const size_t n = qid.size();
  if (n == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  // Distinct base tuples with multiplicities, via the level-0 frequency
  // set (one scan).
  std::vector<int32_t> dims(n);
  std::iota(dims.begin(), dims.end(), 0);
  Result<FrequencySet> scanned = FrequencySet::TryCompute(
      table, qid, SubsetNode(dims, std::vector<int32_t>(n, 0)));
  if (!scanned.ok()) return scanned.status();
  const FrequencySet& freq = scanned.value();

  DistanceVectorMatrix matrix;
  matrix.num_dims_ = n;
  std::vector<std::vector<int32_t>> tuples;
  tuples.reserve(freq.NumGroups());
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    tuples.emplace_back(codes, codes + n);
    matrix.counts_.push_back(count);
  });
  const size_t distinct = tuples.size();
  // Guard against accidental use on large inputs: the matrix alone would
  // be distinct² · n · 4 bytes.
  if (distinct > 20000) {
    return Status::FailedPrecondition(StringPrintf(
        "distance-vector matrix over %zu distinct tuples would need ~%.1f "
        "GB; use frequency-set checking instead (see paper footnote 2)",
        distinct,
        static_cast<double>(distinct) * static_cast<double>(distinct) *
            static_cast<double>(n) * 4.0 / 1e9));
  }

  matrix.dv_.assign(distinct * distinct * n, 0);
  for (size_t i = 0; i < distinct; ++i) {
    for (size_t j = i + 1; j < distinct; ++j) {
      int32_t* out = &matrix.dv_[(i * distinct + j) * n];
      for (size_t d = 0; d < n; ++d) {
        const ValueHierarchy& h = qid.hierarchy(d);
        int32_t a = tuples[i][d];
        int32_t b = tuples[j][d];
        // Lowest level at which the two values coincide.
        int32_t level = 0;
        while (h.Generalize(a, static_cast<size_t>(level)) !=
               h.Generalize(b, static_cast<size_t>(level))) {
          ++level;
        }
        out[d] = level;
      }
      // Mirror for O(1) symmetric access.
      int32_t* mirror = &matrix.dv_[(j * distinct + i) * n];
      for (size_t d = 0; d < n; ++d) mirror[d] = out[d];
    }
  }
  return matrix;
}

bool DistanceVectorMatrix::IsKAnonymous(
    const SubsetNode& node, const AnonymizationConfig& config) const {
  const size_t distinct = counts_.size();
  int64_t violating = 0;
  for (size_t i = 0; i < distinct; ++i) {
    int64_t support = counts_[i];
    for (size_t j = 0; j < distinct && support < config.k; ++j) {
      if (j == i) continue;
      const int32_t* dv = VectorAt(i, j);
      bool merged = true;
      for (size_t d = 0; d < num_dims_; ++d) {
        if (dv[d] > node.levels[d]) {
          merged = false;
          break;
        }
      }
      if (merged) support += counts_[j];
    }
    if (support < config.k) violating += counts_[i];
  }
  return violating <= config.max_suppressed;
}

}  // namespace incognito
