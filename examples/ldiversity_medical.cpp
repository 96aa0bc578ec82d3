// ℓ-diversity extension demo: k-anonymity alone leaves a release open to
// homogeneity attacks — if every tuple in an equivalence class shares the
// same sensitive value, group size protects nothing. Distinct ℓ-diversity
// additionally requires ℓ distinct sensitive values per class. Because the
// criterion is monotone under generalization, Incognito's lattice search
// applies unchanged (the paper's §5/§7 "extending the algorithmic
// framework" future work; pursued by the ℓ-diversity follow-up papers).
//
// Build & run:  ./build/examples/ldiversity_medical

#include <cstdio>

#include "core/incognito.h"
#include "core/ldiversity.h"
#include "core/minimality.h"
#include "data/patients.h"
#include "hierarchy/builders.h"

using namespace incognito;

namespace {

/// A small clinic table where one zipcode neighbourhood shares a single
/// diagnosis — 2-anonymous, yet the diagnosis leaks.
Result<PatientsDataset> MakeClinicDataset() {
  Table table{Schema({{"Age", DataType::kInt64},
                      {"Zipcode", DataType::kInt64},
                      {"Diagnosis", DataType::kString}})};
  const struct {
    int64_t age;
    int64_t zip;
    const char* diagnosis;
  } rows[] = {
      {34, 53715, "Influenza"}, {36, 53715, "Influenza"},
      {33, 53715, "Influenza"}, {35, 53715, "Influenza"},
      {52, 53703, "Diabetes"},  {54, 53703, "Hepatitis"},
      {51, 53703, "Diabetes"},  {58, 53703, "Influenza"},
      {47, 53706, "Hepatitis"}, {42, 53706, "Diabetes"},
      {44, 53706, "Influenza"}, {49, 53706, "Hepatitis"},
  };
  for (const auto& r : rows) {
    INCOGNITO_RETURN_IF_ERROR(table.AppendRow(
        {Value(r.age), Value(r.zip), Value(r.diagnosis)}));
  }
  Result<ValueHierarchy> age =
      BuildIntervalHierarchy("Age", table.dictionary(0), {10, 20});
  if (!age.ok()) return age.status();
  Result<ValueHierarchy> zip = BuildDigitRoundingHierarchy(
      "Zipcode", table.dictionary(1), /*num_digits=*/5, /*levels=*/3);
  if (!zip.ok()) return zip.status();
  Result<QuasiIdentifier> qid = QuasiIdentifier::Create(
      table,
      {{"Age", std::move(age).value()}, {"Zipcode", std::move(zip).value()}});
  if (!qid.ok()) return qid.status();
  PatientsDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

}  // namespace

int main() {
  Result<PatientsDataset> clinic = MakeClinicDataset();
  if (!clinic.ok()) {
    fprintf(stderr, "setup failed: %s\n", clinic.status().ToString().c_str());
    return 1;
  }
  printf("Clinic microdata:\n%s\n", clinic->table.ToString().c_str());

  // k-anonymity alone.
  AnonymizationConfig kconfig;
  kconfig.k = 4;
  PartialResult<IncognitoResult> kanon =
      RunIncognito(clinic->table, clinic->qid, kconfig);
  if (!kanon.ok()) return 1;
  SubsetNode kmin = MinimalByHeight(kanon->anonymous_nodes).front();
  printf("Minimal 4-anonymous generalization: %s\n",
         kmin.ToString(&clinic->qid).c_str());

  // 4-anonymity plus distinct 3-diversity on Diagnosis.
  LDiversityConfig lconfig;
  lconfig.k = 4;
  lconfig.l = 3;
  lconfig.sensitive_attribute = "Diagnosis";

  // Inspect the 4-anonymous classes: the 53715 class is homogeneous. Each
  // class's groups over (Age, Zipcode, Diagnosis) give its size and its
  // distinct diagnoses.
  Result<DiversityKey> key =
      DiversityKey::Create(clinic->table, clinic->qid, lconfig);
  if (!key.ok()) return 1;
  Result<FrequencySet> kclasses = key->Compute(clinic->table, kmin);
  if (!kclasses.ok()) return 1;
  printf("Its equivalence classes (count / distinct diagnoses):\n");
  DiversityKey::ForEachClass(kclasses.value(),
                             [&](const int32_t* codes, int64_t count,
                                 int64_t distinct) {
    printf("  class [");
    for (size_t i = 0; i < clinic->qid.size(); ++i) {
      if (i > 0) printf(", ");
      printf("%s",
             clinic->qid.hierarchy(i)
                 .LevelValue(static_cast<size_t>(kmin.levels[i]), codes[i])
                 .ToString()
                 .c_str());
    }
    printf("]: %lld tuples, %lld distinct diagnoses%s\n",
           static_cast<long long>(count), static_cast<long long>(distinct),
           distinct == 1 ? "  <-- HOMOGENEOUS: diagnosis leaks!" : "");
  });

  // Now demand distinct 3-diversity as well.
  PartialResult<LDiversityResult> diverse =
      RunLDiversityIncognito(clinic->table, clinic->qid, lconfig);
  if (!diverse.ok()) {
    fprintf(stderr, "ldiversity failed: %s\n",
            diverse.status().ToString().c_str());
    return 1;
  }
  printf("\n(4-anonymous AND distinct 3-diverse) generalizations: %zu\n",
         diverse->diverse_nodes.size());
  for (const SubsetNode& node : diverse->diverse_nodes) {
    printf("  %s (height %d)\n", node.ToString(&clinic->qid).c_str(),
           node.Height());
  }
  if (!diverse->diverse_nodes.empty()) {
    SubsetNode lmin = MinimalByHeight(diverse->diverse_nodes).front();
    printf("Minimal choice %s classes:\n",
           lmin.ToString(&clinic->qid).c_str());
    Result<FrequencySet> lclasses = key->Compute(clinic->table, lmin);
    if (!lclasses.ok()) return 1;
    DiversityKey::ForEachClass(lclasses.value(),
                               [&](const int32_t* codes, int64_t count,
                                   int64_t distinct) {
      (void)codes;
      printf("  %lld tuples, %lld distinct diagnoses\n",
             static_cast<long long>(count), static_cast<long long>(distinct));
    });
  }
  printf(
      "\nThe diverse release generalizes further than plain k-anonymity "
      "requires,\nbut every class now carries at least 3 plausible "
      "diagnoses.\n");
  return 0;
}
