#ifndef INCOGNITO_INCOGNITO_H_
#define INCOGNITO_INCOGNITO_H_

/// Umbrella header: the library's full public API in one include.
/// Fine-grained headers remain available for faster builds.

#include "common/random.h"        // IWYU pragma: export
#include "common/status.h"        // IWYU pragma: export
#include "common/stopwatch.h"     // IWYU pragma: export
#include "common/strings.h"       // IWYU pragma: export
#include "core/binary_search.h"   // IWYU pragma: export
#include "core/bottom_up.h"       // IWYU pragma: export
#include "core/checker.h"         // IWYU pragma: export
#include "core/incognito.h"       // IWYU pragma: export
#include "core/ldiversity.h"      // IWYU pragma: export
#include "core/matrix_checker.h"  // IWYU pragma: export
#include "core/minimality.h"      // IWYU pragma: export
#include "core/quasi_identifier.h"  // IWYU pragma: export
#include "core/recoder.h"         // IWYU pragma: export
#include "core/star_schema.h"     // IWYU pragma: export
#include "data/adults.h"          // IWYU pragma: export
#include "data/dataset.h"         // IWYU pragma: export
#include "data/landsend.h"        // IWYU pragma: export
#include "data/patients.h"        // IWYU pragma: export
#include "freq/cube.h"            // IWYU pragma: export
#include "freq/frequency_set.h"   // IWYU pragma: export
#include "freq/key_codec.h"       // IWYU pragma: export
#include "hierarchy/builders.h"   // IWYU pragma: export
#include "hierarchy/csv_hierarchy.h"  // IWYU pragma: export
#include "hierarchy/hierarchy.h"  // IWYU pragma: export
#include "hierarchy/validation.h"  // IWYU pragma: export
#include "lattice/candidate_gen.h"  // IWYU pragma: export
#include "lattice/dot_export.h"   // IWYU pragma: export
#include "lattice/graph_tables.h"  // IWYU pragma: export
#include "lattice/hash_tree.h"    // IWYU pragma: export
#include "lattice/lattice.h"      // IWYU pragma: export
#include "lattice/node.h"         // IWYU pragma: export
#include "metrics/metrics.h"      // IWYU pragma: export
#include "metrics/query_error.h"  // IWYU pragma: export
#include "models/cell_generalization.h"  // IWYU pragma: export
#include "models/cell_suppression.h"  // IWYU pragma: export
#include "models/datafly.h"       // IWYU pragma: export
#include "models/koptimize.h"     // IWYU pragma: export
#include "models/mondrian.h"      // IWYU pragma: export
#include "models/ordered_set.h"   // IWYU pragma: export
#include "models/subgraph.h"      // IWYU pragma: export
#include "models/subtree.h"       // IWYU pragma: export
#include "relation/binary_io.h"   // IWYU pragma: export
#include "relation/csv.h"         // IWYU pragma: export
#include "relation/dictionary.h"  // IWYU pragma: export
#include "relation/ops.h"         // IWYU pragma: export
#include "relation/schema.h"      // IWYU pragma: export
#include "relation/table.h"       // IWYU pragma: export
#include "relation/value.h"       // IWYU pragma: export
#include "service/job_spec.h"     // IWYU pragma: export
#include "service/problem_loader.h"  // IWYU pragma: export
#include "service/server.h"       // IWYU pragma: export
#include "service/service.h"      // IWYU pragma: export

#endif  // INCOGNITO_INCOGNITO_H_
