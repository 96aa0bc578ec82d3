#ifndef INCOGNITO_RELATION_VIEW_H_
#define INCOGNITO_RELATION_VIEW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/table.h"

namespace incognito {

/// A column of a released view whose cells are replaced by label texts.
struct ViewLabels {
  /// The replaced column, as a source column index.
  size_t column = 0;
  /// The label texts the column's cells are drawn from.
  std::vector<std::string> labels;
  /// One index into `labels` per output row, in release order.
  std::vector<int32_t> label_of_row;
};

/// Builds a released view of `source`: its rows `rows` (source row
/// indices, in release order), with each column named in `replaced`
/// string-typed and holding its labels. Every other column keeps its type,
/// shares the source's dictionary and copies its codes. Each distinct label
/// text gets one code, in first-use order, so two labels that print the
/// same stay one value — the codes Table::AppendRow would assign.
///
/// This is the paper's release (§2, Fig. 4): T joined with its dimension
/// tables and projected, which on dictionary-encoded columns is one code
/// lookup per cell.
Table BuildView(const Table& source, const std::vector<size_t>& rows,
                std::vector<ViewLabels> replaced);

}  // namespace incognito

#endif  // INCOGNITO_RELATION_VIEW_H_
