#include "relation/view.h"

#include <cassert>
#include <memory>
#include <utility>

namespace incognito {

Table BuildView(const Table& source, const std::vector<size_t>& rows,
                std::vector<ViewLabels> replaced) {
  const size_t num_columns = source.num_columns();
  std::vector<ColumnSpec> specs(source.schema().columns());
  std::vector<std::shared_ptr<Dictionary>> dictionaries(num_columns);
  std::vector<std::vector<int32_t>> columns(num_columns);
  for (ViewLabels& labeled : replaced) {
    assert(dictionaries[labeled.column] == nullptr);
    assert(labeled.label_of_row.size() == rows.size());
    specs[labeled.column].type = DataType::kString;
    auto dictionary = std::make_shared<Dictionary>();
    // Each label index becomes its text's code in place.
    std::vector<int32_t> code_of_label(labeled.labels.size(), -1);
    for (int32_t& cell : labeled.label_of_row) {
      int32_t& code = code_of_label[static_cast<size_t>(cell)];
      if (code < 0) {
        code = dictionary->GetOrInsert(
            Value(std::move(labeled.labels[static_cast<size_t>(cell)])));
      }
      cell = code;
    }
    dictionaries[labeled.column] = std::move(dictionary);
    columns[labeled.column] = std::move(labeled.label_of_row);
  }
  for (size_t c = 0; c < num_columns; ++c) {
    if (dictionaries[c] != nullptr) continue;
    dictionaries[c] = source.shared_dictionary(c);
    const int32_t* codes = source.ColumnCodes(c).data();
    columns[c].resize(rows.size());
    for (size_t j = 0; j < rows.size(); ++j) columns[c][j] = codes[rows[j]];
  }
  return Table::FromColumns(Schema(std::move(specs)), std::move(dictionaries),
                            std::move(columns));
}

}  // namespace incognito
