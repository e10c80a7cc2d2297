// sort — order records by their first field (paper Fig. 6a, 8, 9; the
// paper uses sort to stress the shuffle phase). Mappers emit (key, rest);
// the identity reduce plus the runner's merge of the key-sorted per-range
// outputs yields the fully sorted dataset.
#pragma once

#include <string>
#include <vector>

#include "mr/types.h"

namespace eclipse::apps {

class SortMapper : public mr::Mapper {
 public:
  void Map(std::string_view record, mr::MapContext& ctx) override;
};

class SortReducer : public mr::Reducer {
 public:
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::ReduceContext& ctx) override;
};

mr::JobSpec SortJob(std::string name, std::string input_file);

/// Serial oracle: lines sorted by first whitespace-delimited field.
std::vector<std::string> SortSerial(const std::string& text);

}  // namespace eclipse::apps
