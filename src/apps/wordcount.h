// word count — the canonical MapReduce job; one of the paper's four
// non-iterative evaluation applications (Fig. 6a, 8, 9).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "mr/types.h"

namespace eclipse::apps {

/// In-mapper combining: per-block partial counts shrink the shuffle. The
/// counts live in a flat open-addressing table (linear probing, power-of-two
/// size, load <= 1/2). A record view is valid only during Map, so a word's
/// bytes are copied into the mapper's arena on its first occurrence in the
/// block, and never again. Finish emits each word once, in first-seen
/// order, then empties the table for the next block; a word's values at
/// the reduce are still one per spill, in spill order.
class WordCountMapper : public mr::Mapper {
 public:
  WordCountMapper();
  void Map(std::string_view record, mr::MapContext& ctx) override;
  void Finish(mr::MapContext& ctx) override;

 private:
  struct Slot {
    std::string_view word;    // arena bytes; empty while the slot is free
    std::uint64_t count = 0;  // 0 = free
  };
  void Grow();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> order_;  // occupied slots, first-seen order
  Arena words_;
};

class WordCountReducer : public mr::Reducer {
 public:
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::ReduceContext& ctx) override;
};

/// A ready-to-submit JobSpec (caller sets name and input_file).
mr::JobSpec WordCountJob(std::string name, std::string input_file);

/// Serial oracle for tests: word -> count over the whole text.
std::map<std::string, std::uint64_t> WordCountSerial(const std::string& text);

}  // namespace eclipse::apps
