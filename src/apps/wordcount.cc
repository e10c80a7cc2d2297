#include "apps/wordcount.h"

#include <utility>

#include "apps/text_util.h"
#include "common/hash_key.h"

namespace eclipse::apps {

namespace {
constexpr std::size_t kInitialSlots = 1024;  // a power of two
}  // namespace

WordCountMapper::WordCountMapper() : slots_(kInitialSlots) {
  order_.reserve(kInitialSlots / 2 + 1);
}

void WordCountMapper::Map(std::string_view record, mr::MapContext& ctx) {
  (void)ctx;
  ForEachWord(record, [this](std::string_view word) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = TableHash(word) & mask;
    for (; slots_[i].count != 0; i = (i + 1) & mask) {
      if (slots_[i].word == word) {
        ++slots_[i].count;
        return;
      }
    }
    slots_[i] = Slot{words_.CopyString(word), 1};
    order_.push_back(static_cast<std::uint32_t>(i));
    if (2 * order_.size() > slots_.size()) Grow();
  });
}

void WordCountMapper::Grow() {
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t& idx : order_) {
    std::size_t i = TableHash(old[idx].word) & mask;
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = old[idx];
    idx = static_cast<std::uint32_t>(i);
  }
  order_.reserve(slots_.size() / 2 + 1);
}

void WordCountMapper::Finish(mr::MapContext& ctx) {
  for (std::uint32_t idx : order_) {
    ctx.Emit(slots_[idx].word, FormatU64(slots_[idx].count).view());
    slots_[idx] = Slot{};
  }
  order_.clear();
  words_.Reset();
}

void WordCountReducer::Reduce(std::string_view key, const std::vector<std::string_view>& values,
                              mr::ReduceContext& ctx) {
  std::uint64_t total = 0;
  for (std::string_view v : values) total += ParseU64(v);
  ctx.Emit(key, FormatU64(total).view());
}

mr::JobSpec WordCountJob(std::string name, std::string input_file) {
  mr::JobSpec spec;
  spec.name = std::move(name);
  spec.input_file = std::move(input_file);
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer = [] { return std::make_unique<WordCountReducer>(); };
  return spec;
}

std::map<std::string, std::uint64_t> WordCountSerial(const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  for (auto& word : SplitWords(text)) ++counts[std::move(word)];
  return counts;
}

}  // namespace eclipse::apps
