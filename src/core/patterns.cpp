#include "core/patterns.h"

namespace dcprof::core {

VarPattern& VarPattern::operator+=(const VarPattern& o) {
  accesses += o.accesses;
  cold_lines += o.cold_lines;
  for (std::size_t l = 0; l < kNumMemLevels; ++l) {
    level_channel[l][0] += o.level_channel[l][0];
    level_channel[l][1] += o.level_channel[l][1];
  }
  for (std::size_t i = 0; i < kPatternBuckets; ++i) {
    reuse[i] += o.reuse[i];
    stride[i] += o.stride[i];
  }
  return *this;
}

std::uint64_t VarPattern::loads() const {
  std::uint64_t n = 0;
  for (std::size_t l = 0; l < kNumMemLevels; ++l) n += level_channel[l][0];
  return n;
}

std::uint64_t VarPattern::stores() const {
  std::uint64_t n = 0;
  for (std::size_t l = 0; l < kNumMemLevels; ++l) n += level_channel[l][1];
  return n;
}

std::uint64_t VarPattern::strides_recorded() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kPatternBuckets; ++i) n += stride[i];
  return n;
}

void PatternRecorder::memo_lookup(const VarPatternKey& key) {
  memo_key_ = key;
  memo_pattern_ = &table_->entry(key.cls, key.id);
  memo_runtime_ = &runtime_[key];
}

void PatternRecorder::LineTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
  data_ = slots_.data();
  mask_ = slots_.size() - 1;
  grow_at_ = slots_.size() / 2;
  for (const Slot& s : old) {
    if (s.key == 0) continue;
    std::size_t i =
        static_cast<std::size_t>((s.key - 1) * 0x9e3779b97f4a7c15ull) & mask_;
    while (slots_[i].key != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

void AccessPatternTable::merge_from(const AccessPatternTable& src,
                                    const Remap& remap) {
  for (const auto& [key, p] : src.vars_) {
    add(key.cls, remap(key.cls, key.id), p);
  }
}

}  // namespace dcprof::core
