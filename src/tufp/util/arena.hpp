// Epoch-arena primitive: O(1) logical resets for per-epoch scratch.
//
// The serving hot path (ufp/detail/sp_cache.hpp) re-enters the same data
// structures every epoch. Rebuilding or memset-ing them costs
// O(universe) per epoch — exactly the snapshot-recompile overhead the
// persistent residual graph removes — so the per-epoch scratch follows
// one rule instead: a *generation counter* is bumped in O(1) and every
// slot whose recorded generation is stale reads as the reset value.
// ShortestPathEngine's label arrays (graph/dijkstra.hpp) apply the same
// rule in-place with their query-epoch counter; GenerationMap<T> packages
// it as a flat array with lazy generation-stamped entries. advance() is
// the whole reset; reads of untouched slots return the reset value
// without the array ever being rewritten. Used for the source->shard map
// rebuilt per epoch over a 10^5-vertex universe with only O(batch)
// distinct sources.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tufp {

// Flat map over a fixed universe [0, size) with O(1) bulk reset. A slot
// is "set" only in the current generation; stale slots read as the reset
// value. The generation counter wrap (once per 2^32 advances) triggers a
// hard re-stamp, so correctness never depends on the counter's width.
template <typename T>
class GenerationMap {
 public:
  GenerationMap() = default;
  GenerationMap(std::size_t size, T reset_value) {
    reset(size, reset_value);
  }

  // Resizes the universe and starts a fresh generation. O(size) only when
  // the universe actually grows (vector resize); otherwise O(1).
  void reset(std::size_t size, T reset_value) {
    reset_value_ = reset_value;
    if (values_.size() != size) {
      values_.assign(size, reset_value);
      stamps_.assign(size, 0);
      current_ = 1;
      return;
    }
    advance();
  }

  // Starts a new generation: every slot logically holds the reset value
  // again. O(1) except once per 2^32 calls (counter wrap re-stamp).
  void advance() {
    if (++current_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      current_ = 1;
    }
  }

  const T& get(std::size_t i) const {
    return stamps_[i] == current_ ? values_[i] : reset_value_;
  }

  void set(std::size_t i, const T& value) {
    values_[i] = value;
    stamps_[i] = current_;
  }

  std::size_t size() const { return values_.size(); }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t current_ = 0;
  T reset_value_{};
};

}  // namespace tufp
