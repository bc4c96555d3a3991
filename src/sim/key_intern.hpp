// Order-preserving key interning: the compact-lane representation behind
// the engine's tournament kernels.
//
// A tournament round never creates key values — it only
// copies and compares them — so the whole evolving state is a multiset over
// the distinct keys of the *initial* state.  Interning builds the sorted
// dictionary of those distinct keys once and replaces every state entry by
// its 32-bit rank.  Because the map rank -> key is strictly increasing,
// rank comparisons decide exactly as key comparisons do: min / max /
// median-of-three / nth_element over ranks commit the same values the
// Key-typed kernels would, bit for bit.  What changes is purely the memory
// traffic: a random peer gather touches a 4-byte lane entry instead of a
// Key-sized record, so one cache line now serves 16 peers instead of 2 —
// the difference between a latency-bound pointer chase and a prefetchable
// stream at n = 10^6..10^7.
//
// Duplicates are fine (the exact pipeline's instances carry many identical
// Key::infinite() entries): equal keys share a rank, and since equal keys
// are interchangeable everywhere the protocols compare them, collapsing
// them is unobservable.
//
// All buffers are pooled: a warmed-up interner's intern() performs no heap
// allocation, which the engine's steady-state allocation tests rely on
// (kernels hold their interner in Engine::scratch).
//
// Long-lived sessions (src/service/) additionally use extend(): instead of
// re-sorting all n keys when an epoch appends a few new distinct keys, the
// newly appeared keys are merged into the existing sorted table and every
// lane is re-ranked by binary search — O(a log a + n log d) against
// intern()'s O(n log n) sort.  The table is then allowed to be a *superset*
// of the state's distinct keys: rank order is still key order and every
// state key still maps through the table, so protocols decide and
// materialise identically; only the (unobserved) rank values differ.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"
#include "util/require.hpp"

namespace gq {

class KeyInterner {
 public:
  // Builds the dictionary for `keys` and writes ranks[v] = the rank of
  // keys[v] in the sorted distinct-key table.  O(n log n) once per interned
  // state — amortised over the dozens of gather rounds the compact lanes
  // then serve.
  void intern(std::span<const Key> keys, std::span<std::uint32_t> ranks) {
    GQ_REQUIRE(keys.size() == ranks.size(),
               "one rank slot per interned key required");
    const std::size_t n = keys.size();
    if (sort_buf_.size() < n) sort_buf_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      sort_buf_[v] = Entry{keys[v], static_cast<std::uint32_t>(v)};
    }
    std::sort(sort_buf_.begin(), sort_buf_.begin() + static_cast<std::ptrdiff_t>(n),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    table_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (table_.empty() || table_.back() != sort_buf_[i].key) {
        table_.push_back(sort_buf_[i].key);
      }
      ranks[sort_buf_[i].node] =
          static_cast<std::uint32_t>(table_.size() - 1);
    }
  }

  // Incremental session extension: merges `added` (any multiset; duplicates
  // and keys already in the table are fine) into the sorted dictionary, then
  // writes ranks[v] for every keys[v] by binary search.  Bit-identical rank
  // semantics to intern() — rank order is table order — except that keys
  // retired from the state stay in the table as harmless stale entries
  // (see the header comment).  Every keys[v] must be findable, i.e. present
  // in the old table or in `added`.  O(a log a + d + n log d).
  void extend(std::span<const Key> added, std::span<const Key> keys,
              std::span<std::uint32_t> ranks) {
    GQ_REQUIRE(keys.size() == ranks.size(),
               "one rank slot per interned key required");
    if (add_buf_.size() < added.size()) add_buf_.resize(added.size());
    std::copy(added.begin(), added.end(), add_buf_.begin());
    const auto add_end =
        add_buf_.begin() + static_cast<std::ptrdiff_t>(added.size());
    std::sort(add_buf_.begin(), add_end);
    // Set-union merge of two sorted ranges into the pooled merge buffer;
    // both inputs may carry duplicates of each other.
    merge_buf_.clear();
    merge_buf_.reserve(table_.size() + added.size());
    auto t = table_.begin();
    auto a = add_buf_.begin();
    while (t != table_.end() || a != add_end) {
      const Key* next = nullptr;
      if (a == add_end || (t != table_.end() && *t <= *a)) {
        next = &*t++;
      } else {
        next = &*a++;
      }
      if (merge_buf_.empty() || merge_buf_.back() != *next) {
        merge_buf_.push_back(*next);
      }
    }
    table_.swap(merge_buf_);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      ranks[v] = rank_of(keys[v]);
    }
  }

  // Replaces the dictionary with an externally maintained sorted table
  // (the engine-side half of a session hand-off; see
  // engine/kernels.hpp: adopt_intern_session).
  void adopt(std::span<const Key> table) {
    for (std::size_t i = 1; i < table.size(); ++i) {
      GQ_REQUIRE(table[i - 1] < table[i],
                 "adopted intern table must be sorted and distinct");
    }
    table_.assign(table.begin(), table.end());
  }

  // Rank of a key that is present in the table.
  [[nodiscard]] std::uint32_t rank_of(const Key& key) const {
    const auto it = std::lower_bound(table_.begin(), table_.end(), key);
    GQ_REQUIRE(it != table_.end() && *it == key,
               "rank_of: key missing from the interned table");
    return static_cast<std::uint32_t>(it - table_.begin());
  }

  // Number of table keys <= z: with state held as rank lanes, the
  // state-level indicator keys[v] <= z is exactly lane[v] < count_le(z) —
  // one integer compare per node against a single binary search.
  [[nodiscard]] std::uint32_t count_le(const Key& z) const noexcept {
    return static_cast<std::uint32_t>(
        std::upper_bound(table_.begin(), table_.end(), z) - table_.begin());
  }

  // The sorted distinct-key dictionary of the last intern() call.
  [[nodiscard]] std::span<const Key> table() const noexcept {
    return {table_.data(), table_.size()};
  }

  [[nodiscard]] const Key& key_at(std::uint32_t rank) const noexcept {
    return table_[rank];
  }

 private:
  struct Entry {
    Key key;
    std::uint32_t node;
  };

  std::vector<Entry> sort_buf_;
  std::vector<Key> table_;
  std::vector<Key> add_buf_, merge_buf_;  // extend() scratch
};

}  // namespace gq
