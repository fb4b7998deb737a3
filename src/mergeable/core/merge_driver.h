// Merge drivers: folding many per-shard summaries into one, under
// different merge-tree shapes.
//
// The central claim of "Mergeable summaries" is that a mergeable
// summary's guarantee is independent of the merge tree: a left-deep chain
// of 256 merges, a balanced reduction and a random tree must all produce
// a summary with the same epsilon * n bound. The drivers here make that
// claim testable: benchmark E1 sweeps topologies and checks the error is
// flat.

#ifndef MERGEABLE_CORE_MERGE_DRIVER_H_
#define MERGEABLE_CORE_MERGE_DRIVER_H_

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mergeable/core/concepts.h"
#include "mergeable/core/thread_pool.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable {

// Shape of the merge tree applied to the per-shard summaries.
enum class MergeTopology {
  // ((s0 + s1) + s2) + ... — maximally deep; the classic streaming
  // aggregation order.
  kLeftDeepChain,
  // Pairwise reduction rounds — the shape of hierarchical (e.g.
  // datacenter) aggregation, depth log2(m).
  kBalancedTree,
  // Uniformly random binary tree — models opportunistic gossip-style
  // aggregation.
  kRandomTree,
};

inline std::string ToString(MergeTopology topology) {
  switch (topology) {
    case MergeTopology::kLeftDeepChain:
      return "chain";
    case MergeTopology::kBalancedTree:
      return "balanced";
    case MergeTopology::kRandomTree:
      return "random";
  }
  return "unknown";
}

inline const MergeTopology kAllTopologies[] = {
    MergeTopology::kLeftDeepChain,
    MergeTopology::kBalancedTree,
    MergeTopology::kRandomTree,
};

namespace internal {

// Invokes `merge_fn(into, from)`, handing `from` over as an rvalue when
// the merge function can consume one. Move-aware merge functions
// (signature `(S&, S&&)`) may steal the consumed side's buffers; the
// classic `(S&, const S&)` signature keeps working unchanged. Every
// driver below consumes `from` permanently either way, so passing the
// rvalue is always safe.
template <typename S, typename MergeFn>
void InvokeMerge(MergeFn& merge_fn, S& into, S& from) {
  if constexpr (std::is_invocable_v<MergeFn&, S&, S&&>) {
    merge_fn(into, std::move(from));
  } else {
    merge_fn(into, from);
  }
}

}  // namespace internal

// Folds `parts` into a single summary using `merge_fn(into, from)` in the
// order dictated by `topology`. Consumes `parts` — every summary is moved,
// never copied, and the consumed side of each merge is passed as an
// rvalue when `merge_fn` accepts one (see internal::InvokeMerge). `rng`
// is required for kRandomTree (may be null otherwise).
template <typename S, typename MergeFn>
  requires std::movable<S>
S MergeAllWith(std::vector<S> parts, MergeTopology topology, MergeFn merge_fn,
               Rng* rng = nullptr) {
  MERGEABLE_CHECK_MSG(!parts.empty(), "MergeAll needs at least one summary");
  switch (topology) {
    case MergeTopology::kLeftDeepChain: {
      S result = std::move(parts.front());
      for (size_t i = 1; i < parts.size(); ++i) {
        internal::InvokeMerge(merge_fn, result, parts[i]);
      }
      return result;
    }
    case MergeTopology::kBalancedTree: {
      // In-place compaction: survivors of each round slide to the front
      // of `parts` instead of being moved into a fresh vector, so a
      // reduction over m parts performs exactly m - 1 merges and m - 1
      // element moves per round, zero copies and zero allocations.
      while (parts.size() > 1) {
        size_t out = 0;
        for (size_t i = 0; i + 1 < parts.size(); i += 2) {
          internal::InvokeMerge(merge_fn, parts[i], parts[i + 1]);
          if (out != i) parts[out] = std::move(parts[i]);
          ++out;
        }
        if (parts.size() % 2 == 1) {
          parts[out] = std::move(parts.back());
          ++out;
        }
        // erase (not resize): shrinking must not require the summary to
        // be default-constructible.
        parts.erase(parts.begin() + static_cast<ptrdiff_t>(out), parts.end());
      }
      return std::move(parts.front());
    }
    case MergeTopology::kRandomTree: {
      MERGEABLE_CHECK_MSG(rng != nullptr, "kRandomTree needs an Rng");
      while (parts.size() > 1) {
        const size_t a = rng->UniformInt(parts.size());
        size_t b = rng->UniformInt(parts.size() - 1);
        if (b >= a) ++b;
        internal::InvokeMerge(merge_fn, parts[a], parts[b]);
        std::swap(parts[b], parts.back());
        parts.pop_back();
      }
      return std::move(parts.front());
    }
  }
  MERGEABLE_CHECK_MSG(false, "unknown MergeTopology");
  return std::move(parts.front());
}

// MergeAllWith using the summary's own Merge method.
template <Mergeable S>
S MergeAll(std::vector<S> parts, MergeTopology topology, Rng* rng = nullptr) {
  return MergeAllWith(
      std::move(parts), topology,
      [](S& into, const S& from) { into.Merge(from); }, rng);
}

// ---- Parallel merge-reduce ----
//
// The paper's central theorem is that a mergeable summary's guarantee is
// independent of the merge tree — which makes the tree ours to choose.
// ParallelMergeAll chooses the balanced tree and runs each level's
// pairwise merges concurrently on a ThreadPool. Determinism falls out of
// two facts:
//
//   1. the tree *topology* is fixed (pairs (0,1), (2,3), ... per level,
//      identical to MergeAllWith(kBalancedTree)), so the same merges run
//      on the same operands no matter how many threads execute them;
//   2. all randomness is per-node, never shared: summaries with internal
//      RNGs (MergeableQuantiles) reseed them from content after each Merge,
//      and merge functions that want external randomness receive a seed
//      derived from the node's (level, index) position via MergeNodeSeed
//      — not from a shared generator whose consumption order would
//      depend on scheduling.
//
// Together these make ParallelMergeAll(parts, pool) byte-identical (via
// EncodeTo) to MergeAll(parts, kBalancedTree) for every summary type and
// every thread count; tests/core/parallel_merge_test.cc asserts exactly
// that.

// The RNG seed owned by the merge node at (level, index) of the balanced
// reduction tree, derived from a caller base seed. Pure position hash:
// independent of thread count and schedule.
inline uint64_t MergeNodeSeed(uint64_t base_seed, size_t level,
                              size_t index) {
  uint64_t state = base_seed ^ (uint64_t{0x9e3779b97f4a7c15} * (level + 1));
  state = SplitMix64(state);
  state ^= uint64_t{0xbf58476d1ce4e5b9} * (index + 1);
  return SplitMix64(state);
}

// Balanced-tree reduction of `parts` with per-level merges run on
// `pool`. `merge_fn` is invoked as merge_fn(into, from) — or, if it
// accepts a third uint64_t, as merge_fn(into, from, node_seed) with the
// MergeNodeSeed of the tree position being merged. Consumes `parts`;
// zero summary copies (see MergeAllWith). With a 1-thread pool this is
// the sequential balanced merge, bit for bit.
template <typename S, typename MergeFn>
  requires std::movable<S>
S ParallelMergeAllWith(std::vector<S> parts, ThreadPool& pool,
                       MergeFn merge_fn, uint64_t base_seed = 0) {
  MERGEABLE_CHECK_MSG(!parts.empty(), "MergeAll needs at least one summary");
  size_t level = 0;
  while (parts.size() > 1) {
    const size_t pairs = parts.size() / 2;
    pool.ParallelFor(pairs, [&parts, &merge_fn, base_seed, level](size_t p) {
      S& into = parts[2 * p];
      S& from = parts[2 * p + 1];
      if constexpr (std::is_invocable_v<MergeFn&, S&, S&, uint64_t>) {
        merge_fn(into, from, MergeNodeSeed(base_seed, level, p));
      } else {
        internal::InvokeMerge(merge_fn, into, from);
      }
    });
    // Compact survivors in place: parts[0, 2, 4, ...] plus an odd tail.
    size_t out = 0;
    for (size_t i = 0; i + 1 < parts.size(); i += 2) {
      if (out != i) parts[out] = std::move(parts[i]);
      ++out;
    }
    if (parts.size() % 2 == 1) {
      parts[out] = std::move(parts.back());
      ++out;
    }
    parts.erase(parts.begin() + static_cast<ptrdiff_t>(out), parts.end());
    ++level;
  }
  return std::move(parts.front());
}

// ParallelMergeAllWith using the summary's own Merge method.
template <Mergeable S>
S ParallelMergeAll(std::vector<S> parts, ThreadPool& pool) {
  return ParallelMergeAllWith(
      std::move(parts), pool,
      [](S& into, const S& from) { into.Merge(from); });
}

// Builds one summary per shard: `factory()` creates an empty summary,
// which then consumes every item of its shard via Update.
template <typename Item, typename Factory>
auto SummarizeShards(const std::vector<std::vector<Item>>& shards,
                     Factory factory)
    -> std::vector<decltype(factory())> {
  using S = decltype(factory());
  static_assert(StreamSummary<S, Item>);
  std::vector<S> summaries;
  summaries.reserve(shards.size());
  for (const std::vector<Item>& shard : shards) {
    S summary = factory();
    for (const Item& item : shard) summary.Update(item);
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

}  // namespace mergeable

#endif  // MERGEABLE_CORE_MERGE_DRIVER_H_
