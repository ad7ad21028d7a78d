/// \file
/// \brief 4-ary min-heap: the fallback of the solvers' bucket queues.
///
/// Every solver normally queues through `BucketQueue`
/// (sim/bucket_queue.hpp). A batch whose snapshot no fixed-point plan fits
/// takes this heap instead: the delay solver's `relax_heap` (sim/batch.cpp)
/// on a zero-latency link or an edgeless graph, the announce solver on a
/// zero-control link or an edgeless graph, and the egress solver
/// (sim/egress.cpp) on a zero-δ link, a zero-rate sender or a rate so small
/// its finish times outrun the u32 grid. The heap pops in the item's
/// `operator<` order — the same total order as the bucket queue
/// (`std::priority_queue<pair, greater<>>` order for the delay solver,
/// (time, seq) for the egress solver's `EgressEvent`, (time, to, from) for
/// the announce solver's `AnnounceEntry`), so which one ran never changes a
/// byte. d=4
/// halves the tree height of a binary heap and keeps each child scan in one
/// cache line.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/types.hpp"

namespace perigee::sim {

inline constexpr std::size_t kHeapArity = 4;

/// One delay-relaxation element: (arrival-time key, node). The functions
/// below are templated over the item type so the egress and announce
/// solvers can queue their own entries; the item's `operator<` defines the
/// order.
using HeapItem = std::pair<double, net::NodeId>;

/// Sift-up insertion. The item parameter is a non-deduced context so braced
/// initializers keep working at call sites; `Item` comes from the vector.
template <typename Item>
inline void heap_push(std::vector<Item>& heap,
                      std::type_identity_t<Item> item) {
  std::size_t i = heap.size();
  heap.push_back(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!(item < heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = item;
}

/// Pops the lexicographic minimum. Precondition: `!heap.empty()`.
template <typename Item>
inline Item heap_pop(std::vector<Item>& heap) {
  const Item top = heap.front();
  const Item last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return top;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap[c] < heap[best]) best = c;
    }
    if (!(heap[best] < last)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;
  return top;
}

}  // namespace perigee::sim
