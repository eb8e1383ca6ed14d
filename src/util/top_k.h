// Bounded top-k selection shared by every ranking cut: the serving
// shard, the clustering evaluation and the RAG dense retriever.
// Candidate pools can be hundreds of times k, so the cut keeps a size-k
// heap instead of ordering the whole pool.
#ifndef TABBIN_UTIL_TOP_K_H_
#define TABBIN_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tabbin {

/// \brief The indices of the k best items among [0, n), best first.
///
/// `better(i, j)` must be a strict total order over the indices that is
/// true when item i ranks ahead of item j. Under a total order the k
/// winners and their order are unique, so the result equals sorting all
/// n indices by `better` and truncating to k, element for element. Cost
/// is O(n + m log k) for m heap replacements: an item that loses to the
/// current k-th best costs one comparison.
template <typename Better>
std::vector<size_t> SelectTopK(size_t n, size_t k, const Better& better) {
  std::vector<size_t> heap;
  if (k == 0) return heap;
  heap.reserve(std::min(n, k));
  // Under `better` as the heap's "less", the front is the worst kept.
  for (size_t i = 0; i < n; ++i) {
    if (heap.size() < k) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(i, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = i;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace tabbin

#endif  // TABBIN_UTIL_TOP_K_H_
