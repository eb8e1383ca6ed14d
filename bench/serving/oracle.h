// Exact references for serving_bench's correctness checks: the
// accessor embeddings of every live table, a brute-force top-k over
// them, and byte-level response comparison.
#ifndef TABBIN_BENCH_SERVING_ORACLE_H_
#define TABBIN_BENCH_SERVING_ORACLE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/serving/loadgen.h"
#include "service/service_types.h"
#include "tensor/embedding_matrix.h"

namespace tabbin {
namespace servingbench {

/// TableEmbedding / ColumnEmbedding of every live table, computed
/// through the serving accessors (the exact path the indexes are built
/// from), so stored rows and these rows are the same bits.
struct Embeddings {
  std::vector<const Table*> tables;  // row i of `tbl`
  EmbeddingMatrix tbl;
  EmbeddingMatrix col;  // data columns, per table in ascending grid order
  std::vector<std::pair<int, int>> col_refs;  // col row -> (table row, col)
  std::vector<int> col_begin;                 // table row -> first col row
  std::unordered_map<std::string, int> row_of;  // table id -> table row

  /// Row of data column `col` of table row `t` in `col`.
  int ColumnRow(int t, int col) const;
};

/// Splits the accessor calls over `threads` worker threads.
Embeddings ComputeEmbeddings(TabBinServing& serving,
                             std::vector<const Table*> live, int threads);

/// One exact neighbour: a table (col == -1) or a data column.
struct Hit {
  float score = 0;
  int table = 0;  // table row in Embeddings
  int col = -1;
};

/// Serving order between two hits of the same task: score descending,
/// then table id, then column.
bool HitBefore(const Embeddings& e, const Hit& a, const Hit& b);

/// |got ∩ exact| / |exact|, matching on (table, col); 1 when `exact`
/// is empty.
double Overlap(const std::vector<Hit>& got, const std::vector<Hit>& exact);

/// Exact top-k by cosine over every table (or every data column),
/// skipping the excluded item, in the serving order: score descending,
/// then table id, then column.
std::vector<Hit> ExactTopK(const Embeddings& e, bool columns, VecView q,
                           int exclude_table, int exclude_col, int k);

struct RecallReport {
  double recall = 0;  // mean |served top-10 ∩ exact top-10| / |exact|
  int queries = 0;
  int mismatches = 0;  // failed calls, wrong scores, order violations
};

/// Issues `queries` seeded id-addressed SimilarTables/SimilarColumns
/// calls against corpus tables and scores them against ExactTopK. Every
/// served score must equal the exact score of that item bit for bit.
RecallReport CheckRecall(const TabBinServing& serving, const Embeddings& e,
                         const Inputs& in, uint64_t seed, int queries);

/// Byte equality: candidates, match order, every field, score bits.
bool SameResponse(const QueryResponse& a, const QueryResponse& b);

}  // namespace servingbench
}  // namespace tabbin

#endif  // TABBIN_BENCH_SERVING_ORACLE_H_
