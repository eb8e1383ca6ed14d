#include "bench/serving/oracle.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/rng.h"

namespace tabbin {
namespace servingbench {

namespace {

bool SameFloat(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool HitBefore(const Embeddings& e, const Hit& a, const Hit& b) {
  if (a.score != b.score) return a.score > b.score;
  const std::string& ida = e.tables[static_cast<size_t>(a.table)]->id();
  const std::string& idb = e.tables[static_cast<size_t>(b.table)]->id();
  if (ida != idb) return ida < idb;
  return a.col < b.col;
}

double Overlap(const std::vector<Hit>& got, const std::vector<Hit>& exact) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (const Hit& x : exact) {
    for (const Hit& g : got) {
      if (g.table == x.table && g.col == x.col) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

int Embeddings::ColumnRow(int t, int c) const {
  const Table& table = *tables[static_cast<size_t>(t)];
  return col_begin[static_cast<size_t>(t)] + (c - table.vmd_cols());
}

Embeddings ComputeEmbeddings(TabBinServing& serving,
                             std::vector<const Table*> live, int threads) {
  Embeddings e;
  e.tables = std::move(live);
  const size_t n = e.tables.size();
  std::vector<std::vector<float>> tvec(n);
  std::vector<std::vector<std::vector<float>>> cvec(n);
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = static_cast<size_t>(w); i < n;
           i += static_cast<size_t>(threads)) {
        const Table& t = *e.tables[i];
        tvec[i] = serving.TableEmbedding(t);
        for (int c = t.vmd_cols(); c < t.cols(); ++c) {
          cvec[i].push_back(serving.ColumnEmbedding(t, c));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  e.col_begin.resize(n);
  for (size_t i = 0; i < n; ++i) {
    e.row_of[e.tables[i]->id()] = static_cast<int>(i);
    e.tbl.AppendRow(tvec[i]);
    e.col_begin[i] = static_cast<int>(e.col_refs.size());
    const int vmd = e.tables[i]->vmd_cols();
    for (size_t c = 0; c < cvec[i].size(); ++c) {
      e.col.AppendRow(cvec[i][c]);
      e.col_refs.emplace_back(static_cast<int>(i), vmd + static_cast<int>(c));
    }
  }
  return e;
}

namespace {

std::vector<float> ScoreAll(const Embeddings& e, bool columns, VecView q) {
  const EmbeddingMatrix& m = columns ? e.col : e.tbl;
  std::vector<int> rows(m.rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int>(i);
  std::vector<float> scores(rows.size());
  kernels::BatchedCosineRows(q.data(), kernels::InvNorm(q.data(), q.size()),
                             m.data(), m.cols(), rows.data(), rows.size(),
                             m.inv_norms(), scores.data());
  return scores;
}

std::vector<Hit> TopK(const Embeddings& e, bool columns,
                      const std::vector<float>& scores, int exclude_table,
                      int exclude_col, int k) {
  std::vector<Hit> hits;
  hits.reserve(scores.size());
  for (size_t r = 0; r < scores.size(); ++r) {
    Hit h;
    h.score = scores[r];
    if (columns) {
      h.table = e.col_refs[r].first;
      h.col = e.col_refs[r].second;
      if (h.table == exclude_table && h.col == exclude_col) continue;
    } else {
      h.table = static_cast<int>(r);
      if (h.table == exclude_table) continue;
    }
    hits.push_back(h);
  }
  const auto before = [&e](const Hit& a, const Hit& b) {
    return HitBefore(e, a, b);
  };
  const size_t cut = std::min(hits.size(), static_cast<size_t>(k));
  std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(cut),
                    hits.end(), before);
  hits.resize(cut);
  return hits;
}

}  // namespace

std::vector<Hit> ExactTopK(const Embeddings& e, bool columns, VecView q,
                           int exclude_table, int exclude_col, int k) {
  return TopK(e, columns, ScoreAll(e, columns, q), exclude_table,
              exclude_col, k);
}

RecallReport CheckRecall(const TabBinServing& serving, const Embeddings& e,
                         const Inputs& in, uint64_t seed, int queries) {
  RecallReport rep;
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 6);
  constexpr int k = 10;
  for (int qi = 0; qi < queries; ++qi) {
    const bool columns = qi % 2 == 1;
    const Table* t = nullptr;
    do {
      t = &in.corpus[rng.Uniform(in.corpus.size())];
    } while (columns && t->data_cols() == 0);
    const auto row = e.row_of.find(t->id());
    if (row == e.row_of.end()) {
      ++rep.mismatches;  // a corpus table is never removed
      continue;
    }
    const int tr = row->second;
    int col = -1;
    Result<QueryResponse> served = Status::Internal("unset");
    VecView q;
    if (columns) {
      col = t->vmd_cols() + static_cast<int>(rng.Uniform(
                                static_cast<uint64_t>(t->data_cols())));
      q = e.col.row(static_cast<size_t>(e.ColumnRow(tr, col)));
      served = serving.SimilarColumns({t->id(), nullptr, col, k});
    } else {
      q = e.tbl.row(static_cast<size_t>(tr));
      served = serving.SimilarTables({t->id(), nullptr, k});
    }
    ++rep.queries;
    if (!served.ok()) {
      ++rep.mismatches;
      continue;
    }
    // A served item must be a live row other than the query itself,
    // whose exact score is the served score bit for bit, in serving
    // order.
    const std::vector<float> scores = ScoreAll(e, columns, q);
    const std::vector<Hit> exact = TopK(e, columns, scores, tr, col, k);
    bool bad = false;
    std::vector<Hit> got;
    for (const ServiceMatch& m : served.value().matches) {
      const auto it = e.row_of.find(m.table_id);
      if (it == e.row_of.end()) {
        bad = true;
        break;
      }
      const Table& mt = *e.tables[static_cast<size_t>(it->second)];
      int r = it->second;
      if (columns) {
        if (m.col < mt.vmd_cols() || m.col >= mt.cols()) {
          bad = true;
          break;
        }
        r = e.ColumnRow(it->second, m.col);
      }
      const bool self = it->second == tr && (!columns || m.col == col);
      if (self || !SameFloat(scores[static_cast<size_t>(r)], m.score)) {
        bad = true;
        break;
      }
      got.push_back({m.score, it->second, columns ? m.col : -1});
    }
    for (size_t i = 1; !bad && i < got.size(); ++i) {
      if (!HitBefore(e, got[i - 1], got[i])) bad = true;
    }
    if (bad) {
      ++rep.mismatches;
      continue;
    }
    rep.recall += Overlap(got, exact);
  }
  if (rep.queries > 0) rep.recall /= rep.queries;
  return rep;
}

bool SameResponse(const QueryResponse& a, const QueryResponse& b) {
  if (a.candidates != b.candidates || a.matches.size() != b.matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.matches.size(); ++i) {
    const ServiceMatch& x = a.matches[i];
    const ServiceMatch& y = b.matches[i];
    if (x.table_id != y.table_id || x.caption != y.caption ||
        x.col != y.col || x.row != y.row || x.entity != y.entity ||
        !SameFloat(x.score, y.score)) {
      return false;
    }
  }
  return true;
}

}  // namespace servingbench
}  // namespace tabbin
