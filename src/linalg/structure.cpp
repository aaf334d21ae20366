#include "linalg/structure.h"

#include <algorithm>
#include <stdexcept>

namespace nvsram::linalg {

SparsityPattern SparsityPattern::from_csr(const CsrMatrix& a) {
  SparsityPattern p;
  p.n_ = a.dimension();
  p.row_ptr_ = a.row_ptr();
  p.col_idx_ = a.col_idx();
  return p;
}

SparsityPattern SparsityPattern::from_triplets(
    std::size_t n, const std::vector<Triplet>& triplets) {
  // Counting sort by row: row_ptr_[r + 1] counts row r, and the prefix sum
  // turns row_ptr_[r] into where row r's bucket starts.
  SparsityPattern p;
  p.n_ = n;
  p.row_ptr_.assign(n + 1, 0);
  for (const auto& t : triplets) {
    if (t.row >= n || t.col >= n) {
      throw std::out_of_range("SparsityPattern: triplet out of range");
    }
    ++p.row_ptr_[t.row + 1];
  }
  for (std::size_t r = 0; r < n; ++r) p.row_ptr_[r + 1] += p.row_ptr_[r];
  std::vector<std::size_t>& cols = p.col_idx_;
  cols.resize(triplets.size());
  // row_ptr_[r] is row r's cursor here, so afterwards it is where row r ends.
  for (const auto& t : triplets) cols[p.row_ptr_[t.row]++] = t.col;

  // Sort each row's few columns and drop repeats, compacting in place: the
  // kept columns of a row never start after its bucket does.
  std::size_t begin = 0;
  std::size_t kept = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t end = p.row_ptr_[r];
    std::sort(cols.begin() + begin, cols.begin() + end);
    p.row_ptr_[r] = kept;
    for (std::size_t k = begin; k < end; ++k) {
      if (kept == p.row_ptr_[r] || cols[kept - 1] != cols[k]) {
        cols[kept++] = cols[k];
      }
    }
    begin = end;
  }
  p.row_ptr_[n] = kept;
  cols.resize(kept);
  return p;
}

SparsityPattern SparsityPattern::transpose() const {
  SparsityPattern t;
  t.n_ = n_;
  t.row_ptr_.assign(n_ + 1, 0);
  for (std::size_t c : col_idx_) t.row_ptr_[c + 1]++;
  for (std::size_t j = 0; j < n_; ++j) t.row_ptr_[j + 1] += t.row_ptr_[j];
  t.col_idx_.resize(col_idx_.size());
  std::vector<std::size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.col_idx_[next[col_idx_[k]]++] = r;
    }
  }
  return t;
}

std::vector<std::size_t> Matching::unmatched_rows() const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < row_match.size(); ++r) {
    if (row_match[r] == kUnmatched) out.push_back(r);
  }
  return out;
}

std::vector<std::size_t> Matching::unmatched_cols() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < col_match.size(); ++c) {
    if (col_match[c] == kUnmatched) out.push_back(c);
  }
  return out;
}

namespace {

// One augmenting-path DFS from row r (iterative; `visited` is per-phase).
bool augment(const SparsityPattern& p, std::size_t start_row,
             std::vector<std::size_t>& row_match,
             std::vector<std::size_t>& col_match, std::vector<int>& visited,
             int phase) {
  // Stack of (row, next position to try in that row).
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.emplace_back(start_row, p.row_ptr()[start_row]);
  while (!stack.empty()) {
    auto& [row, pos] = stack.back();
    if (pos == p.row_ptr()[row + 1]) {
      stack.pop_back();
      continue;
    }
    const std::size_t col = p.col_idx()[pos++];
    if (visited[col] == phase) continue;
    visited[col] = phase;
    const std::size_t owner = col_match[col];
    if (owner == kUnmatched) {
      // Free column: unwind the stack, flipping the alternating path.
      std::size_t c = col;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const std::size_t r = it->first;
        const std::size_t prev = row_match[r];
        row_match[r] = c;
        col_match[c] = r;
        c = prev;
        if (c == kUnmatched) break;
      }
      return true;
    }
    stack.emplace_back(owner, p.row_ptr()[owner]);
  }
  return false;
}

}  // namespace

Matching maximum_matching(const SparsityPattern& pattern) {
  const std::size_t n = pattern.dimension();
  Matching m;
  m.row_match.assign(n, kUnmatched);
  m.col_match.assign(n, kUnmatched);

  // Greedy seed, diagonal first: a diagonal transversal keeps the pivot
  // order close to identity, which both the fill-reducing order and the
  // numeric refactorization benefit from.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = pattern.row_ptr()[r]; k < pattern.row_ptr()[r + 1];
         ++k) {
      if (pattern.col_idx()[k] == r && m.col_match[r] == kUnmatched) {
        m.row_match[r] = r;
        m.col_match[r] = r;
        ++m.size;
        break;
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (m.row_match[r] != kUnmatched) continue;
    for (std::size_t k = pattern.row_ptr()[r]; k < pattern.row_ptr()[r + 1];
         ++k) {
      const std::size_t c = pattern.col_idx()[k];
      if (m.col_match[c] == kUnmatched) {
        m.row_match[r] = c;
        m.col_match[c] = r;
        ++m.size;
        break;
      }
    }
  }

  // Augmenting phases for the leftovers.
  std::vector<int> visited(n, -1);
  int phase = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (m.row_match[r] != kUnmatched) continue;
    if (augment(pattern, r, m.row_match, m.col_match, visited, phase++)) {
      ++m.size;
    }
  }
  return m;
}

BipartiteComponents connected_components(const SparsityPattern& pattern) {
  const std::size_t n = pattern.dimension();
  const SparsityPattern cols = pattern.transpose();
  BipartiteComponents out;
  out.row_component.assign(n, kUnmatched);
  out.col_component.assign(n, kUnmatched);

  std::vector<std::size_t> queue;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (out.row_component[seed] != kUnmatched || pattern.row_degree(seed) == 0) {
      continue;
    }
    const std::size_t id = out.count++;
    queue.clear();
    queue.push_back(seed);
    out.row_component[seed] = id;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t r = queue[qi];
      for (std::size_t k = pattern.row_ptr()[r]; k < pattern.row_ptr()[r + 1];
           ++k) {
        const std::size_t c = pattern.col_idx()[k];
        if (out.col_component[c] != kUnmatched) continue;
        out.col_component[c] = id;
        for (std::size_t j = cols.row_ptr()[c]; j < cols.row_ptr()[c + 1];
             ++j) {
          const std::size_t r2 = cols.col_idx()[j];
          if (out.row_component[r2] == kUnmatched) {
            out.row_component[r2] = id;
            queue.push_back(r2);
          }
        }
      }
    }
  }
  // Columns with entries only in already-visited rows were labelled above;
  // a column whose rows are all empty cannot exist (an entry IS a row
  // position), so only genuinely empty columns remain kUnmatched.
  return out;
}

std::vector<std::size_t> min_degree_order(const SparsityPattern& pattern,
                                          const Matching& matching) {
  const std::size_t n = pattern.dimension();
  if (!matching.perfect(n)) {
    throw std::invalid_argument("min_degree_order: matching not perfect");
  }
  // Build the symmetrized column-interaction graph of the permuted matrix
  // B(j, k): columns j, k interact when the pivot row of j has a nonzero in
  // column k, or vice versa.  Minimum degree on B approximates the LU fill
  // behaviour with the matching-fixed pivot sequence.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t pr = matching.col_match[j];  // pivot row of column j
    for (std::size_t k = pattern.row_ptr()[pr]; k < pattern.row_ptr()[pr + 1];
         ++k) {
      const std::size_t c = pattern.col_idx()[k];
      if (c == j) continue;
      adj[j].push_back(c);
      adj[c].push_back(j);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> scratch;
  for (std::size_t step = 0; step < n; ++step) {
    // Pick the live node of minimum degree (ties broken by index, which
    // keeps the order deterministic across platforms).
    std::size_t best = kUnmatched, best_deg = kUnmatched;
    for (std::size_t j = 0; j < n; ++j) {
      if (eliminated[j]) continue;
      const std::size_t deg = adj[j].size();
      if (deg < best_deg) {
        best_deg = deg;
        best = j;
        if (deg == 0) break;
      }
    }
    eliminated[best] = 1;
    order.push_back(best);

    // Eliminate: connect the remaining neighbours into a clique.
    scratch.clear();
    for (std::size_t nb : adj[best]) {
      if (!eliminated[nb]) scratch.push_back(nb);
    }
    for (std::size_t nb : scratch) {
      auto& list = adj[nb];
      list.erase(std::remove(list.begin(), list.end(), best), list.end());
      std::size_t added = 0;
      for (std::size_t other : scratch) {
        if (other == nb) continue;
        if (!std::binary_search(list.begin(), list.end(), other)) {
          list.push_back(other);
          ++added;
        }
      }
      if (added > 0) std::sort(list.begin(), list.end());
    }
    adj[best].clear();
    adj[best].shrink_to_fit();
  }
  return order;
}

}  // namespace nvsram::linalg
