#pragma once
// SpatialGrid: a uniform grid over radio positions for O(k) range queries.
//
// The channel's reachability build used to test every ordered pair of
// radios — O(n²) mean-power evaluations per rebuild — which caps the
// simulator near the paper's 50-node scale. The grid buckets radios by
// position so a rebuild enumerates, per transmitter, only the radios that
// could possibly lie within the model's maximum reach radius.
//
// The grid is a *pruning* structure, never an oracle: `candidatesWithin`
// must return a superset of all radios within `radiusM` of the query
// center (false positives are fine — every candidate still goes through
// the channel's exact mean-power predicate), and it must never miss a
// radio inside the radius. That superset contract is what keeps the
// grid-built receiver sets bit-identical to the full O(n²) scan.
//
// Layout: CSR buckets (one flat index array + per-cell offsets), built
// with a counting sort that preserves radio-index order within each cell.
// Cells whose closest point to the query center is farther than the query
// radius are skipped, so fine cells (cell size < radius) prune close to
// the ideal disk instead of a bounding box.

#include <cstdint>
#include <vector>

#include "mesh/common/assert.hpp"
#include "mesh/common/vec2.hpp"

namespace mesh::phy {

class SpatialGrid {
 public:
  // Rebuilds the grid over `positions` (indexed by radio index) with
  // square cells of `cellSizeM`. The grid covers the positions' bounding
  // box; all positions are valid, including duplicates and points on cell
  // boundaries (a boundary point lands in exactly one cell via floor()).
  void build(const std::vector<Vec2>& positions, double cellSizeM);

  // Appends to `out` the index of every radio whose position may lie
  // within `radiusM` of `center` — a conservative superset (cell-level
  // pruning only; no per-radio distance test). Indices arrive grouped by
  // cell, NOT globally sorted; callers that need deterministic order must
  // sort. `center` need not be inside the grid.
  void candidatesWithin(Vec2 center, double radiusM,
                        std::vector<std::uint32_t>& out) const;

  bool built() const { return cellSizeM_ > 0.0; }
  double cellSizeM() const { return cellSizeM_; }
  std::size_t cellCount() const { return cols_ * rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  std::size_t radioCount() const {
    return built() ? cellOf_.size() : 0;
  }

 private:
  std::size_t cellIndexOf(Vec2 p) const;

  double cellSizeM_{0.0};
  Vec2 origin_{};             // bounding-box min corner
  std::size_t cols_{0};
  std::size_t rows_{0};
  std::vector<std::uint32_t> cellOf_;      // radio index -> cell index
  std::vector<std::uint32_t> cellStart_;   // CSR offsets, size cells+1
  std::vector<std::uint32_t> bucketed_;    // radio indices, cell-major,
                                           // ascending within each cell
  std::vector<std::uint32_t> next_;        // counting-sort cursor scratch
};

}  // namespace mesh::phy
