//! Cellular neighborhoods.
//!
//! The paper uses **linear 5 (L5)** — the Von Neumann neighborhood: the
//! four nearest cells plus the evolved cell itself — chosen explicitly "to
//! reduce concurrent memory access" (§4.1). The other classic shapes are
//! provided for ablation studies.
//!
//! [`NeighborhoodTable`] precomputes the neighbor indices of every cell
//! once per run; neighborhood lookup in the breeding loop is then a slice
//! access, not index arithmetic.

use crate::grid::GridTopology;

/// Classic cellular GA neighborhood shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborhoodShape {
    /// Von Neumann: N, S, E, W + self (the paper's choice).
    L5,
    /// Linear 9: L5 extended two steps along each axis.
    L9,
    /// Moore: the 8 surrounding cells + self.
    C9,
    /// C9 plus the 4 cells two steps away on each axis.
    C13,
}

impl NeighborhoodShape {
    /// Signed `(dc, dr)` offsets, self (0,0) first.
    pub fn offsets(self) -> &'static [(isize, isize)] {
        match self {
            NeighborhoodShape::L5 => &[(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
            NeighborhoodShape::L9 => {
                &[(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]
            }
            NeighborhoodShape::C9 => {
                &[(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
            }
            NeighborhoodShape::C13 => &[
                (0, 0),
                (1, 0),
                (-1, 0),
                (0, 1),
                (0, -1),
                (1, 1),
                (1, -1),
                (-1, 1),
                (-1, -1),
                (2, 0),
                (-2, 0),
                (0, 2),
                (0, -2),
            ],
        }
    }

    /// Number of cells in the neighborhood (including self).
    pub fn size(self) -> usize {
        self.offsets().len()
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            NeighborhoodShape::L5 => "L5",
            NeighborhoodShape::L9 => "L9",
            NeighborhoodShape::C9 => "C9",
            NeighborhoodShape::C13 => "C13",
        }
    }
}

impl std::fmt::Display for NeighborhoodShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Precomputed neighbor indices for every cell of a grid.
#[derive(Debug, Clone)]
pub struct NeighborhoodTable {
    shape: NeighborhoodShape,
    stride: usize,
    /// Flattened `len × stride` table of neighbor indices; entry 0 of each
    /// row is the cell itself.
    table: Vec<u32>,
}

impl NeighborhoodTable {
    /// Precomputes all neighborhoods for `grid`.
    pub fn new(grid: GridTopology, shape: NeighborhoodShape) -> Self {
        let offsets = shape.offsets();
        let stride = offsets.len();
        let mut table = Vec::with_capacity(grid.len() * stride);
        for i in 0..grid.len() {
            for &(dc, dr) in offsets {
                table.push(grid.offset(i, dc, dr) as u32);
            }
        }
        Self { shape, stride, table }
    }

    /// The neighborhood shape this table was built for.
    pub fn shape(&self) -> NeighborhoodShape {
        self.shape
    }

    /// Neighbor indices of `cell` (self first). On small grids the torus
    /// may fold two offsets onto the same cell; duplicates are retained so
    /// the stride stays constant.
    #[inline]
    pub fn neighbors(&self, cell: usize) -> &[u32] {
        let start = cell * self.stride;
        &self.table[start..start + self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l5_is_von_neumann() {
        let g = GridTopology::new(4, 4);
        let t = NeighborhoodTable::new(g, NeighborhoodShape::L5);
        let center = g.index(1, 1);
        let n = t.neighbors(center);
        assert_eq!(n.len(), 5);
        assert_eq!(n[0] as usize, center);
        let set: std::collections::HashSet<u32> = n.iter().copied().collect();
        assert!(set.contains(&(g.index(2, 1) as u32)));
        assert!(set.contains(&(g.index(0, 1) as u32)));
        assert!(set.contains(&(g.index(1, 2) as u32)));
        assert!(set.contains(&(g.index(1, 0) as u32)));
    }

    #[test]
    fn all_neighbors_within_manhattan_radius() {
        let g = GridTopology::new(8, 8);
        for (shape, radius) in [
            (NeighborhoodShape::L5, 1),
            (NeighborhoodShape::C9, 2), // diagonal = Manhattan 2
            (NeighborhoodShape::L9, 2),
            (NeighborhoodShape::C13, 2),
        ] {
            let t = NeighborhoodTable::new(g, shape);
            for cell in 0..g.len() {
                for &n in t.neighbors(cell) {
                    assert!(g.manhattan(cell, n as usize) <= radius, "{shape}: {cell} -> {n}");
                }
            }
        }
    }

    #[test]
    fn symmetry_on_l5() {
        // If b is in a's L5 neighborhood, a is in b's.
        let g = GridTopology::new(6, 5);
        let t = NeighborhoodTable::new(g, NeighborhoodShape::L5);
        for a in 0..g.len() {
            for &b in t.neighbors(a) {
                assert!(t.neighbors(b as usize).contains(&(a as u32)), "asymmetry {a} vs {b}");
            }
        }
    }

    #[test]
    fn sizes() {
        assert_eq!(NeighborhoodShape::L5.size(), 5);
        assert_eq!(NeighborhoodShape::L9.size(), 9);
        assert_eq!(NeighborhoodShape::C9.size(), 9);
        assert_eq!(NeighborhoodShape::C13.size(), 13);
    }

    #[test]
    fn tiny_grid_folds_but_keeps_stride() {
        let g = GridTopology::new(2, 2);
        let t = NeighborhoodTable::new(g, NeighborhoodShape::L5);
        // On 2x2, east == west; duplicates retained.
        assert_eq!(t.neighbors(0).len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(NeighborhoodShape::L5.to_string(), "L5");
        assert_eq!(NeighborhoodShape::C13.to_string(), "C13");
    }
}
