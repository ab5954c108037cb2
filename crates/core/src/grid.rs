//! The 2-D toroidal mesh the cellular population lives on.
//!
//! Individuals are stored row-major; the grid only does index arithmetic
//! (the population itself lives in the engine). Wrap-around on both axes
//! makes the mesh a torus, so every cell has the same neighborhood shape.

/// Dimensions and index arithmetic of the toroidal grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridTopology {
    width: usize,
    height: usize,
}

impl GridTopology {
    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Self { width, height }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Population size (`width · height`).
    #[inline]
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major index of `(col, row)`.
    #[inline]
    pub fn index(&self, col: usize, row: usize) -> usize {
        debug_assert!(col < self.width && row < self.height);
        row * self.width + col
    }

    /// `(col, row)` of a row-major index.
    #[inline]
    pub fn coords(&self, index: usize) -> (usize, usize) {
        debug_assert!(index < self.len());
        (index % self.width, index / self.width)
    }

    /// Index of the cell at signed offset `(dc, dr)` from `index`, with
    /// toroidal wrap-around.
    #[inline]
    pub fn offset(&self, index: usize, dc: isize, dr: isize) -> usize {
        let (c, r) = self.coords(index);
        let w = self.width as isize;
        let h = self.height as isize;
        let nc = (c as isize + dc).rem_euclid(w) as usize;
        let nr = (r as isize + dr).rem_euclid(h) as usize;
        self.index(nc, nr)
    }

    /// Manhattan distance on the torus (shortest way around).
    pub fn manhattan(&self, a: usize, b: usize) -> usize {
        let (ac, ar) = self.coords(a);
        let (bc, br) = self.coords(b);
        let dc = ac.abs_diff(bc).min(self.width - ac.abs_diff(bc));
        let dr = ar.abs_diff(br).min(self.height - ar.abs_diff(br));
        dc + dr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_coords_round_trip() {
        let g = GridTopology::new(5, 3);
        for i in 0..g.len() {
            let (c, r) = g.coords(i);
            assert_eq!(g.index(c, r), i);
        }
    }

    #[test]
    fn offsets_wrap_around() {
        let g = GridTopology::new(4, 4);
        // Cell 0 is (0,0): left neighbor wraps to column 3, up to row 3.
        assert_eq!(g.offset(0, -1, 0), g.index(3, 0));
        assert_eq!(g.offset(0, 0, -1), g.index(0, 3));
        assert_eq!(g.offset(0, 1, 0), g.index(1, 0));
        assert_eq!(g.offset(0, 0, 1), g.index(0, 1));
        // Wrapping a full lap returns home.
        assert_eq!(g.offset(5, 4, 0), 5);
        assert_eq!(g.offset(5, 0, -4), 5);
    }

    #[test]
    fn manhattan_shortest_way_around() {
        let g = GridTopology::new(8, 8);
        let a = g.index(0, 0);
        let b = g.index(7, 0);
        // Around the torus, (0,0)-(7,0) are adjacent.
        assert_eq!(g.manhattan(a, b), 1);
        let c = g.index(4, 4);
        assert_eq!(g.manhattan(a, c), 8);
        assert_eq!(g.manhattan(a, a), 0);
    }

    #[test]
    fn dimensions() {
        let g = GridTopology::new(16, 16);
        assert_eq!(g.len(), 256);
        assert_eq!(g.width(), 16);
        assert_eq!(g.height(), 16);
        assert!(!g.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        GridTopology::new(0, 4);
    }
}
