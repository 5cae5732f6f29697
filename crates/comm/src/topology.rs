//! Synthetic routing topologies for the mailbox (paper Section III-B).
//!
//! For dense communication patterns the paper routes messages through a
//! synthetic network: a 2D grid (Figure 4: first hop along the source's row
//! to the destination's column, second hop down the column) or a 3D grid
//! mirroring the BG/P torus. Routing trades extra hops for (a) far fewer open
//! channel pairs per rank and (b) more opportunities for aggregation.

/// A routing topology over `ranks` ranks: given the rank currently holding a
/// message and its final destination, yield the next hop.
pub trait Topology: Send + Sync {
    /// Next rank to forward to. Must eventually reach `dst`; `route(d, d) == d`.
    fn route(&self, current: usize, dst: usize) -> usize;

    /// Ranks that `rank` may ever need to send to (its channel set).
    fn neighbors(&self, rank: usize) -> Vec<usize>;

    /// Upper bound on hops any message can take.
    fn max_hops(&self) -> usize;
}

/// Selector for the built-in topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every pair communicates directly: `p - 1` channels per rank, 1 hop.
    Direct,
    /// 2D grid routing: `O(sqrt(p))` channels per rank, <= 2 hops (Figure 4).
    Routed2D,
    /// 3D grid routing: `O(p^(1/3))` channels per axis, <= 3 hops (BG/P-style).
    Routed3D,
}

impl TopologyKind {
    pub fn build(self, ranks: usize) -> Box<dyn Topology> {
        match self {
            TopologyKind::Direct => Box::new(Direct),
            TopologyKind::Routed2D => Box::new(Grid2D::new(ranks)),
            TopologyKind::Routed3D => Box::new(Grid3D::new(ranks)),
        }
    }
}

/// Fully-connected topology (the baseline the paper routes to avoid).
pub struct Direct;

impl Topology for Direct {
    #[inline]
    fn route(&self, _current: usize, dst: usize) -> usize {
        dst
    }

    fn neighbors(&self, _rank: usize) -> Vec<usize> {
        Vec::new() // unconstrained; stats report what is actually used
    }

    fn max_hops(&self) -> usize {
        1
    }
}

/// Pick `rows` as the largest divisor of `p` that is <= sqrt(p), so the grid
/// is as square as the rank count allows. Prime counts degrade to 1 x p,
/// which routes directly — matching the paper's observation that routing
/// only pays off when the factorization is non-trivial.
fn squarest_rows(p: usize) -> usize {
    let mut best = 1;
    let mut r = 1;
    while r * r <= p {
        if p.is_multiple_of(r) {
            best = r;
        }
        r += 1;
    }
    best
}

/// Row-major 2D grid: rank = row * cols + col.
pub struct Grid2D {
    rows: usize,
    cols: usize,
}

impl Grid2D {
    pub fn new(ranks: usize) -> Self {
        let rows = squarest_rows(ranks);
        Self { rows, cols: ranks / rows }
    }

    #[inline]
    fn row(&self, r: usize) -> usize {
        r / self.cols
    }

    #[inline]
    fn col(&self, r: usize) -> usize {
        r % self.cols
    }
}

impl Topology for Grid2D {
    #[inline]
    fn route(&self, current: usize, dst: usize) -> usize {
        if current == dst {
            dst
        } else if self.col(current) != self.col(dst) {
            // hop along the current row into the destination's column
            self.row(current) * self.cols + self.col(dst)
        } else {
            // same column: deliver straight down it
            dst
        }
    }

    fn neighbors(&self, rank: usize) -> Vec<usize> {
        let (row, col) = (self.row(rank), self.col(rank));
        let mut n: Vec<usize> = (0..self.cols).map(|c| row * self.cols + c).collect();
        n.extend((0..self.rows).map(|r| r * self.cols + col));
        n.sort_unstable();
        n.dedup();
        n.retain(|&x| x != rank);
        n
    }

    fn max_hops(&self) -> usize {
        2
    }
}

/// Pick grid dims (a, b, c) with a*b*c = p, as cubic as p's factors allow.
fn cubest_dims(p: usize) -> (usize, usize, usize) {
    let a = {
        // largest divisor of p at most cbrt(p)
        let mut best = 1;
        let mut d = 1;
        while d * d * d <= p {
            if p.is_multiple_of(d) {
                best = d;
            }
            d += 1;
        }
        best
    };
    let rem = p / a;
    let b = squarest_rows(rem);
    (a, b, rem / b)
}

/// 3D grid: rank = (x * dim_b + y) * dim_c + z. Routing corrects one
/// coordinate per hop (z, then y, then x), like dimension-ordered torus
/// routing on BG/P.
pub struct Grid3D {
    b: usize,
    c: usize,
    dims: (usize, usize, usize),
}

impl Grid3D {
    pub fn new(ranks: usize) -> Self {
        let dims = cubest_dims(ranks);
        Self { b: dims.1, c: dims.2, dims }
    }

    #[inline]
    fn coords(&self, r: usize) -> (usize, usize, usize) {
        (r / (self.b * self.c), (r / self.c) % self.b, r % self.c)
    }

    #[inline]
    fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.b + y) * self.c + z
    }
}

impl Topology for Grid3D {
    #[inline]
    fn route(&self, current: usize, dst: usize) -> usize {
        if current == dst {
            return dst;
        }
        let (cx, cy, cz) = self.coords(current);
        let (dx, dy, dz) = self.coords(dst);
        if cz != dz {
            self.rank_of(cx, cy, dz)
        } else if cy != dy {
            self.rank_of(cx, dy, cz)
        } else {
            self.rank_of(dx, cy, cz)
        }
    }

    fn neighbors(&self, rank: usize) -> Vec<usize> {
        let (x, y, z) = self.coords(rank);
        let (da, db, dc) = self.dims;
        let mut n = Vec::new();
        n.extend((0..dc).map(|zz| self.rank_of(x, y, zz)));
        n.extend((0..db).map(|yy| self.rank_of(x, yy, z)));
        n.extend((0..da).map(|xx| self.rank_of(xx, y, z)));
        n.sort_unstable();
        n.dedup();
        n.retain(|&r| r != rank);
        n
    }

    fn max_hops(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hops_to(topo: &dyn Topology, src: usize, dst: usize) -> usize {
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            cur = topo.route(cur, dst);
            hops += 1;
            assert!(hops <= topo.max_hops(), "routing loop {src}->{dst}");
        }
        hops
    }

    #[test]
    fn direct_is_one_hop() {
        let t = Direct;
        for s in 0..8 {
            for d in 0..8 {
                assert!(hops_to(&t, s, d) <= 1);
            }
        }
    }

    #[test]
    fn grid2d_paper_figure4_example() {
        // 16 ranks, 4x4 grid: rank 11 -> rank 5 routes through rank 9.
        let t = Grid2D::new(16);
        assert_eq!((t.rows, t.cols), (4, 4));
        assert_eq!(t.route(11, 5), 9);
        assert_eq!(t.route(9, 5), 5);
    }

    #[test]
    fn grid2d_all_pairs_terminate_within_two_hops() {
        for p in [4usize, 6, 12, 16, 36, 64] {
            let t = Grid2D::new(p);
            for s in 0..p {
                for d in 0..p {
                    assert!(hops_to(&t, s, d) <= 2, "p={p} {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn grid2d_channel_count_is_order_sqrt_p() {
        let t = Grid2D::new(64);
        for r in 0..64 {
            // 7 row peers + 7 column peers
            assert_eq!(t.neighbors(r).len(), 14);
        }
    }

    #[test]
    fn grid2d_routes_stay_inside_neighbor_sets() {
        let p = 36;
        let t = Grid2D::new(p);
        for s in 0..p {
            let neigh = t.neighbors(s);
            for d in 0..p {
                let hop = t.route(s, d);
                assert!(hop == s || hop == d && neigh.contains(&hop) || neigh.contains(&hop));
            }
        }
    }

    #[test]
    fn grid3d_all_pairs_terminate_within_three_hops() {
        for p in [8usize, 12, 27, 24, 64] {
            let t = Grid3D::new(p);
            for s in 0..p {
                for d in 0..p {
                    assert!(hops_to(&t, s, d) <= 3, "p={p} {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn grid3d_dims_multiply_to_p() {
        for p in [1usize, 8, 12, 27, 30, 64, 100] {
            let t = Grid3D::new(p);
            let (a, b, c) = t.dims;
            assert_eq!(a * b * c, p);
        }
    }

    #[test]
    fn prime_rank_counts_degrade_gracefully() {
        // A prime p has no nontrivial factorization, so both grids must
        // collapse to a single line — effectively direct routing. The hop
        // bound tightens to 1 and the channel set is all p-1 peers,
        // matching the paper's observation that routing only pays off when
        // the rank count factors.
        for p in [2usize, 3, 5, 7, 13, 31, 97] {
            let t2 = Grid2D::new(p);
            assert_eq!((t2.rows, t2.cols), (1, p), "p={p}");
            let t3 = Grid3D::new(p);
            assert_eq!(t3.dims, (1, 1, p), "p={p}");
            for s in 0..p {
                assert_eq!(t2.neighbors(s).len(), p - 1, "2d channel set, p={p} rank {s}");
                assert_eq!(t3.neighbors(s).len(), p - 1, "3d channel set, p={p} rank {s}");
                for d in 0..p {
                    assert!(hops_to(&t2, s, d) <= 1, "degenerate 2d grid must route directly");
                    assert!(hops_to(&t3, s, d) <= 1, "degenerate 3d grid must route directly");
                }
            }
        }
    }

    #[test]
    fn prime_grid_routes_stay_inside_neighbor_sets() {
        // Even in the degenerate line every forwarded hop must be a rank
        // the sender holds a channel to (the mailbox only opens channels
        // from `neighbors`).
        for p in [5usize, 13] {
            let t2 = Grid2D::new(p);
            let t3 = Grid3D::new(p);
            for s in 0..p {
                let n2 = t2.neighbors(s);
                let n3 = t3.neighbors(s);
                for d in 0..p {
                    let h2 = t2.route(s, d);
                    assert!(h2 == s || n2.contains(&h2), "2d p={p} {s}->{d} via {h2}");
                    let h3 = t3.route(s, d);
                    assert!(h3 == s || n3.contains(&h3), "3d p={p} {s}->{d} via {h3}");
                }
            }
        }
    }

    #[test]
    fn squarest_and_cubest() {
        assert_eq!(squarest_rows(16), 4);
        assert_eq!(squarest_rows(12), 3);
        assert_eq!(squarest_rows(7), 1);
        assert_eq!(cubest_dims(64), (4, 4, 4));
        assert_eq!(cubest_dims(12), (2, 2, 3));
    }
}
