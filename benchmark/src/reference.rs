//! The benchmark's own serial side: input derivation (keys, arrival
//! streams) and the reference results every op is checked against. Nothing
//! here calls into the library, so a bug there cannot hide itself.

/// splitmix64: the benchmark's only random source.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derive an independent stream seed from the run seed, so graph, keys
/// and arrivals do not share random numbers.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Marks an unreached vertex in [`KeyReference::levels`].
pub const UNREACHED_LEVEL: u8 = u8::MAX;

/// The whole graph as one serial CSR: undirected, self-loops dropped,
/// duplicate edges merged, adjacency lists sorted.
pub struct RefGraph {
    offsets: Vec<usize>,
    targets: Vec<u64>,
}

impl RefGraph {
    pub fn from_edges(num_vertices: u64, edges: impl Iterator<Item = (u64, u64)> + Clone) -> Self {
        let n = num_vertices as usize;
        let both = || edges.clone().filter(|(a, b)| a != b).flat_map(|(a, b)| [(a, b), (b, a)]);
        let mut offsets = vec![0usize; n + 1];
        for (a, _) in both() {
            offsets[a as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u64; offsets[n]];
        for (a, b) in both() {
            targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
        }
        // sort and dedup each list in place, compacting as we go
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..n {
            let end = offsets[v + 1];
            targets[start..end].sort_unstable();
            let list_start = write;
            for i in start..end {
                if write == list_start || targets[write - 1] != targets[i] {
                    targets[write] = targets[i];
                    write += 1;
                }
            }
            start = end;
            offsets[v + 1] = write;
        }
        targets.truncate(write);
        Self { offsets, targets }
    }

    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Directed edge count (twice the undirected one).
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    pub fn adj(&self, v: u64) -> &[u64] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    pub fn degree(&self, v: u64) -> u64 {
        self.adj(v).len() as u64
    }

    pub fn has_edge(&self, a: u64, b: u64) -> bool {
        a < self.num_vertices() && self.adj(a).binary_search(&b).is_ok()
    }

    /// Whether each vertex lies in the largest connected component.
    pub fn in_largest_component(&self) -> Vec<bool> {
        let n = self.num_vertices() as usize;
        let mut label = vec![usize::MAX; n];
        let mut sizes = Vec::new();
        let mut stack = Vec::new();
        for root in 0..n {
            if label[root] != usize::MAX {
                continue;
            }
            let id = sizes.len();
            let mut size = 0usize;
            label[root] = id;
            stack.push(root as u64);
            while let Some(v) = stack.pop() {
                size += 1;
                for &t in self.adj(v) {
                    if label[t as usize] == usize::MAX {
                        label[t as usize] = id;
                        stack.push(t);
                    }
                }
            }
            sizes.push(size);
        }
        let largest = (0..sizes.len()).max_by_key(|&i| sizes[i]).unwrap_or(0);
        label.into_iter().map(|l| l == largest).collect()
    }

    /// Triangles `a < b < c`, by merging the upper parts of two sorted
    /// adjacency lists per edge.
    pub fn count_triangles(&self) -> u64 {
        let upper = |v: u64| {
            let adj = self.adj(v);
            &adj[adj.partition_point(|&t| t <= v)..]
        };
        let mut count = 0u64;
        for a in 0..self.num_vertices() {
            let ua = upper(a);
            for &b in ua {
                let (mut x, mut y) = (ua, upper(b));
                while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
                    match p.cmp(&q) {
                        std::cmp::Ordering::Less => x = &x[1..],
                        std::cmp::Ordering::Greater => y = &y[1..],
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            x = &x[1..];
                            y = &y[1..];
                        }
                    }
                }
            }
        }
        count
    }
}

/// Choose `num_keys` distinct search keys: xorshift probes first, then a
/// rescan of the vertex range so a small graph yields every usable key.
/// The benchmark's own copy of the selection loop in
/// `crates/bench/src/lib.rs`, with one rule added to Graph500's "nonzero
/// degree": the key lies in the largest component. A key in a two-vertex
/// component makes an op of a few microseconds, and how many of the 100
/// keys are such varies with the seed, which moved the harmonic-mean TEPS
/// 40-fold between seeds.
pub fn select_keys(g: &RefGraph, num_keys: usize, seed: u64) -> Result<Vec<u64>, String> {
    let n = g.num_vertices();
    let usable = g.in_largest_component();
    let usable = |v: u64| g.degree(v) > 0 && usable[v as usize];
    let mut keys = Vec::with_capacity(num_keys);
    let mut used = std::collections::HashSet::new();
    let mut state = seed | 1; // xorshift must not start at zero
    for _ in 0..num_keys * 4 {
        if keys.len() == num_keys {
            break;
        }
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = state % n;
        if usable(key) && used.insert(key) {
            keys.push(key);
        }
    }
    for v in 0..n {
        if keys.len() == num_keys {
            break;
        }
        if usable(v) && used.insert(v) {
            keys.push(v);
        }
    }
    if keys.len() < num_keys {
        return Err(format!(
            "requested {num_keys} search keys but only {} of {n} vertices are usable",
            keys.len()
        ));
    }
    Ok(keys)
}

/// What a BFS from one key must produce.
pub struct KeyReference {
    pub key: u64,
    pub visited: u64,
    /// Sum of the degrees of reached vertices: the TEPS numerator.
    pub traversed_edges: u64,
    pub max_level: u64,
    /// Level per vertex, [`UNREACHED_LEVEL`] where unreached.
    pub levels: Vec<u8>,
}

impl KeyReference {
    pub fn bfs(g: &RefGraph, key: u64) -> Self {
        let mut levels = vec![UNREACHED_LEVEL; g.num_vertices() as usize];
        levels[key as usize] = 0;
        let mut frontier = vec![key];
        let mut next = Vec::new();
        let (mut visited, mut traversed, mut depth) = (0u64, 0u64, 0u8);
        while !frontier.is_empty() {
            assert!(depth < UNREACHED_LEVEL - 1, "BFS deeper than the u8 level table");
            for &v in &frontier {
                visited += 1;
                traversed += g.degree(v);
                for &t in g.adj(v) {
                    if levels[t as usize] == UNREACHED_LEVEL {
                        levels[t as usize] = depth + 1;
                        next.push(t);
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            depth += 1;
        }
        Self { key, visited, traversed_edges: traversed, max_level: depth as u64 - 1, levels }
    }

    /// Check one vertex of a BFS tree: its level is the reference level,
    /// and its parent is a real neighbour one level up.
    pub fn vertex_ok(&self, g: &RefGraph, v: u64, length: u64, parent: u64) -> bool {
        let want = self.levels[v as usize];
        if want == UNREACHED_LEVEL {
            return length == u64::MAX && parent == u64::MAX;
        }
        if length != want as u64 {
            return false;
        }
        if v == self.key {
            return parent == v;
        }
        g.has_edge(parent, v) && self.levels[parent as usize] as u64 + 1 == length
    }
}

/// One query of the open-loop stream: when it is due on the event clock
/// and which key of the pool it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub pool_index: usize,
}

/// `count` arrivals at a mean rate of `rate_qps`, with inter-arrival gaps
/// jittered uniformly in `[gap/2, 3*gap/2)` as `qps_serve` does.
pub fn arrival_stream(rate_qps: u64, count: usize, pool_len: usize, seed: u64) -> Vec<Arrival> {
    let gap_ns = 1_000_000_000 / rate_qps;
    let mut rng = Rng::new(seed);
    let mut at_ns = 0u64;
    (0..count)
        .map(|_| {
            at_ns += gap_ns / 2 + rng.below(gap_ns);
            Arrival { at_ns, pool_index: rng.below(pool_len as u64) as usize }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3-4 path plus the chord 1-3 closing one triangle; 5 isolated.
    /// Fed with a duplicate, a reversed duplicate and a self-loop.
    fn small() -> RefGraph {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (3, 1), (0, 1), (2, 2)];
        RefGraph::from_edges(6, edges.into_iter())
    }

    #[test]
    fn csr_is_symmetric_sorted_and_deduplicated() {
        let g = small();
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.adj(1), [0, 2, 3]);
        assert_eq!(g.adj(3), [1, 2, 4]);
        assert_eq!(g.adj(2), [1, 3]);
        assert_eq!(g.degree(5), 0);
        assert!(g.has_edge(4, 3) && !g.has_edge(0, 2) && !g.has_edge(9, 0));
        assert_eq!(g.in_largest_component(), [true, true, true, true, true, false]);
    }

    #[test]
    fn triangle_reference_on_hand_checked_graphs() {
        assert_eq!(small().count_triangles(), 1); // 1-2-3
                                                  // K5 has C(5,3) = 10 triangles
        let k5 = (0..5u64).flat_map(|a| (a + 1..5).map(move |b| (a, b)));
        assert_eq!(RefGraph::from_edges(5, k5).count_triangles(), 10);
        // two triangles sharing the edge 0-1, plus a pendant vertex
        let bowtie = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4)];
        assert_eq!(RefGraph::from_edges(5, bowtie.into_iter()).count_triangles(), 2);
        let square = [(0, 1), (1, 2), (2, 3), (3, 0)];
        assert_eq!(RefGraph::from_edges(4, square.into_iter()).count_triangles(), 0);
    }

    #[test]
    fn bfs_reference_levels_and_tree_check() {
        let g = small();
        let r = KeyReference::bfs(&g, 0);
        assert_eq!(r.levels, [0, 1, 2, 2, 3, UNREACHED_LEVEL]);
        assert_eq!((r.visited, r.max_level, r.traversed_edges), (5, 3, 10));
        assert!(r.vertex_ok(&g, 0, 0, 0));
        assert!(r.vertex_ok(&g, 3, 2, 1));
        assert!(r.vertex_ok(&g, 4, 3, 3));
        assert!(r.vertex_ok(&g, 5, u64::MAX, u64::MAX));
        assert!(!r.vertex_ok(&g, 3, 3, 2), "wrong level");
        assert!(!r.vertex_ok(&g, 3, 2, 2), "parent on the same level");
        assert!(!r.vertex_ok(&g, 4, 3, 1), "parent is not a neighbour");
        assert!(!r.vertex_ok(&g, 5, 1, 0), "unreached vertex claimed reached");
    }

    #[test]
    fn keys_are_distinct_have_edges_and_follow_the_seed() {
        // a 64-ring, the pair 70-71 off on its own, the rest isolated
        let ring = (0..64u64).map(|v| (v, (v + 1) % 64)).chain([(70, 71)]);
        let g = RefGraph::from_edges(80, ring);
        let a = select_keys(&g, 16, 7).unwrap();
        assert_eq!(a, select_keys(&g, 16, 7).unwrap(), "equal seeds, equal keys");
        assert_ne!(a, select_keys(&g, 16, 8).unwrap(), "different seeds, different keys");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16);
        assert!(a.iter().all(|&k| k < 64), "keys come from the largest component only");
        // the rescan fills what the probes miss; more than exist is an error
        assert_eq!(select_keys(&g, 64, 7).unwrap().len(), 64);
        assert!(select_keys(&g, 65, 7).unwrap_err().contains("only 64"));
    }

    #[test]
    fn arrival_stream_follows_the_seed_and_the_rate() {
        let a = arrival_stream(300, 1000, 32, 1);
        assert_eq!(a, arrival_stream(300, 1000, 32, 1));
        assert_ne!(a, arrival_stream(300, 1000, 32, 2));
        assert!(a.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
        assert!(a.iter().all(|q| q.pool_index < 32));
        let rate = 1000.0 / (a.last().unwrap().at_ns as f64 / 1e9);
        assert!((rate - 300.0).abs() < 15.0, "offered {rate} QPS");
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }
}
