//! The "parallel rounds" analysis framework of Section VI-D.
//!
//! The paper bounds each algorithm by the number of idealized synchronized
//! rounds: `p` processors share one visitor queue; each round executes at
//! most one visitor per processor and at most one visitor per *vertex*
//! (exclusive vertex access); newly created visitors appear at the end of
//! the round. This module implements that executor for BFS so the bounds —
//! `Θ(D + |E|/p + d_in_max)` without ghosts, `Θ(D + |E|/p + p)` with them —
//! can be checked empirically (the `analysis_rounds` rows of `paper_rows`).
//!
//! The model is sequential and centralized by design: it is an *analysis*
//! tool, not the distributed implementation.

use havoq_graph::types::Edge;
use havoq_util::FxHashMap;

/// Result of one round-model execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundModelResult {
    /// Synchronized parallel rounds until the queue drained.
    pub rounds: u64,
    /// Total visitors executed.
    pub visitors: u64,
    /// Visitors suppressed by the modeled ghost filter.
    pub ghost_filtered: u64,
}

/// Round-synchronous BFS model over an in-memory graph.
///
/// `processors` is the paper's `p`. When `ghosts` is true, each of the `p`
/// model partitions keeps ghost state for every vertex, so at most one
/// improving visitor per (partition, vertex) enters the queue — the
/// idealized best case of Section IV-B that turns the `d_in_max` term
/// into `p`.
pub fn bfs_rounds(
    num_vertices: u64,
    edges: &[Edge],
    processors: usize,
    source: u64,
    ghosts: bool,
) -> RoundModelResult {
    assert!(processors > 0);
    let n = num_vertices as usize;
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        if !e.is_self_loop() {
            adj[e.src as usize].push(e.dst);
        }
    }
    let mut level = vec![u64::MAX; n];
    // queue of (vertex, length); the model's single shared queue
    let mut queue: Vec<(u64, u64)> = vec![(source, 0)];
    // ghost state: per (partition, vertex) best length seen, modeling a
    // fully provisioned ghost table on each partition
    let mut ghost_best: FxHashMap<(usize, u64), u64> = FxHashMap::default();
    let partition_of = |v: u64| (v % processors as u64) as usize;

    let mut rounds = 0u64;
    let mut visitors = 0u64;
    let mut ghost_filtered = 0u64;

    while !queue.is_empty() {
        rounds += 1;
        // select up to `processors` visitors with pairwise-distinct vertices
        let mut selected: Vec<(u64, u64)> = Vec::with_capacity(processors);
        let mut rest: Vec<(u64, u64)> = Vec::with_capacity(queue.len());
        let mut busy: FxHashMap<u64, ()> = FxHashMap::default();
        for (v, l) in queue.drain(..) {
            if selected.len() < processors && !busy.contains_key(&v) {
                busy.insert(v, ());
                selected.push((v, l));
            } else {
                rest.push((v, l));
            }
        }
        // execute: pre_visit + expansion; new visitors land after the round
        let mut created: Vec<(u64, u64)> = Vec::new();
        for (v, l) in selected {
            visitors += 1;
            if l < level[v as usize] {
                level[v as usize] = l;
                let origin_part = partition_of(v);
                for &t in &adj[v as usize] {
                    let nl = l + 1;
                    if ghosts {
                        // the origin partition's local ghost filters the push
                        let key = (origin_part, t);
                        let best = ghost_best.entry(key).or_insert(u64::MAX);
                        if nl < *best {
                            *best = nl;
                            created.push((t, nl));
                        } else {
                            ghost_filtered += 1;
                        }
                    } else {
                        created.push((t, nl));
                    }
                }
            }
        }
        queue = rest;
        queue.extend(created);
    }
    RoundModelResult { rounds, visitors, ghost_filtered }
}

/// The paper's no-ghost BFS round bound `D + |E|/p + d_in_max` evaluated
/// for a concrete graph (as an additive expression; constants are absorbed
/// by callers comparing shapes).
pub fn bfs_bound_no_ghosts(diameter: u64, edges: u64, processors: usize, d_in_max: u64) -> u64 {
    diameter + edges / processors as u64 + d_in_max
}

/// The with-ghosts bound `D + |E|/p + p`.
pub fn bfs_bound_ghosts(diameter: u64, edges: u64, processors: usize) -> u64 {
    diameter + edges / processors as u64 + processors as u64
}

/// Round-synchronous k-core model (Section VI-D2): same executor rules as
/// BFS — one visitor per processor and per vertex per round — over the
/// decrement-cascade semantics of Algorithm 4. K-core cannot use ghosts,
/// so its bound keeps the `d_in_max` term: `Θ(D + |E|/p + d_in_max)`.
pub fn kcore_rounds(
    num_vertices: u64,
    edges: &[Edge],
    processors: usize,
    k: u64,
) -> RoundModelResult {
    assert!(processors > 0);
    let n = num_vertices as usize;
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        if !e.is_self_loop() {
            adj[e.src as usize].push(e.dst);
        }
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
        a.dedup();
    }
    let mut alive = vec![true; n];
    // kcore counter = degree + 1 (Alg. 5)
    let mut counter: Vec<u64> = adj.iter().map(|a| a.len() as u64 + 1).collect();
    // one initial visitor per vertex
    let mut queue: Vec<u64> = (0..num_vertices).collect();
    let mut rounds = 0u64;
    let mut visitors = 0u64;
    while !queue.is_empty() {
        rounds += 1;
        let mut selected: Vec<u64> = Vec::with_capacity(processors);
        let mut rest: Vec<u64> = Vec::with_capacity(queue.len());
        let mut busy: FxHashMap<u64, ()> = FxHashMap::default();
        for v in queue.drain(..) {
            if selected.len() < processors && !busy.contains_key(&v) {
                busy.insert(v, ());
                selected.push(v);
            } else {
                rest.push(v);
            }
        }
        let mut created: Vec<u64> = Vec::new();
        for v in selected {
            visitors += 1;
            if alive[v as usize] {
                counter[v as usize] -= 1;
                if counter[v as usize] < k {
                    alive[v as usize] = false;
                    created.extend(adj[v as usize].iter().copied());
                }
            }
        }
        queue = rest;
        queue.extend(created);
    }
    RoundModelResult { rounds, visitors, ghost_filtered: 0 }
}

/// Round-synchronous triangle-count model (Section VI-D3): first-visit,
/// length-2, and closing duties under the same executor rules. Bound:
/// `O(|E| * d_out_max / p + d_in_max)`.
pub fn triangle_rounds(num_vertices: u64, edges: &[Edge], processors: usize) -> RoundModelResult {
    assert!(processors > 0);
    let n = num_vertices as usize;
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        if !e.is_self_loop() {
            adj[e.src as usize].push(e.dst);
        }
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
        a.dedup();
    }
    const NONE: u64 = u64::MAX;
    // visitor = (vertex, second, third), Alg. 6
    let mut queue: Vec<(u64, u64, u64)> = (0..num_vertices).map(|v| (v, NONE, NONE)).collect();
    let mut rounds = 0u64;
    let mut visitors = 0u64;
    let mut triangles = 0u64;
    while !queue.is_empty() {
        rounds += 1;
        let mut selected = Vec::with_capacity(processors);
        let mut rest = Vec::with_capacity(queue.len());
        let mut busy: FxHashMap<u64, ()> = FxHashMap::default();
        for vis in queue.drain(..) {
            if selected.len() < processors && !busy.contains_key(&vis.0) {
                busy.insert(vis.0, ());
                selected.push(vis);
            } else {
                rest.push(vis);
            }
        }
        let mut created = Vec::new();
        for (v, second, third) in selected {
            visitors += 1;
            if second == NONE {
                for &t in &adj[v as usize] {
                    if t > v {
                        created.push((t, v, NONE));
                    }
                }
            } else if third == NONE {
                for &t in &adj[v as usize] {
                    if t > v {
                        created.push((t, v, second));
                    }
                }
            } else if adj[v as usize].binary_search(&third).is_ok() {
                triangles += 1;
            }
        }
        queue = rest;
        queue.extend(created);
    }
    // reuse ghost_filtered to carry the triangle count out of the model
    RoundModelResult { rounds, visitors, ghost_filtered: triangles }
}

/// The k-core / triangle `d_in`-bearing bound shapes of Section VI-D.
pub fn kcore_bound(diameter: u64, edges: u64, processors: usize, d_in_max: u64) -> u64 {
    diameter + edges / processors as u64 + d_in_max
}

pub fn triangle_bound(edges: u64, d_out_max: u64, processors: usize, d_in_max: u64) -> u64 {
    edges * d_out_max / processors as u64 + d_in_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_graph::gen::rmat::RmatGenerator;

    fn ring(n: u64) -> Vec<Edge> {
        (0..n).flat_map(|v| [Edge::new(v, (v + 1) % n), Edge::new((v + 1) % n, v)]).collect()
    }

    fn star(n: u64) -> Vec<Edge> {
        (1..n).flat_map(|v| [Edge::new(v, 0), Edge::new(0, v)]).collect()
    }

    #[test]
    fn ring_rounds_track_diameter() {
        // ring of 64: diameter 32; with plenty of processors rounds ~ D
        let n = 64;
        let r = bfs_rounds(n, &ring(n), 64, 0, false);
        assert!(r.rounds >= 32, "at least the diameter: {}", r.rounds);
        assert!(r.rounds <= 40, "close to the diameter: {}", r.rounds);
    }

    #[test]
    fn serial_rounds_track_edge_count() {
        // p = 1: rounds ~ number of visitors ~ |E|
        let n = 64;
        let edges = ring(n);
        let r = bfs_rounds(n, &edges, 1, 0, false);
        assert!(r.rounds >= n, "serial BFS needs >= V rounds: {}", r.rounds);
        assert_eq!(r.rounds, r.visitors, "p=1 executes one visitor per round");
    }

    #[test]
    fn hub_in_degree_dominates_without_ghosts() {
        // star: source is a leaf; the hub receives d_in visitors, one
        // executable per round -> rounds ~ d_in
        let n = 257;
        let edges = star(n);
        let r = bfs_rounds(n, &edges, 1024, 1, false);
        assert!(r.rounds >= 250, "hub serialization: {} rounds", r.rounds);
    }

    #[test]
    fn ghosts_remove_the_hub_term() {
        let n = 257;
        let edges = star(n);
        let no_g = bfs_rounds(n, &edges, 1024, 1, false);
        let with_g = bfs_rounds(n, &edges, 8, 1, true);
        assert!(
            with_g.rounds * 4 < no_g.rounds,
            "ghosts must collapse the d_in term: {} vs {}",
            with_g.rounds,
            no_g.rounds
        );
        assert!(with_g.ghost_filtered > 0);
    }

    #[test]
    fn levels_are_still_correct_with_ghosts() {
        // ghosts are a filter, not a semantic change: visitor counts differ
        // but reachability/rounds remain plausible on a scale-free graph
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(3);
        let a = bfs_rounds(gen.num_vertices(), &edges, 16, 0, false);
        let b = bfs_rounds(gen.num_vertices(), &edges, 16, 0, true);
        assert!(b.visitors <= a.visitors, "filtering cannot add work");
        assert!(b.rounds <= a.rounds + 5, "{} vs {}", b.rounds, a.rounds);
    }

    #[test]
    fn rounds_respect_paper_bound_shape() {
        let gen = RmatGenerator::graph500(9);
        let edges = gen.symmetric_edges(77);
        let n = gen.num_vertices();
        for p in [4usize, 16, 64] {
            let r = bfs_rounds(n, &edges, p, 0, false);
            // measured diameter via the model itself (levels <= rounds)
            let bound = bfs_bound_no_ghosts(64, edges.len() as u64, p, n);
            assert!(r.rounds <= 4 * bound, "p={p}: rounds {} far above bound {bound}", r.rounds);
        }
    }

    #[test]
    fn kcore_model_agrees_with_peeling() {
        // path 0-1-2-3-4 under k=2 collapses entirely; visitors must cover
        // the initial wave plus the cascade
        let mut edges = Vec::new();
        for v in 0..4u64 {
            edges.push(Edge::new(v, v + 1));
            edges.push(Edge::new(v + 1, v));
        }
        let r = kcore_rounds(5, &edges, 4, 2);
        assert!(r.visitors >= 5, "at least the initial visitors: {r:?}");
        // serial: rounds ~ visitors
        let serial = kcore_rounds(5, &edges, 1, 2);
        assert_eq!(serial.rounds, serial.visitors);
    }

    #[test]
    fn kcore_hub_term_persists_without_ghosts() {
        // star graph, k=2: every leaf dies, each sends a decrement to the
        // hub; the hub can absorb only one per round -> rounds >= d_in
        let n = 257;
        let edges = star(n);
        let r = kcore_rounds(n, &edges, 4096, 2);
        assert!(
            r.rounds >= n - 2,
            "k-core cannot use ghosts; hub serialization expected: {} rounds",
            r.rounds
        );
    }

    #[test]
    fn triangle_model_counts_correctly() {
        // K5 has 10 triangles
        let mut edges = Vec::new();
        for a in 0..5u64 {
            for b in 0..5u64 {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        let r = triangle_rounds(5, &edges, 8);
        assert_eq!(r.ghost_filtered, 10, "model must count K5's triangles");
    }

    #[test]
    fn triangle_rounds_scale_with_max_degree() {
        // same size, different hub mass: hub-heavy graphs take more rounds
        let gen_hub = havoq_graph::gen::pa::PaGenerator::new(512, 4);
        let hub_edges = gen_hub.symmetric_edges(3);
        let gen_flat = havoq_graph::gen::smallworld::SmallWorldGenerator::new(512, 8);
        let flat_edges = gen_flat.symmetric_edges(3);
        let hub = triangle_rounds(512, &hub_edges, 64);
        let flat = triangle_rounds(512, &flat_edges, 64);
        assert!(
            hub.visitors > flat.visitors,
            "hubby PA should generate more length-2 work: {} vs {}",
            hub.visitors,
            flat.visitors
        );
    }

    #[test]
    fn more_processors_never_hurt() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(5);
        let r4 = bfs_rounds(gen.num_vertices(), &edges, 4, 0, false);
        let r64 = bfs_rounds(gen.num_vertices(), &edges, 64, 0, false);
        assert!(r64.rounds <= r4.rounds);
    }
}
