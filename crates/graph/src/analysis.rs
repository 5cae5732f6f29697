//! Degree censuses and hub statistics (paper Figure 1).

use crate::types::Edge;

/// Out-degree census over a streamed edge list.
pub struct DegreeCensus {
    degrees: Vec<u64>,
}

impl DegreeCensus {
    pub fn from_edges(num_vertices: u64, edges: impl Iterator<Item = Edge>) -> Self {
        let mut degrees = vec![0u64; num_vertices as usize];
        for e in edges {
            degrees[e.src as usize] += 1;
        }
        Self { degrees }
    }

    /// Undirected census (count both endpoints of each directed edge).
    pub fn undirected_from_edges(num_vertices: u64, edges: impl Iterator<Item = Edge>) -> Self {
        let mut degrees = vec![0u64; num_vertices as usize];
        for e in edges {
            degrees[e.src as usize] += 1;
            degrees[e.dst as usize] += 1;
        }
        Self { degrees }
    }

    pub fn degrees(&self) -> &[u64] {
        &self.degrees
    }

    pub fn max_degree(&self) -> u64 {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Total edges belonging to vertices with degree >= `threshold`
    /// (Figure 1's "edges on hubs" series).
    pub fn edges_on_hubs(&self, threshold: u64) -> u64 {
        self.degrees.iter().filter(|&&d| d >= threshold).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rmat::RmatGenerator;

    #[test]
    fn census_counts_out_degree() {
        let edges = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 0)];
        let c = DegreeCensus::from_edges(3, edges.into_iter());
        assert_eq!(c.degrees(), &[2, 1, 0]);
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn undirected_census_counts_both_ends() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let c = DegreeCensus::undirected_from_edges(3, edges.into_iter());
        assert_eq!(c.degrees(), &[1, 2, 1]);
    }

    #[test]
    fn hub_metrics() {
        let c = DegreeCensus { degrees: vec![100, 5, 5, 50] };
        assert_eq!(c.edges_on_hubs(50), 150);
        assert_eq!(c.edges_on_hubs(10), 150);
        assert_eq!(c.edges_on_hubs(1000), 0);
        assert_eq!(c.max_degree(), 100);
    }

    /// Figure 1's qualitative claim: hub mass grows with scale while mean
    /// degree stays ~2x edge factor (directed census of symmetric list).
    #[test]
    fn hub_growth_with_scale() {
        let mass: Vec<u64> = [10u32, 12, 14]
            .iter()
            .map(|&s| {
                let g = RmatGenerator::graph500(s);
                let c = DegreeCensus::from_edges(g.num_vertices(), g.edges(7).into_iter());
                c.edges_on_hubs(256)
            })
            .collect();
        assert!(mass[0] < mass[1] && mass[1] < mass[2], "hub mass must grow: {mass:?}");
    }
}
