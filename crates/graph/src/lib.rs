//! Scale-free graph generation, partitioning and storage for the HavoqGT
//! reproduction.
//!
//! This crate provides every graph-side substrate the paper depends on:
//!
//! - [`gen`] — the three synthetic models of Section VII-A: Graph500 V1.2
//!   RMAT, preferential attachment with optional random rewiring, and
//!   Watts–Strogatz small-world with rewiring; plus the uniform vertex
//!   permutation the paper applies to destroy generator locality.
//! - [`sort`] — a distributed sample sort producing the globally sorted,
//!   evenly split edge list that *edge list partitioning* requires
//!   (Section III-A1).
//! - [`partition`] — partition assignment functions for 1D, 2D and
//!   edge-list partitioning plus the imbalance metric of Figure 2.
//! - [`csr`] — local compressed-sparse-row storage, in memory, semi-external
//!   (offsets in DRAM, targets behind the NVRAM page cache), or
//!   semi-external *gap-compressed* (varint-delta adjacency bytes behind
//!   the cache, decoded per slice — DESIGN.md §14).
//! - [`varint`] — the LEB128 gap codec the compressed CSR encodes with.
//! - [`dist`] — [`dist::DistGraph`]: the per-rank partitioned graph with
//!   `min_owner` / `max_owner`, split-vertex replica chains, global degrees
//!   and ghost candidates, built collectively over a `havoq-comm` world.
//! - [`analysis`] — degree censuses and hub statistics (Figure 1).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod csr;
pub mod dist;
pub mod gen;
pub mod io;
pub mod partition;
pub mod sort;
pub mod types;
pub mod varint;

pub use csr::{CsrStorage, GraphConfig, LocalCsr};
pub use dist::{DistGraph, PartitionStrategy};
pub use types::{Edge, VertexId};
