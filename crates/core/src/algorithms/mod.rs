//! Traversal algorithms built on the distributed visitor queue.
//!
//! The three algorithms of the paper's Section VI — [`bfs`], [`kcore`] and
//! [`triangle`] — plus the two visitor algorithms of the authors' earlier
//! shared/external-memory work (\[4\]) that the framework supports unchanged:
//! [`cc`] (connected components) and [`sssp`] (single-source shortest
//! paths, the prioritized-queue showcase).

pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod sssp;
pub mod triangle;
pub mod validate;
pub mod wedge;
