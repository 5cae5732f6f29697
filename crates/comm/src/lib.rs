//! Simulated distributed message-passing runtime for the HavoqGT reproduction.
//!
//! The paper (Pearce et al., IPDPS 2013) implements its distributed visitor
//! queue on top of non-blocking point-to-point MPI. This crate provides the
//! same primitives for a *simulated* cluster in which every MPI rank is an OS
//! thread:
//!
//! - [`CommWorld::run`] launches an SPMD region: `p` rank threads all execute
//!   the same closure, exactly like `mpirun -np p`.
//! - [`Transport`] is a typed non-blocking point-to-point channel between all
//!   ranks, with per-channel-pair traffic statistics.
//! - [`collectives`] provides barrier / reduce / gather / scan / all-to-all,
//!   built purely from point-to-point sends (binomial trees), matching what
//!   MPI gives the paper.
//! - [`Mailbox`] is the paper's `send(rank, data)` / `receive()` abstraction
//!   with message aggregation and optional 2D / 3D synthetic routing
//!   topologies (Section III-B, Figure 4).
//! - [`Quiescence`] is the asynchronous termination detector used by
//!   `global_empty()` (Section V, citing Mattern's counting algorithms).
//!   It is polled from one place, the visitor queue's driver; a plane that
//!   must settle with a traversal (cancels, frontier words) is a second
//!   [`Mailbox`] counted into that same poll, not a detector of its own.
//!
//! Because ranks are threads, all communication-volume metrics — messages per
//! channel pair, aggregation factors, routing hop counts — are structurally
//! identical to what a real network would carry; only absolute latencies
//! differ. See DESIGN.md at the workspace root for the substitution argument.

#![forbid(unsafe_code)]

pub mod chan;
pub mod codec;
pub mod collectives;
pub mod control;
pub mod fault;
pub mod mailbox;
pub mod registry;
pub mod runtime;
pub mod stats;
pub mod termination;
pub mod topology;
pub mod transport;

pub use codec::{Frame, FramePool, WireCodec, FRAME_HEADER_BYTES, RECORD_DST_BYTES};
pub use control::CancelRecord;
pub use fault::{FaultConfig, FaultPlan};
pub use mailbox::{
    Mailbox, MailboxConfig, MailboxStatsSnapshot, SendShard, DEFAULT_CHANNEL_CAPACITY,
};
pub use runtime::{CommWorld, RankCtx};
pub use stats::{ChannelStats, ChannelStatsSnapshot, Event, EventCounts};
pub use termination::{CutVerdict, Quiescence};
pub use topology::{Topology, TopologyKind};
pub use transport::Transport;
