//! Asynchronous distributed termination detection (paper Section V,
//! `global_empty()`, citing Mattern's counting algorithms).
//!
//! The detector runs repeated O(log p) reduction waves over a binomial tree.
//! Each rank contributes `(sent, received, stable)` where `sent`/`received`
//! are its end-to-end payload counters and `stable` means *idle now and no
//! counter changed since my previous contribution*. Waves are sequenced by a
//! root broadcast, so every rank's window between two consecutive
//! contributions contains the instant the root combined the previous wave;
//! if every rank was stable across that common instant and the global send
//! and receive totals agree, there were no in-flight messages and no local
//! work at that instant — the traversal has terminated. This is Mattern's
//! four-counter ("double counting") method specialized to monotonic
//! counters.
//!
//! The check is fully asynchronous: waves piggyback on the normal polling
//! loop and only the final, already-quiescent wave pair costs synchronous
//! latency — exactly the property the paper highlights.

use crate::collectives::{tree_children, tree_parent};
use crate::runtime::RankCtx;
use crate::transport::Transport;

enum TermMsg {
    /// Child -> parent: subtree totals for `wave`. `flag` is the AND of the
    /// subtree's user flags (see [`Quiescence::poll_cut`]).
    Up { wave: u64, sent: u64, recv: u64, stable: bool, flag: bool },
    /// Parent -> child: root decision for `wave`, with the global flag AND.
    /// `abort` carries the stall watchdog's verdict (see
    /// [`Quiescence::arm_watchdog`]); it is only ever true when `terminate`
    /// is false, and every rank surfaces it as [`CutVerdict::Abort`].
    Down { wave: u64, terminate: bool, abort: bool, flag: bool },
}

/// What a completed detector wave decided, as surfaced by
/// [`Quiescence::poll_cut`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutVerdict {
    /// A non-terminal consistent cut confirmed (global flag AND was false);
    /// the detector rearmed for further cuts.
    Cut,
    /// Global quiescence confirmed with a true flag; sticky.
    Terminate,
    /// The stall watchdog fired: the world has been stable with
    /// `sent != recv` — in-flight traffic that is provably not being
    /// delivered — for the armed number of consecutive waves. Every rank
    /// receives the same verdict on the same wave; sticky.
    Abort,
}

/// Per-rank handle on the termination-detection protocol.
pub struct Quiescence {
    ch: Transport<TermMsg>,
    parent: Option<usize>,
    children: Vec<usize>,
    wave: u64,
    /// Accumulated child contributions for the current wave.
    child_sent: u64,
    child_recv: u64,
    child_stable: bool,
    child_flag: bool,
    children_seen: usize,
    contributed: bool,
    prev_contrib: Option<(u64, u64)>,
    terminated: bool,
    waves_run: u64,
    /// Consistent cuts confirmed with a false global flag (see
    /// [`Quiescence::poll_cut`]).
    cuts_fired: u64,
    /// Stall watchdog: abort after this many consecutive completed waves in
    /// which the world was stable but `sent != recv` (root-side count).
    watchdog_waves: Option<u64>,
    /// Root-side count of consecutive stalled waves (see above).
    stalled_waves: u64,
    /// Sticky abort verdict (set on every rank by the root's broadcast).
    aborted: bool,
}

impl Quiescence {
    /// Open the detector. Collective: every rank must call with the same
    /// `instance` id (allows several independent traversals per world).
    pub fn new(ctx: &RankCtx, instance: u64) -> Self {
        let tag = crate::registry::TERMINATION_TAG_BASE + instance;
        let ch = ctx.channel_internal::<TermMsg>(tag);
        Self {
            parent: tree_parent(ctx.rank()),
            children: tree_children(ctx.rank(), ctx.size()),
            ch,
            wave: 0,
            child_sent: 0,
            child_recv: 0,
            child_stable: true,
            child_flag: true,
            children_seen: 0,
            contributed: false,
            prev_contrib: None,
            terminated: false,
            waves_run: 0,
            cuts_fired: 0,
            watchdog_waves: None,
            stalled_waves: 0,
            aborted: false,
        }
    }

    /// Arm the stall watchdog: if `waves` consecutive completed waves see a
    /// globally stable world whose send and receive totals disagree — every
    /// rank idle, nothing moving, yet messages in flight that are never
    /// delivered — the root broadcasts an abort verdict and every rank's
    /// [`Quiescence::poll_cut`] returns [`CutVerdict::Abort`] on
    /// the same wave. That signature cannot occur at a true quiescent point
    /// and is exactly what a hard receive stall (a dead NIC, a wedged peer)
    /// looks like; transient faults reset the count as soon as a delivery
    /// moves a counter. Collective: every rank must arm the same limit.
    ///
    /// Pick `waves` large enough to outlast legitimate repair traffic
    /// (NACK/RTO retransmission holds the stable-but-unbalanced signature
    /// for up to ~RTO sender ticks, roughly one wave per tick) — thousands
    /// of waves, not dozens, under lossy fault plans.
    pub fn arm_watchdog(&mut self, waves: u64) {
        self.watchdog_waves = Some(waves.max(1));
    }

    fn reset_wave(&mut self) {
        self.wave += 1;
        self.child_sent = 0;
        self.child_recv = 0;
        self.child_stable = true;
        self.child_flag = true;
        self.children_seen = 0;
        self.contributed = false;
        self.waves_run += 1;
    }

    /// Advance the protocol with this rank's current counters; returns true
    /// once global quiescence is confirmed (sticky).
    ///
    /// `sent`/`recv` must be monotonically non-decreasing end-to-end payload
    /// counters; `idle` must only be true when this rank has no queued work
    /// and no un-flushed outgoing buffers.
    pub fn poll(&mut self, sent: u64, recv: u64, idle: bool) -> bool {
        self.poll_cut(sent, recv, idle, true) == Some(CutVerdict::Terminate)
    }

    /// Generalized, reusable quiescence: confirm a *consistent cut* — an
    /// instant with no in-flight messages — without necessarily stopping the
    /// detector. All ranks contribute `ready` (counted into `stable` exactly
    /// like `idle` in [`Quiescence::poll`]) and a user `flag`; when a wave
    /// confirms global readiness with `sent == recv`, `poll_cut` returns
    /// the same verdict on every rank: [`CutVerdict::Terminate`] (sticky,
    /// like `poll`) if the AND of all flags at the cut is true, otherwise
    /// [`CutVerdict::Cut`], after which the detector resets and can confirm
    /// further cuts.
    ///
    /// Checkpointed traversals pass `flag = "no local work queued"`, so a
    /// cut with all ranks drained reads as termination while a cut forced by
    /// a checkpoint threshold reads as a checkpointable barrier with the
    /// frontier parked in local heaps; level-synchronous engines pass
    /// `flag = false` and use every cut as a round barrier.
    ///
    /// With the stall watchdog armed (see [`Quiescence::arm_watchdog`]) a
    /// wave can instead end in [`CutVerdict::Abort`] — sticky and
    /// world-agreed; it is never returned by an unarmed detector.
    pub fn poll_cut(
        &mut self,
        sent: u64,
        recv: u64,
        ready: bool,
        flag: bool,
    ) -> Option<CutVerdict> {
        if self.aborted {
            return Some(CutVerdict::Abort);
        }
        if self.terminated {
            return Some(CutVerdict::Terminate);
        }
        if self.ch.is_poisoned() {
            // a peer rank panicked: detection can never complete, so join
            // the world-wide shutdown instead of spinning forever
            panic!("termination detector aborting: a peer rank panicked");
        }
        // Drain protocol messages.
        while let Some((_src, msg)) = self.ch.try_recv() {
            match msg {
                TermMsg::Up { wave, sent, recv, stable, flag } => {
                    debug_assert_eq!(wave, self.wave, "child wave skew");
                    self.child_sent += sent;
                    self.child_recv += recv;
                    self.child_stable &= stable;
                    self.child_flag &= flag;
                    self.children_seen += 1;
                }
                TermMsg::Down { wave, terminate, abort, flag } => {
                    debug_assert_eq!(wave, self.wave, "parent wave skew");
                    for &c in &self.children {
                        self.ch.send(c, TermMsg::Down { wave, terminate, abort, flag });
                    }
                    if abort {
                        self.aborted = true;
                        return Some(CutVerdict::Abort);
                    }
                    if terminate {
                        return Some(self.finish_cut(flag));
                    }
                    self.reset_wave();
                }
            }
        }
        // Contribute (and combine upward) once all children have reported.
        if !self.contributed && self.children_seen == self.children.len() {
            let stable = ready && self.prev_contrib == Some((sent, recv));
            self.prev_contrib = Some((sent, recv));
            self.contributed = true;
            let tot_sent = self.child_sent + sent;
            let tot_recv = self.child_recv + recv;
            let tot_stable = self.child_stable && stable;
            let tot_flag = self.child_flag && flag;
            match self.parent {
                Some(p) => {
                    self.ch.send(
                        p,
                        TermMsg::Up {
                            wave: self.wave,
                            sent: tot_sent,
                            recv: tot_recv,
                            stable: tot_stable,
                            flag: tot_flag,
                        },
                    );
                }
                None => {
                    let terminate = tot_stable && tot_sent == tot_recv;
                    // Root-side watchdog: a stable world with unbalanced
                    // totals is in-flight work that is not being delivered.
                    // Any wave that moves a counter (or finds a busy rank)
                    // resets the count, so only a persistent wedge aborts.
                    if tot_stable && tot_sent != tot_recv {
                        self.stalled_waves += 1;
                    } else {
                        self.stalled_waves = 0;
                    }
                    let abort =
                        !terminate && self.watchdog_waves.is_some_and(|w| self.stalled_waves >= w);
                    let wave = self.wave;
                    for &c in &self.children {
                        self.ch.send(c, TermMsg::Down { wave, terminate, abort, flag: tot_flag });
                    }
                    if abort {
                        self.aborted = true;
                        return Some(CutVerdict::Abort);
                    }
                    if terminate {
                        return Some(self.finish_cut(tot_flag));
                    }
                    self.reset_wave();
                }
            }
        }
        None
    }

    /// A wave just confirmed a cut with global flag AND `flag`: stick if
    /// terminal, otherwise rearm for the next cut. Clearing `prev_contrib`
    /// forces a full two-wave stability check before the next cut can fire.
    fn finish_cut(&mut self, flag: bool) -> CutVerdict {
        if flag {
            self.terminated = true;
            CutVerdict::Terminate
        } else {
            self.cuts_fired += 1;
            self.prev_contrib = None;
            self.reset_wave();
            CutVerdict::Cut
        }
    }

    /// Number of completed (non-terminating) waves — a measure of how often
    /// the detector cycled; useful in tests and experiments.
    pub fn waves_run(&self) -> u64 {
        self.waves_run
    }

    /// Number of non-terminal consistent cuts this detector confirmed.
    pub fn cuts_fired(&self) -> u64 {
        self.cuts_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{Mailbox, MailboxConfig};
    use crate::runtime::CommWorld;
    use crate::topology::TopologyKind;

    #[test]
    fn single_rank_terminates_immediately() {
        CommWorld::run(1, |ctx| {
            let mut q = Quiescence::new(ctx, 0);
            let mut polls = 0;
            while !q.poll(0, 0, true) {
                polls += 1;
                assert!(polls < 100, "should terminate within a few waves");
            }
        });
    }

    #[test]
    fn idle_world_terminates() {
        for p in [2usize, 3, 5, 8] {
            CommWorld::run(p, |ctx| {
                let mut q = Quiescence::new(ctx, 0);
                let mut polls = 0u64;
                while !q.poll(0, 0, true) {
                    polls += 1;
                    if polls.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                    assert!(polls < 1_000_000, "termination too slow");
                }
            });
        }
    }

    #[test]
    fn does_not_terminate_while_work_remains() {
        CommWorld::run(2, |ctx| {
            let mut q = Quiescence::new(ctx, 0);
            // rank 0 pretends to have one eternally-unreceived message
            let (sent, recv) = if ctx.rank() == 0 { (1, 0) } else { (0, 0) };
            for _ in 0..500 {
                assert!(!q.poll(sent, recv, true), "sent != recv must block termination");
            }
        });
    }

    #[test]
    fn does_not_terminate_while_any_rank_busy() {
        CommWorld::run(3, |ctx| {
            let mut q = Quiescence::new(ctx, 0);
            let idle = ctx.rank() != 1;
            for _ in 0..500 {
                assert!(!q.poll(0, 0, idle), "busy rank must block termination");
            }
        });
    }

    /// The canonical integration scenario: a random "token storm" over a
    /// mailbox, like a miniature visitor traversal. Each token with ttl > 0
    /// spawns a token with ttl-1 to a pseudo-random rank. Termination must
    /// fire only after every token has been processed.
    fn token_storm(p: usize, topo: TopologyKind, seed_tokens: usize, ttl: u32) {
        let totals = CommWorld::run(p, |ctx| {
            let mut mb = Mailbox::<u32>::open(
                ctx,
                7,
                MailboxConfig { topology: topo, batch_size: 4, ..MailboxConfig::default() },
            );
            let mut q = Quiescence::new(ctx, 3);
            let mut rng_state = (ctx.rank() as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            let mut next = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };
            let mut processed = 0u64;
            let mut queue: Vec<u32> = Vec::new();
            for _ in 0..seed_tokens {
                mb.send(next() as usize % p, ttl);
            }
            loop {
                mb.poll(&mut queue);
                if let Some(t) = queue.pop() {
                    processed += 1;
                    if t > 0 {
                        mb.send(next() as usize % p, t - 1);
                    }
                    continue;
                }
                mb.flush();
                let idle = queue.is_empty() && mb.pending_out() == 0;
                if q.poll(mb.sent_count(), mb.received_count(), idle) {
                    break;
                }
            }
            assert!(queue.is_empty());
            assert_eq!(mb.pending_out(), 0);
            (processed, mb.sent_count(), mb.received_count())
        });
        let processed: u64 = totals.iter().map(|t| t.0).sum();
        let sent: u64 = totals.iter().map(|t| t.1).sum();
        let recv: u64 = totals.iter().map(|t| t.2).sum();
        // every token is processed exactly once; chain length = ttl + 1
        assert_eq!(processed, (p * seed_tokens) as u64 * (ttl as u64 + 1));
        assert_eq!(sent, recv);
        assert_eq!(processed, recv);
    }

    #[test]
    fn token_storm_direct() {
        token_storm(4, TopologyKind::Direct, 8, 20);
    }

    #[test]
    fn token_storm_routed2d() {
        token_storm(9, TopologyKind::Routed2D, 5, 15);
    }

    #[test]
    fn token_storm_routed3d() {
        token_storm(8, TopologyKind::Routed3D, 5, 15);
    }

    #[test]
    fn token_storm_single_rank() {
        token_storm(1, TopologyKind::Direct, 10, 50);
    }

    /// The checkpoint-cut protocol: three non-terminal cuts (flag=false)
    /// must each fire exactly once on every rank, then a flag=true cut
    /// terminates and sticks.
    #[test]
    fn poll_cut_fires_repeatedly_then_terminates() {
        for p in [1usize, 2, 5, 8] {
            CommWorld::run(p, |ctx| {
                let mut q = Quiescence::new(ctx, 0);
                for cut in 0..3u64 {
                    let mut polls = 0u64;
                    loop {
                        match q.poll_cut(7, 7, true, false) {
                            Some(CutVerdict::Cut) => break,
                            Some(v) => panic!("flag=false cut produced {v:?}"),
                            None => {
                                polls += 1;
                                if polls.is_multiple_of(64) {
                                    std::thread::yield_now();
                                }
                                assert!(polls < 1_000_000, "cut {cut} too slow (p={p})");
                            }
                        }
                    }
                    assert_eq!(q.cuts_fired(), cut + 1);
                }
                let mut polls = 0u64;
                while q.poll_cut(7, 7, true, true) != Some(CutVerdict::Terminate) {
                    polls += 1;
                    if polls.is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                    assert!(polls < 1_000_000, "terminal cut too slow (p={p})");
                }
                // terminal cuts are sticky
                assert_eq!(q.poll_cut(7, 7, true, false), Some(CutVerdict::Terminate));
                assert!(q.poll(7, 7, true));
            });
        }
    }

    /// Readiness gates the cut: one rank polling `ready = false` blocks
    /// every cut, regardless of the flags the others contribute.
    #[test]
    fn poll_cut_blocks_on_unready_rank() {
        CommWorld::run(3, |ctx| {
            let mut q = Quiescence::new(ctx, 0);
            let ready = ctx.rank() != 2;
            for _ in 0..500 {
                assert_eq!(q.poll_cut(0, 0, ready, true), None);
            }
        });
    }

    #[test]
    fn detector_is_reusable_via_instances() {
        CommWorld::run(4, |ctx| {
            for instance in 0..3 {
                let mut q = Quiescence::new(ctx, instance);
                while !q.poll(5, 5, true) {}
            }
        });
    }

    /// An armed watchdog converts a persistent sent != recv imbalance
    /// (a receiver that will never drain) into a world-agreed Abort on
    /// every rank, instead of spinning forever.
    #[test]
    fn watchdog_aborts_on_persistent_imbalance() {
        for p in [1usize, 2, 4] {
            CommWorld::run(p, |ctx| {
                let mut q = Quiescence::new(ctx, 0);
                q.arm_watchdog(8);
                // rank 0 claims one message that is never delivered
                let (sent, recv) = if ctx.rank() == 0 { (1, 0) } else { (0, 0) };
                let mut polls = 0u64;
                loop {
                    match q.poll_cut(sent, recv, true, false) {
                        Some(CutVerdict::Abort) => break,
                        Some(v) => panic!("imbalanced world produced {v:?} (p={p})"),
                        None => {
                            polls += 1;
                            if polls.is_multiple_of(64) {
                                std::thread::yield_now();
                            }
                            assert!(polls < 1_000_000, "watchdog too slow (p={p})");
                        }
                    }
                }
                // aborts are sticky
                assert_eq!(q.poll_cut(sent, recv, true, false), Some(CutVerdict::Abort));
            });
        }
    }

    /// A balanced, idle world terminates normally even with the watchdog
    /// armed — the stall counter only advances on stable-but-unbalanced
    /// waves, which never occur here.
    #[test]
    fn watchdog_does_not_fire_on_clean_termination() {
        for p in [1usize, 2, 4] {
            CommWorld::run(p, |ctx| {
                let mut q = Quiescence::new(ctx, 0);
                q.arm_watchdog(2);
                let mut polls = 0u64;
                loop {
                    match q.poll_cut(3, 3, true, true) {
                        Some(CutVerdict::Terminate) => break,
                        Some(v) => panic!("clean world produced {v:?} (p={p})"),
                        None => {
                            polls += 1;
                            if polls.is_multiple_of(64) {
                                std::thread::yield_now();
                            }
                            assert!(polls < 1_000_000, "termination too slow (p={p})");
                        }
                    }
                }
            });
        }
    }

    /// Non-terminal cuts fire normally under an armed watchdog: the
    /// detector still reports `Cut` for flag=false waves and only
    /// escalates when imbalance persists across full waves.
    #[test]
    fn watchdog_allows_nonterminal_cuts() {
        CommWorld::run(3, |ctx| {
            let mut q = Quiescence::new(ctx, 0);
            q.arm_watchdog(1000);
            for cut in 0..3u64 {
                let mut polls = 0u64;
                loop {
                    match q.poll_cut(9, 9, true, false) {
                        Some(CutVerdict::Cut) => break,
                        Some(v) => panic!("non-terminal cut produced {v:?}"),
                        None => {
                            polls += 1;
                            if polls.is_multiple_of(64) {
                                std::thread::yield_now();
                            }
                            assert!(polls < 1_000_000, "cut {cut} too slow");
                        }
                    }
                }
                assert_eq!(q.cuts_fired(), cut + 1);
            }
        });
    }
}
