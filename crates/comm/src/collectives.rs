//! Blocking collective operations built from point-to-point sends.
//!
//! The paper's framework only assumes non-blocking point-to-point MPI plus
//! the handful of collectives any MPI implementation provides (reductions for
//! triangle totals, barriers around timing regions, all-to-all for the
//! distributed edge-list sort). These are implemented here over a binomial
//! tree so the simulated transport carries the same O(p log p) message
//! pattern a real MPI would.
//!
//! SPMD contract: every rank must invoke every collective in the same order.
//!
//! # One tree for every collective
//!
//! Every tree-shaped collective is [`RankCtx::all_reduce`] over a suitable
//! monoid, and every `all_reduce` of a world runs over the *same* channel —
//! the reduction tree [`RankCtx`] opens at world start — carrying its
//! partials as `Box<dyn Any>`. A call costs its 2(p − 1) messages and
//! nothing else: no channel set, no registry entry, no tag.
//!
//! Consecutive collectives cannot interleave on that channel. The tree is
//! fixed (binomial, rooted at rank 0), channels are FIFO per (source,
//! destination) pair, and a collective sends one message up and one down
//! each tree edge: a child cannot send its partial of k + 1 before its
//! parent has sent it the result of k, and a parent cannot send a child the
//! result of k before that child's partial of k has arrived. So while a
//! rank waits for its children's partials of collective k nothing else can
//! reach it, and while it waits for its parent's result of k only that can:
//! no rank receives a message of collective k + 1 before it has finished
//! its receives of k. Every message carries its collective's number and
//! `all_reduce` debug-asserts the claim on each receive. Ranks that
//! disagree on *which* collective is number k (an SPMD violation) disagree
//! on the partial's type, which the downcast turns into a panic naming it.
//!
//! [`RankCtx::all_to_allv`] is the exception: its p² messages are not
//! tree-shaped (a fast rank's next round could overtake a slow peer's
//! receives) and it runs O(1) times per graph build, so it alone opens a
//! channel set per call — retired from the registry once every rank holds
//! its end, freed when the call returns.

use std::any::type_name;

use crate::runtime::RankCtx;
use crate::stats::EventCounts;

/// Binomial-tree parent of `rank` (root 0 has none): clear the lowest set bit.
#[inline]
pub fn tree_parent(rank: usize) -> Option<usize> {
    if rank == 0 {
        None
    } else {
        Some(rank & (rank - 1))
    }
}

/// Binomial-tree children of `rank` in a world of `ranks`.
pub fn tree_children(rank: usize, ranks: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let lowbit = if rank == 0 { usize::MAX } else { rank & rank.wrapping_neg() };
    let mut bit = 1usize;
    while bit < lowbit && bit < ranks {
        let c = rank | bit;
        if c != rank && c < ranks {
            out.push(c);
        }
        bit <<= 1;
    }
    out
}

impl RankCtx {
    /// Reduce `value` with `op` across all ranks; every rank gets the result.
    /// Partials are folded in arrival order, so `op` should be associative
    /// and commutative.
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        let rank = self.rank();
        let round = self.tree_round.replace(self.tree_round.get() + 1);
        let (parent, children) = (tree_parent(rank), tree_children(rank, self.size()));
        // The next partial of this collective, from a child or from the parent.
        let recv = |down: bool| -> T {
            let (src, (sent_in, partial)) = self.tree.recv_blocking(self);
            debug_assert!(
                sent_in == round && (parent == Some(src)) == down,
                "rank {rank} in collective {round} (down={down}) got rank {src}'s of {sent_in}"
            );
            *partial.downcast::<T>().unwrap_or_else(|_| {
                panic!(
                    "collective type skew: rank {src} is not in the all_reduce::<{}> that rank \
                     {rank} entered as collective {round} (SPMD violation)",
                    type_name::<T>()
                )
            })
        };

        // Upward phase: fold children's partial results into ours.
        let mut acc = value;
        for _ in &children {
            acc = op(acc, recv(false));
        }
        // Downward phase: the root's total comes back the same way.
        if let Some(p) = parent {
            self.tree.send(p, (round, Box::new(acc)));
            acc = recv(true);
        }
        for &c in &children {
            self.tree.send(c, (round, Box::new(acc.clone())));
        }
        acc
    }

    /// Sum-reduction convenience used throughout the experiments.
    pub fn all_reduce_sum(&self, v: u64) -> u64 {
        self.all_reduce(v, u64::wrapping_add)
    }

    /// Element-wise sum of equal-length vectors: many counters, one
    /// collective.
    pub fn all_reduce_sum_vec(&self, v: Vec<u64>) -> Vec<u64> {
        self.all_reduce(v, |mut a, b| {
            a.iter_mut().zip(b).for_each(|(x, y)| *x = x.wrapping_add(y));
            a
        })
    }

    /// World totals of a per-rank event view: all counters in one vector
    /// all-reduce.
    pub fn all_reduce_events(&self, v: EventCounts) -> EventCounts {
        self.all_reduce(v, |mut a, b| {
            a += b;
            a
        })
    }

    /// Max-reduction convenience.
    pub fn all_reduce_max(&self, v: u64) -> u64 {
        self.all_reduce(v, u64::max)
    }

    /// Min-reduction convenience.
    pub fn all_reduce_min(&self, v: u64) -> u64 {
        self.all_reduce(v, u64::min)
    }

    /// Synchronize all ranks (reduce + broadcast of a unit token).
    pub fn barrier(&self) {
        self.all_reduce((), |(), ()| ())
    }

    /// Broadcast `value` from `root` to every rank: the reduction in which
    /// only `root` contributes.
    pub fn broadcast<T>(&self, root: usize, value: Option<T>) -> T
    where
        T: Send + Clone + 'static,
    {
        assert!(root < self.size());
        assert!(self.rank() != root || value.is_some(), "broadcast root must supply a value");
        self.all_reduce(value.filter(|_| self.rank() == root), Option::or)
            .expect("the root contributed a value")
    }

    /// Gather one value from every rank onto every rank, indexed by rank.
    pub fn all_gather<T>(&self, value: T) -> Vec<T>
    where
        T: Send + Clone + 'static,
    {
        let mut all = self.all_reduce(vec![(self.rank(), value)], |mut a, mut b| {
            a.append(&mut b);
            a
        });
        all.sort_unstable_by_key(|&(rank, _)| rank);
        all.into_iter().map(|(_, v)| v).collect()
    }

    /// Exclusive prefix sum of `value` over rank order (rank 0 gets 0).
    ///
    /// With the modest rank counts of the simulation an all-gather followed
    /// by a local prefix is both simple and optimal enough.
    pub fn exscan_sum(&self, value: u64) -> u64 {
        self.all_gather(value)[..self.rank()].iter().sum()
    }

    /// Personalized all-to-all: `outgoing[d]` is sent to rank `d`; returns
    /// `incoming[s]` = what rank `s` sent here. Used by the distributed
    /// edge-list sample sort. Not tree-shaped, so it runs over a channel
    /// set of its own (see the module docs).
    pub fn all_to_allv<T>(&self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
    {
        let p = self.size();
        assert_eq!(outgoing.len(), p, "all_to_allv needs one bucket per rank");
        let ch = self.channel_internal::<Vec<T>>(self.next_collective_tag());
        for (dst, buf) in outgoing.into_iter().enumerate() {
            ch.send(dst, buf);
        }
        let mut incoming: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        for _ in 0..p {
            let (src, buf) = ch.recv_blocking(self);
            assert!(incoming[src].is_none(), "duplicate all_to_allv message from {src}");
            incoming[src] = Some(buf);
        }
        incoming.into_iter().map(|o| o.expect("one bucket from every rank")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::CommWorld;
    use havoq_util::testing::TestRng;

    #[test]
    fn tree_shape_is_consistent() {
        for p in [1usize, 2, 3, 5, 8, 13, 16, 31] {
            for r in 0..p {
                for c in tree_children(r, p) {
                    assert_eq!(tree_parent(c), Some(r), "p={p} r={r} c={c}");
                    assert!(c < p);
                }
            }
            // every non-root rank is some rank's child exactly once
            let mut seen = vec![0usize; p];
            for r in 0..p {
                for c in tree_children(r, p) {
                    seen[c] += 1;
                }
            }
            assert_eq!(seen[0], 0);
            assert!(seen[1..].iter().all(|&s| s == 1), "p={p}: {seen:?}");
        }
    }

    #[test]
    fn all_reduce_sum_works_for_awkward_sizes() {
        for p in [1usize, 2, 3, 5, 7, 12, 16] {
            let expect: u64 = (0..p as u64).sum();
            let got = CommWorld::run(p, |ctx| {
                let me = ctx.rank() as u64;
                let sum = ctx.all_reduce_sum(me);
                // the vector form agrees element-wise, wraps, and takes
                // the empty vector
                let vec = ctx.all_reduce_sum_vec(vec![me, 2 * me, u64::MAX]);
                assert_eq!(vec, [sum, 2 * sum, (p as u64).wrapping_neg()], "p={p}");
                assert!(ctx.all_reduce_sum_vec(Vec::new()).is_empty(), "p={p}");
                sum
            });
            assert!(got.iter().all(|&g| g == expect), "p={p}: {got:?}");
        }
    }

    #[test]
    fn all_reduce_min_max() {
        let got = CommWorld::run(5, |ctx| {
            let v = (ctx.rank() as u64 + 3) * 7 % 11;
            (ctx.all_reduce_min(v), ctx.all_reduce_max(v))
        });
        let vals: Vec<u64> = (0..5u64).map(|r| (r + 3) * 7 % 11).collect();
        let (lo, hi) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        assert!(got.iter().all(|&g| g == (lo, hi)));
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..4 {
            let got = CommWorld::run(4, |ctx| {
                let v = if ctx.rank() == root { Some(root as u64 * 11 + 1) } else { None };
                ctx.broadcast(root, v)
            });
            assert!(got.iter().all(|&g| g == root as u64 * 11 + 1));
        }
    }

    #[test]
    fn all_gather_orders_by_rank() {
        let got = CommWorld::run(6, |ctx| ctx.all_gather(ctx.rank() as u64 * 2));
        for g in got {
            assert_eq!(g, vec![0, 2, 4, 6, 8, 10]);
        }
    }

    #[test]
    fn exscan_matches_prefix() {
        let got = CommWorld::run(5, |ctx| ctx.exscan_sum(ctx.rank() as u64 + 1));
        assert_eq!(got, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn all_to_allv_transposes() {
        let p = 4;
        let got = CommWorld::run(p, |ctx| {
            let out: Vec<Vec<u64>> =
                (0..p).map(|d| vec![(ctx.rank() * 10 + d) as u64; d + 1]).collect();
            ctx.all_to_allv(out)
        });
        for (me, incoming) in got.iter().enumerate() {
            for (src, buf) in incoming.iter().enumerate() {
                assert_eq!(buf.len(), me + 1);
                assert!(buf.iter().all(|&v| v == (src * 10 + me) as u64));
            }
        }
    }

    /// Every collective kind, every broadcast root and the one non-tree
    /// collective, back to back over the world's single tree channel, with
    /// each rank entering each call after a seeded burst of yields so fast
    /// ranks run ahead of slow ones differently every call.
    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        for p in [1usize, 2, 3, 5, 7, 16] {
            CommWorld::run(p, |ctx| {
                let (me, n) = (ctx.rank() as u64, p as u64);
                let mut rng = TestRng::new(0xC011 ^ (n << 8) ^ me);
                let mut stagger = || (0..rng.below(4)).for_each(|_| std::thread::yield_now());
                let ranks_sum = n * (n - 1) / 2;
                for i in 0..20u64 {
                    stagger();
                    assert_eq!(ctx.all_reduce_sum(i + me), n * i + ranks_sum, "p={p} i={i}");
                    stagger();
                    assert_eq!(ctx.all_reduce_max(i * me), i * (n - 1));
                    stagger();
                    assert_eq!(ctx.all_reduce_min(i + me), i);
                    stagger();
                    assert_eq!(ctx.all_reduce_sum_vec(vec![me, i]), [ranks_sum, n * i]);
                    stagger();
                    ctx.barrier();
                    stagger();
                    let root = (i as usize) % p;
                    let word = format!("{i} from {root}");
                    let sent = (ctx.rank() == root).then(|| word.clone());
                    assert_eq!(ctx.broadcast(root, sent), word);
                    stagger();
                    let gathered = ctx.all_gather((me, i));
                    assert_eq!(gathered, (0..n).map(|r| (r, i)).collect::<Vec<_>>());
                    stagger();
                    assert_eq!(ctx.exscan_sum(me + i), (0..me).sum::<u64>() + me * i);
                    stagger();
                    let out = (0..n).map(|d| vec![me * 100 + d; (i % 3) as usize]).collect();
                    for (src, buf) in ctx.all_to_allv::<u64>(out).into_iter().enumerate() {
                        assert_eq!(buf, vec![src as u64 * 100 + me; (i % 3) as usize]);
                    }
                }
            });
        }
    }

    /// What the flatness regressions run: sum-reductions, gathers and a
    /// broadcast from every root, checked, with the registry's live-entry
    /// count sampled at a barrier before and after.
    fn assert_collectives_stay_flat(p: usize, sums: u64, gathers: u64) {
        CommWorld::run(p, |ctx| {
            let (me, n) = (ctx.rank() as u64, p as u64);
            ctx.barrier(); // every rank holds its end of the tree
            let before = ctx.world.registry.len();
            for i in 0..sums {
                assert_eq!(ctx.all_reduce_sum(i + me), n * i + n * (n - 1) / 2);
            }
            for i in 0..gathers {
                assert_eq!(ctx.all_gather(i + me), (i..i + n).collect::<Vec<_>>());
            }
            for root in 0..p {
                assert_eq!(ctx.broadcast(root, (ctx.rank() == root).then_some(root)), root);
            }
            ctx.barrier();
            assert_eq!(
                (before, ctx.world.registry.len()),
                (0, 0),
                "p={p}: a collective left a set"
            );
        });
    }

    /// A collective costs messages, not a registered channel set.
    #[test]
    fn collectives_stay_flat() {
        for p in [2usize, 5, 16] {
            assert_collectives_stay_flat(p, 10_000, 200);
        }
    }

    /// The CI guard (release, `--include-ignored`): at p = 64 an
    /// O(p²)-per-call collective turns 2000 calls into a timeout.
    #[test]
    #[ignore = "64 rank threads; run in release by the CI test job"]
    fn collectives_stay_flat_at_p64() {
        assert_collectives_stay_flat(64, 2000, 20);
    }

    /// Ranks that disagree on which collective comes next used to hang on
    /// two different channels; on the shared tree the partial's type gives
    /// the disagreement away.
    #[test]
    #[should_panic(expected = "collective type skew")]
    fn mismatched_collectives_panic_instead_of_hanging() {
        CommWorld::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.all_reduce(1u64, |a, b| a + b);
            } else {
                ctx.all_reduce(1u32, |a, b| a + b);
            }
        });
    }

    #[test]
    fn barrier_many_times() {
        CommWorld::run(7, |ctx| {
            for _ in 0..50 {
                ctx.barrier();
            }
        });
    }
}
