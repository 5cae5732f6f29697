//! Blocking collective operations built from point-to-point sends.
//!
//! The paper's framework only assumes non-blocking point-to-point MPI plus
//! the handful of collectives any MPI implementation provides (reductions for
//! triangle totals, barriers around timing regions, all-to-all for the
//! distributed edge-list sort). These are implemented here over binomial
//! trees so the simulated transport carries the same O(p log p) message
//! pattern a real MPI would.
//!
//! SPMD contract: every rank must invoke every collective in the same order
//! (each invocation draws a fresh world-agreed channel tag).

use havoq_util::FxHashMap;

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
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        let tag = self.next_collective_tag();
        let ch = self.channel_internal::<T>(tag);
        let rank = self.rank();
        let children = tree_children(rank, self.size());
        let parent = tree_parent(rank);

        // Upward phase: fold children's partial results into ours.
        let mut acc = value;
        let mut pending_children = children.len();
        // A parent's broadcast can arrive while a slow sibling's reduce
        // message is still queued behind it, so stash it.
        let mut parent_result: Option<T> = None;
        while pending_children > 0 {
            let (src, v) = ch.recv_blocking(self);
            if Some(src) == parent {
                parent_result = Some(v);
            } else {
                acc = op(acc, v);
                pending_children -= 1;
            }
        }
        if let Some(p) = parent {
            ch.send(p, acc);
            // Downward phase: wait for the final result from our parent.
            let result = match parent_result {
                Some(v) => v,
                None => {
                    let (src, v) = ch.recv_blocking(self);
                    assert_eq!(src, p, "unexpected reduce message from rank {src}");
                    v
                }
            };
            for &c in &children {
                ch.send(c, result.clone());
            }
            result
        } else {
            for &c in &children {
                ch.send(c, acc.clone());
            }
            acc
        }
    }

    /// Sum-reduction convenience used throughout the experiments.
    pub fn all_reduce_sum(&self, v: u64) -> u64 {
        self.all_reduce(v, |a, b| a.wrapping_add(b))
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

    /// Synchronize all ranks (binomial reduce + broadcast of a unit token).
    pub fn barrier(&self) {
        let _ = self.all_reduce_sum(0);
    }

    /// Broadcast `value` from `root` to every rank.
    pub fn broadcast<T>(&self, root: usize, value: Option<T>) -> T
    where
        T: Send + Clone + 'static,
    {
        assert!(root < self.size());
        let tag = self.next_collective_tag();
        let ch = self.channel_internal::<T>(tag);
        // Relabel ranks so `root` plays rank 0 in the binomial tree.
        let p = self.size();
        let virt = (self.rank() + p - root) % p;
        let to_real = |v: usize| (v + root) % p;
        let v = if virt == 0 {
            value.expect("broadcast root must supply a value")
        } else {
            let (_src, v) = ch.recv_blocking(self);
            v
        };
        for c in tree_children(virt, p) {
            ch.send(to_real(c), v.clone());
        }
        v
    }

    /// Gather one value from every rank onto every rank, indexed by rank.
    pub fn all_gather<T>(&self, value: T) -> Vec<T>
    where
        T: Send + Clone + 'static,
    {
        let tag = self.next_collective_tag();
        let ch = self.channel_internal::<(usize, T)>(tag);
        if self.rank() == 0 {
            let mut slots: FxHashMap<usize, T> = FxHashMap::default();
            slots.insert(0, value);
            while slots.len() < self.size() {
                let (_src, (r, v)) = ch.recv_blocking(self);
                slots.insert(r, v);
            }
            let all: Vec<T> = (0..self.size()).map(|r| slots.remove(&r).unwrap()).collect();
            self.broadcast(0, Some(all))
        } else {
            ch.send(0, (self.rank(), value));
            self.broadcast(0, None)
        }
    }

    /// Exclusive prefix sum of `value` over rank order (rank 0 gets 0).
    ///
    /// With the modest rank counts of the simulation an all-gather followed
    /// by a local prefix is both simple and optimal enough.
    pub fn exscan_sum(&self, value: u64) -> u64 {
        let all = self.all_gather(value);
        all[..self.rank()].iter().sum()
    }

    /// Personalized all-to-all: `outgoing[d]` is sent to rank `d`; returns
    /// `incoming[s]` = what rank `s` sent here. Used by the distributed
    /// edge-list sample sort.
    pub fn all_to_allv<T>(&self, mut outgoing: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
    {
        let p = self.size();
        assert_eq!(outgoing.len(), p, "all_to_allv needs one bucket per rank");
        let tag = self.next_collective_tag();
        let ch = self.channel_internal::<Vec<T>>(tag);
        for (dst, buf) in outgoing.drain(..).enumerate() {
            let n = buf.len() as u64;
            // byte volume is an in-memory estimate (typed channel, not framed)
            ch.send_counted(dst, buf, n, n * std::mem::size_of::<T>() as u64);
        }
        let mut incoming: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        let mut remaining = p;
        while remaining > 0 {
            let (src, buf) = ch.recv_blocking(self);
            assert!(incoming[src].is_none(), "duplicate all_to_allv message from {src}");
            incoming[src] = Some(buf);
            remaining -= 1;
        }
        incoming.into_iter().map(|o| o.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::CommWorld;

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

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let got = CommWorld::run(3, |ctx| {
            let mut acc = 0;
            for i in 0..20u64 {
                acc += ctx.all_reduce_sum(i + ctx.rank() as u64);
            }
            acc
        });
        // sum over i of (3i + 0+1+2)
        let expect: u64 = (0..20u64).map(|i| 3 * i + 3).sum();
        assert!(got.iter().all(|&g| g == expect));
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
