//! The per-rank run queue: Algorithm 1's local priority queue, popping in
//! exact (priority, vertex) order (DESIGN.md "The run queue").
//!
//! Entries are keyed by a `u64` priority, smallest first
//! ([`Visitor::priority`]). They live in one slab, each beside two `u32`s:
//! the next entry of its chain (or of the free list) and its local vertex
//! index.
//!
//! - Every live key but the lowest is a *later* bucket: an unordered chain
//!   in a small ordered map, O(1) beyond its entries.
//! - Only the lowest key's bucket is *indexed*. Under the Section V-A
//!   locality order the index is one stack head per local vertex, an
//!   occupancy bitmap, a summary bitmap with one bit per bitmap word, and
//!   a cursor at or below the first set bit. A pop takes the first set bit
//!   at or after the cursor; a push behind the cursor moves it back. With
//!   `locality_order = false` (the ablation) the index is one FIFO chain,
//!   so a bucket pops in arrival order.
//! - When the indexed bucket empties, the next later bucket is indexed in
//!   O(k). A push whose key is below the indexed one first turns the
//!   indexed bucket back into a later chain, also in O(k).
//!
//! Entries with equal (key, vertex) pop in no particular order.
//!
//! [`Visitor::priority`]: crate::visitor::Visitor::priority

use std::collections::BTreeMap;

/// End of a chain, stack or the free list.
const NIL: u32 = u32::MAX;

/// One queued value and its links.
struct Entry<V> {
    vis: V,
    /// Next entry of its chain or stack; of the free list once popped.
    next: u32,
    /// Local vertex index, the order inside an indexed bucket.
    li: u32,
}

/// A singly linked chain of slab entries, appended at the tail.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain { head: NIL, tail: NIL, len: 0 };

    fn append<V>(&mut self, slab: &mut [Entry<V>], at: u32) {
        slab[at as usize].next = NIL;
        match self.tail {
            NIL => self.head = at,
            tail => slab[tail as usize].next = at,
        }
        self.tail = at;
        self.len += 1;
    }

    /// Detach the head entry, if any.
    fn pop<V>(&mut self, slab: &[Entry<V>]) -> Option<u32> {
        let at = self.head;
        if at == NIL {
            return None;
        }
        self.head = slab[at as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(at)
    }
}

/// The lowest key's bucket, in the order it pops.
enum Index {
    /// Section V-A: one stack per local vertex, found through a bitmap.
    Vertex {
        heads: Vec<u32>,
        /// Bit `li` set iff `heads[li]` is non-empty.
        bits: Vec<u64>,
        /// Bit `w` set iff `bits[w]` is non-zero.
        summary: Vec<u64>,
        /// No bit below word `cursor` is set.
        cursor: usize,
    },
    /// The ablation: arrival order.
    Arrival(Chain),
}

impl Index {
    fn insert<V>(&mut self, slab: &mut [Entry<V>], at: u32) {
        match self {
            Index::Vertex { heads, bits, summary, cursor } => {
                let li = slab[at as usize].li as usize;
                slab[at as usize].next = heads[li];
                heads[li] = at;
                let w = li >> 6;
                bits[w] |= 1 << (li & 63);
                summary[w >> 6] |= 1 << (w & 63);
                *cursor = (*cursor).min(w);
            }
            Index::Arrival(chain) => chain.append(slab, at),
        }
    }

    /// Detach the first entry; the bucket must not be empty.
    fn pop<V>(&mut self, slab: &[Entry<V>]) -> u32 {
        match self {
            Index::Vertex { heads, bits, summary, cursor } => {
                let mut s = *cursor >> 6;
                while summary[s] == 0 {
                    s += 1;
                }
                let w = (s << 6) | summary[s].trailing_zeros() as usize;
                let li = (w << 6) | bits[w].trailing_zeros() as usize;
                *cursor = w;
                let at = heads[li];
                heads[li] = slab[at as usize].next;
                if heads[li] == NIL {
                    bits[w] &= !(1 << (li & 63));
                    if bits[w] == 0 {
                        summary[s] &= !(1 << (w & 63));
                    }
                }
                at
            }
            Index::Arrival(chain) => chain.pop(slab).expect("indexed bucket is not empty"),
        }
    }

    /// Empty the bucket into one chain, in pop order.
    fn take<V>(&mut self, slab: &mut [Entry<V>]) -> Chain {
        match self {
            Index::Vertex { heads, bits, summary, cursor } => {
                let mut chain = Chain::EMPTY;
                for (s, sw) in summary.iter_mut().enumerate().skip(*cursor >> 6) {
                    let mut sw = std::mem::take(sw);
                    while sw != 0 {
                        let w = (s << 6) | sw.trailing_zeros() as usize;
                        sw &= sw - 1;
                        let mut bw = std::mem::take(&mut bits[w]);
                        while bw != 0 {
                            let li = (w << 6) | bw.trailing_zeros() as usize;
                            bw &= bw - 1;
                            let mut at = std::mem::replace(&mut heads[li], NIL);
                            while at != NIL {
                                let next = slab[at as usize].next;
                                chain.append(slab, at);
                                at = next;
                            }
                        }
                    }
                }
                chain
            }
            Index::Arrival(chain) => std::mem::replace(chain, Chain::EMPTY),
        }
    }

    /// Index a chain into the (empty) bucket.
    fn load<V>(&mut self, slab: &mut [Entry<V>], chain: Chain) {
        match self {
            Index::Vertex { .. } => {
                let mut at = chain.head;
                while at != NIL {
                    let next = slab[at as usize].next;
                    self.insert(slab, at);
                    at = next;
                }
            }
            Index::Arrival(c) => *c = chain,
        }
    }

    /// Visit the bucket's entries in pop order.
    fn for_each<V>(&self, slab: &[Entry<V>], mut f: impl FnMut(&V)) {
        match self {
            Index::Vertex { heads, bits, .. } => {
                for (w, &bw) in bits.iter().enumerate().filter(|(_, &bw)| bw != 0) {
                    let mut bw = bw;
                    while bw != 0 {
                        walk(slab, heads[(w << 6) | bw.trailing_zeros() as usize], &mut f);
                        bw &= bw - 1;
                    }
                }
            }
            Index::Arrival(chain) => walk(slab, chain.head, &mut f),
        }
    }
}

/// Visit a chain or stack from `at` on.
fn walk<V>(slab: &[Entry<V>], mut at: u32, f: &mut impl FnMut(&V)) {
    while at != NIL {
        let e = &slab[at as usize];
        f(&e.vis);
        at = e.next;
    }
}

/// One rank's run queue over `n_local` vertices (module docs).
pub(crate) struct RunQueue<V> {
    slab: Vec<Entry<V>>,
    /// Head of the free list, threaded through `Entry::next`.
    free: u32,
    len: usize,
    peak: usize,
    /// The indexed bucket's key, below every key of `later` while
    /// `indexed > 0`.
    key: u64,
    /// Entries in the indexed bucket.
    indexed: usize,
    index: Index,
    later: BTreeMap<u64, Chain>,
}

impl<V: Clone> RunQueue<V> {
    /// An empty queue whose buckets pop in vertex order (`locality`) or in
    /// arrival order.
    pub(crate) fn new(n_local: usize, locality: bool) -> Self {
        assert!(n_local < NIL as usize, "local vertex indices must fit a u32 link");
        let index = if locality {
            let words = n_local.div_ceil(64);
            Index::Vertex {
                heads: vec![NIL; n_local],
                bits: vec![0; words],
                summary: vec![0; words.div_ceil(64)],
                cursor: 0,
            }
        } else {
            Index::Arrival(Chain::EMPTY)
        };
        Self {
            slab: Vec::new(),
            free: NIL,
            len: 0,
            peak: 0,
            key: 0,
            indexed: 0,
            index,
            later: BTreeMap::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most entries queued at once since the queue was created.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Queue `vis` for local vertex `li` under `key`.
    pub(crate) fn push(&mut self, vis: V, key: u64, li: usize) {
        let entry = Entry { vis, next: NIL, li: li as u32 };
        let at = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "run queue entries must fit a u32 link");
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
            at => {
                self.free = self.slab[at as usize].next;
                self.slab[at as usize] = entry;
                at
            }
        };
        self.len += 1;
        self.peak = self.peak.max(self.len);
        let later = if self.indexed > 0 {
            key > self.key
        } else {
            self.later.first_key_value().is_some_and(|(&lowest, _)| key >= lowest)
        };
        if later {
            self.later.entry(key).or_insert(Chain::EMPTY).append(&mut self.slab, at);
            return;
        }
        if self.indexed > 0 && key < self.key {
            // a late arrival below the indexed bucket: demote that bucket
            let chain = self.index.take(&mut self.slab);
            self.later.insert(self.key, chain);
            self.indexed = 0;
        }
        self.key = key;
        self.indexed += 1;
        self.index.insert(&mut self.slab, at);
    }

    /// Remove the first entry in (key, vertex) order — (key, arrival) under
    /// the ablation — with its local vertex index.
    pub(crate) fn pop(&mut self) -> Option<(V, usize)> {
        if self.indexed == 0 {
            let (key, chain) = self.later.pop_first()?;
            self.key = key;
            self.indexed = chain.len as usize;
            self.index.load(&mut self.slab, chain);
        }
        let at = self.index.pop(&self.slab);
        self.indexed -= 1;
        self.len -= 1;
        let e = &mut self.slab[at as usize];
        e.next = self.free;
        self.free = at;
        Some((e.vis.clone(), e.li as usize))
    }

    /// Visit every queued value in pop order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&V)) {
        if self.indexed > 0 {
            self.index.for_each(&self.slab, &mut f);
        }
        for chain in self.later.values() {
            walk(&self.slab, chain.head, &mut f);
        }
    }

    /// Drop every entry; the peak is kept.
    pub(crate) fn clear(&mut self) {
        while self.pop().is_some() {}
    }

    /// Bytes the queue holds allocated, counting the ordered map at 64
    /// bytes per key (a B-tree node of 11 slots at least half full).
    #[cfg(test)]
    fn capacity_bytes(&self) -> usize {
        let index = match &self.index {
            Index::Vertex { heads, bits, summary, .. } => {
                4 * heads.capacity() + 8 * (bits.capacity() + summary.capacity())
            }
            Index::Arrival(_) => 0,
        };
        self.slab.capacity() * std::mem::size_of::<Entry<V>>() + index + 64 * self.later.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_util::testing::{run_cases, TestRng};
    use std::collections::BTreeSet;

    /// A queued test value: (key, local vertex, arrival serial).
    type Item = (u64, usize, u64);

    /// The queue and an ordered-set model of it, driven side by side. The
    /// model pops the least (key, tie, serial), where the tie is the vertex
    /// under the locality order and the serial under the ablation.
    struct Pair {
        q: RunQueue<Item>,
        model: BTreeSet<(u64, u64, u64)>,
        locality: bool,
        n_local: usize,
        serial: u64,
    }

    impl Pair {
        fn new(n_local: usize, locality: bool) -> Self {
            let q = RunQueue::new(n_local, locality);
            Self { q, model: BTreeSet::new(), locality, n_local, serial: 0 }
        }

        fn tie(&self, &(_, li, serial): &Item) -> u64 {
            if self.locality {
                li as u64
            } else {
                serial
            }
        }

        fn push(&mut self, key: u64, li: usize) {
            self.serial += 1;
            let item = (key, li, self.serial);
            self.model.insert((key, self.tie(&item), self.serial));
            self.q.push(item, key, li);
        }

        /// Pop both; equal (key, vertex) entries may leave in any order
        /// under the locality order, so the queue's pick must merely be
        /// one of the model's least.
        fn pop(&mut self) -> Option<Item> {
            let got = self.q.pop();
            let Some(&(key, tie, _)) = self.model.first() else {
                assert!(got.is_none(), "queue pops {got:?} past the model's end");
                return None;
            };
            let (item, li) = got.expect("queue runs dry before the model");
            assert_eq!(li, item.1, "pop returns the entry's own vertex");
            assert_eq!((item.0, self.tie(&item)), (key, tie), "pop order");
            assert!(self.model.remove(&(item.0, self.tie(&item), item.2)), "{item:?} was queued");
            assert_eq!(self.q.is_empty(), self.model.is_empty());
            Some(item)
        }

        /// Checkpoint at this point: list the queue in pop order into a
        /// fresh queue, as restore does.
        fn export_restore(&mut self) {
            let mut listed = Vec::new();
            self.q.for_each(|item| listed.push(*item));
            assert_eq!(listed.len(), self.model.len());
            let mut back = RunQueue::new(self.n_local, self.locality);
            for item in listed {
                back.push(item, item.0, item.1);
            }
            self.q = back;
        }
    }

    /// Random pushes and pops, with late lower-key pushes, duplicate
    /// (key, vertex) entries, emptied and reused buckets, and one
    /// export/restore at a random point: the queue pops the model's
    /// (key, vertex) sequence, or (key, arrival) under the ablation.
    #[test]
    fn pops_in_model_order() {
        run_cases(400, |rng: &mut TestRng| {
            // above 4096 vertices the summary has several words and the
            // cursor decides where a pop's scan starts
            let n_local = match rng.bool() {
                true => rng.range_usize(1, 300),
                false => rng.range_usize(4096, 20_000),
            };
            let locality = rng.below(4) != 0;
            let keys = rng.range(1, 12);
            let mut p = Pair::new(n_local, locality);
            let ops = rng.range(1, 600);
            let restore_at = rng.below(ops);
            let mut floor = 0;
            for op in 0..ops {
                if op == restore_at {
                    p.export_restore();
                }
                match rng.below(10) {
                    // a burst of duplicates of one (key, vertex)
                    0 => {
                        let (key, li) = (floor + rng.below(keys), rng.range_usize(0, n_local));
                        for _ in 0..rng.range(2, 5) {
                            p.push(key, li);
                        }
                    }
                    // late arrivals at or below the keys being drained
                    1 => p.push(floor.saturating_sub(rng.below(3)), rng.range_usize(0, n_local)),
                    2..=5 => p.push(floor + rng.below(keys), rng.range_usize(0, n_local)),
                    _ => {
                        if let Some((key, ..)) = p.pop() {
                            floor = key;
                        }
                    }
                }
            }
            while p.pop().is_some() {}
            assert!(p.q.is_empty());
            // a drained queue takes work again, under keys below the old ones
            p.push(0, n_local - 1);
            p.push(0, 0);
            assert_eq!(p.pop().map(|it| it.1), Some(if locality { 0 } else { n_local - 1 }));
        });
    }

    /// One key per vertex on 2^16 vertices, as connected components starts:
    /// the queue's bytes stay within c·entries + d·n_local. An index per
    /// key would need n_local slots for each of the 2^16 keys.
    #[test]
    fn one_key_per_vertex_stays_linear() {
        let n_local = 1 << 16;
        for descending in [false, true] {
            let mut q = RunQueue::<Item>::new(n_local, true);
            let vertices: Vec<usize> =
                if descending { (0..n_local).rev().collect() } else { (0..n_local).collect() };
            for (serial, &li) in vertices.iter().enumerate() {
                q.push((li as u64, li, serial as u64), li as u64, li);
            }
            assert_eq!(q.peak(), n_local);
            let bound = 160 * n_local + 8 * n_local;
            assert!(q.capacity_bytes() <= bound, "{} > {bound} bytes", q.capacity_bytes());
            for want in 0..n_local {
                assert_eq!(q.pop().map(|(_, li)| li), Some(want), "descending={descending}");
            }
            assert!(q.pop().is_none());
        }
    }

    /// The ablation pops each key's entries in arrival order, whatever
    /// their vertices.
    #[test]
    fn ablation_is_fifo_within_a_key() {
        let mut rng = TestRng::new(11);
        let mut q = RunQueue::<Item>::new(64, false);
        let pushed: Vec<Item> =
            (0..200).map(|s| (rng.below(3), rng.range_usize(0, 64), s)).collect();
        for &item in &pushed {
            q.push(item, item.0, item.1);
        }
        for key in 0..3 {
            for want in pushed.iter().filter(|it| it.0 == key) {
                assert_eq!(q.pop().map(|(it, _)| it), Some(*want));
            }
        }
        assert!(q.is_empty());
    }
}
