//! Hierarchical timer-wheel event queue with a far-future heap overflow.
//!
//! The simulator's event queue pops strictly in `(time, sequence)` order.
//! A binary heap gives that order in O(log n) per operation; scans,
//! however, schedule almost everything within microseconds-to-seconds of
//! *now*, which a hierarchical timer wheel serves in O(1): six levels of
//! 64 slots, level `l` spanning `2^(6·l)` µs per slot, cover the next
//! `2^36` µs (≈ 19 hours of simulated time) — anything beyond spills into
//! a conventional [`BinaryHeap`] and pops through exact `(time, seq)`
//! comparison against the wheel's head, so the total order is preserved
//! bit for bit.
//!
//! Placement follows the kernel/tokio scheme: an event's level is the
//! highest 6-bit block in which its time differs from the wheel clock
//! (`now ^ at`), and its slot is that block of the *absolute* time. When
//! the clock advances into a slot's span, the slot cascades: entries
//! re-place at strictly lower levels (their high blocks now match the
//! clock). Absolute-bit slotting makes the structure robust to the one
//! clock anomaly a deadline-bounded run can create — a push *behind* the
//! wheel clock after a failed probe cascaded ahead of the caller's clock —
//! by rewinding the wheel clock to the pushed time; aliased slots that
//! temporarily hold events from several wheel turns self-heal by lifting
//! their entries back to the level the rewound clock implies.
//!
//! Storage is one arena. A wheel event is written once, by `push`, into a
//! node of `nodes`; a slot is a singly linked list of node indices
//! (`heads`; newest first above level 0) and popped nodes go on a free
//! list threaded through the same `next` field, so the arena grows to the
//! peak number of pending events and then stops. A cascade re-links
//! indices and moves no event; only an entry lifted past the horizon
//! leaves the arena, for the overflow heap.
//!
//! A level-0 list is kept in `(at, seq)` order, so a pop takes its head.
//! A census arrives in same-µs waves: latencies are multiples of 500 µs
//! and a resolver answers its coalesced waiters at once, so one slot holds
//! up to a few hundred events. Linking keeps the order in O(1) for the two
//! shapes that build a wave — a push onto the current instant appends
//! after the tail, a cascade walking a newest-first list prepends before
//! the head — and anything else marks the list unsorted, for the next pop
//! to sort it once. Scanning a wave for its minimum on every pop, as the
//! wheel did before, looked at 14.9 level-0 nodes per pop on a `scale`
//! 1000 census (17.4 at seed 7); it looks at 1.03 now.
//!
//! Cancelling is O(1) and lazy: [`TimerWheel::cancel`] takes the event out
//! of its node and leaves the emptied node linked, and whichever walks the
//! list next — a cascade, a level-0 sort or pop — puts it on the free list
//! instead of re-linking or popping it. An emptied node can therefore keep
//! an occupancy bit set over a slot with nothing to pop; that only makes
//! [`TimerWheel::pop_at_or_before`] look there, find nothing and move on.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Levels in the hierarchy.
const LEVELS: usize = 6;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 64;
/// End of a list: no node has this index.
const NIL: u32 = u32::MAX;

/// Where [`TimerWheel::push`] stored an event — surfaced so the simulator
/// can count wheel-vs-heap scheduling in its stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Within the wheel horizon: O(1) slot insert.
    Wheel,
    /// Beyond the `2^36` µs horizon: far-future overflow heap.
    Heap,
}

/// Handle to one pushed event, for [`TimerWheel::cancel`]: the arena cell
/// it was written into and that cell's generation at the time. A cell's
/// generation moves on whenever the cell is freed, so the handle of an
/// event that has popped, or been lifted to the overflow heap, names
/// nothing — even after the cell is reused. [`TimerWheel::clear`] restarts
/// every generation: handles do not outlive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    node: u32,
    gen: u32,
}

/// The handle of an event placed on the overflow heap: not cancellable.
const UNCANCELLABLE: TimerId = TimerId { node: NIL, gen: 0 };

/// One arena cell: a pending event linked into its slot's list, a cancelled
/// one (`item` is `None`) still linked there until the next walk over that
/// list, or a free cell (`item` is `None`) linked into the free list.
#[derive(Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    /// How many times this cell has been freed (wrapping).
    gen: u32,
    item: Option<T>,
}

/// Bytes one pending `T` occupies in the arena — for the simulator's
/// compile-time check that its event node fits one cache line.
pub(crate) const fn node_bytes<T>() -> usize {
    std::mem::size_of::<Node<T>>()
}

/// Far-future overflow entry, ordered by `(at, seq)` so the heap pops in
/// exactly the total order the wheel maintains.
#[derive(Debug)]
struct FarEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The queue: a hierarchical timer wheel plus far-future overflow heap,
/// popping in exact `(time, seq)` order.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The wheel clock: never ahead of the earliest pending event.
    wheel_now: u64,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// First node of each slot's list, level-major; `NIL` when empty.
    heads: [u32; LEVELS * SLOTS],
    /// The arena every wheel event lives in, pending or free.
    nodes: Vec<Node<T>>,
    /// Last node of each level-0 list; meaningful while the list is
    /// non-empty.
    tails0: [u32; SLOTS],
    /// Level-0 slots whose list may be out of `(at, seq)` order; every
    /// other level-0 list is sorted, its minimum at the head.
    unsorted0: u64,
    /// First free node, the rest threaded through `next`.
    free: u32,
    /// Events beyond the wheel horizon.
    far: BinaryHeap<Reverse<FarEntry<T>>>,
    len: usize,
    /// Working memory of [`TimerWheel::sort0`], kept across sorts:
    /// `(at, seq, node)`, the same type for every `T`, so one sort serves
    /// every wheel.
    scratch: Vec<(u64, u64, u32)>,
    /// Nodes the level-0 pop path has looked at: what a burst costs.
    #[cfg(test)]
    visits0: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Level for an event at `at` given wheel clock `now`: the highest 6-bit
/// block where they differ (`LEVELS` and up means overflow).
fn level_for(now: u64, at: u64) -> usize {
    let masked = now ^ at;
    if masked == 0 {
        0
    } else {
        ((63 - masked.leading_zeros()) / SLOT_BITS) as usize
    }
}

impl<T> TimerWheel<T> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        TimerWheel {
            wheel_now: 0,
            occupied: [0; LEVELS],
            heads: [NIL; LEVELS * SLOTS],
            nodes: Vec::new(),
            tails0: [NIL; SLOTS],
            unsorted0: 0,
            free: NIL,
            far: BinaryHeap::new(),
            len: 0,
            scratch: Vec::new(),
            #[cfg(test)]
            visits0: 0,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every pending event and rewind the clock to zero. The arena
    /// and the overflow heap keep their capacity, so a warm world that
    /// replays its schedule allocates nothing here.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.heads = [NIL; LEVELS * SLOTS];
        self.occupied = [0; LEVELS];
        self.unsorted0 = 0;
        self.far.clear();
        self.wheel_now = 0;
        self.len = 0;
    }

    /// Insert an event. `seq` values must be unique (they are the heap's
    /// tie-breaker at equal times). Pushing behind the wheel clock is
    /// allowed — the clock rewinds — but never behind the last pop.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) -> Placement {
        self.push_cancellable(at, seq, item).0
    }

    /// [`TimerWheel::push`], also returning the handle that
    /// [`TimerWheel::cancel`] takes. Only a wheel-placed event can be
    /// cancelled; the handle of a heap-placed one cancels nothing.
    pub fn push_cancellable(&mut self, at: SimTime, seq: u64, item: T) -> (Placement, TimerId) {
        let at = at.0;
        if at < self.wheel_now {
            // A deadline-bounded probe cascaded the clock ahead of the
            // caller's; absolute-bit slotting makes rewinding safe.
            self.wheel_now = at;
        }
        self.len += 1;
        let lvl = level_for(self.wheel_now, at);
        if lvl >= LEVELS {
            self.far.push(Reverse(FarEntry { at, seq, item }));
            return (Placement::Heap, UNCANCELLABLE);
        }
        // The event is written once, here; cascades only re-link it. A
        // reused cell keeps its generation: freeing it moved it on.
        let (n, gen) = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "2^32 pending events");
            self.nodes.push(Node {
                at,
                seq,
                next: NIL,
                gen: 0,
                item: Some(item),
            });
            ((self.nodes.len() - 1) as u32, 0)
        } else {
            let n = self.free;
            let cell = &mut self.nodes[n as usize];
            self.free = cell.next;
            (cell.at, cell.seq, cell.item) = (at, seq, Some(item));
            (n, cell.gen)
        };
        self.link(n, lvl, at);
        (Placement::Wheel, TimerId { node: n, gen })
    }

    /// Remove the pending event `id` was returned for; `false`, and nothing
    /// changes, when there is none — it has popped, was cancelled before,
    /// or was placed on the overflow heap. O(1): the node is emptied where
    /// it is linked and freed by the next walk over its list.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.nodes.get_mut(id.node as usize) {
            Some(node) if node.gen == id.gen && node.item.is_some() => {
                node.item = None;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Put node `n`, due at `at`, into its slot's list on `lvl`: at the
    /// head above level 0, in order at level 0 ([`TimerWheel::link0`]).
    fn link(&mut self, n: u32, lvl: usize, at: u64) {
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & 63) as usize;
        if lvl == 0 {
            return self.link0(n, slot);
        }
        let head = &mut self.heads[lvl * SLOTS + slot];
        self.nodes[n as usize].next = *head;
        *head = n;
        self.occupied[lvl] |= 1 << slot;
    }

    /// The `(at, seq)` order key of node `n`, linked or not.
    fn key(&self, n: u32) -> (u64, u64) {
        let node = &self.nodes[n as usize];
        (node.at, node.seq)
    }

    /// Link node `n` into level-0 slot `slot`, keeping the list sorted
    /// where that is O(1): a node after the tail is appended (a push onto
    /// the current instant), one before the head is prepended (a cascade
    /// walking a newest-first list). Anything else goes to the head and
    /// marks the list unsorted, for the next pop to sort once.
    fn link0(&mut self, n: u32, slot: usize) {
        let head = self.heads[slot];
        if head == NIL {
            self.nodes[n as usize].next = NIL;
            (self.heads[slot], self.tails0[slot]) = (n, n);
            self.occupied[0] |= 1 << slot;
            return;
        }
        let (key, tail) = (self.key(n), self.tails0[slot]);
        if key > self.key(tail) {
            self.nodes[tail as usize].next = n;
            self.nodes[n as usize].next = NIL;
            self.tails0[slot] = n;
        } else {
            if key > self.key(head) {
                self.unsorted0 |= 1 << slot;
            }
            self.nodes[n as usize].next = head;
            self.heads[slot] = n;
        }
    }

    /// Sort level-0 slot `slot`'s list by `(at, seq)`, freeing the
    /// cancelled nodes on the way: once per burst, after which every pop
    /// takes the head.
    fn sort0(&mut self, slot: usize) {
        let mut order = std::mem::take(&mut self.scratch);
        order.clear();
        let mut n = self.heads[slot];
        while n != NIL {
            self.count_visit();
            let next = self.nodes[n as usize].next;
            if self.nodes[n as usize].item.is_some() {
                let (at, seq) = self.key(n);
                order.push((at, seq, n));
            } else {
                self.free_node(n);
            }
            n = next;
        }
        order.sort_unstable();
        let mut next = NIL;
        for &(_, _, n) in order.iter().rev() {
            self.nodes[n as usize].next = next;
            next = n;
        }
        self.heads[slot] = next;
        if let Some(&(_, _, last)) = order.last() {
            self.tails0[slot] = last;
        }
        self.unsorted0 &= !(1 << slot);
        self.scratch = order;
    }

    /// Count one node the level-0 pop path looked at.
    fn count_visit(&mut self) {
        #[cfg(test)]
        {
            self.visits0 += 1;
        }
    }

    /// Put node `n` (already unlinked and emptied) on the free list, which
    /// ends the life of every handle to it.
    fn free_node(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free;
        self.free = n;
    }

    /// Take the event out of node `n` (already unlinked) and free the node.
    fn release(&mut self, n: u32) -> (SimTime, u64, T) {
        let node = &mut self.nodes[n as usize];
        let item = node.item.take().expect("the caller saw an event here");
        let (at, seq) = (node.at, node.seq);
        self.free_node(n);
        (SimTime(at), seq, item)
    }

    /// Earliest possible event time per the occupancy bitmaps, with the
    /// level/slot holding it. For level 0 the bound is exact unless the
    /// slot is aliased; for higher levels it is the slot's span start.
    /// Ties prefer the *highest* level so cascades refine before a pop.
    fn min_bound(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for lvl in 0..LEVELS {
            let occ = self.occupied[lvl];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * lvl as u32;
            let cur_tick = self.wheel_now >> shift;
            let cursor = (cur_tick & 63) as u32;
            let d = u64::from(occ.rotate_right(cursor).trailing_zeros());
            let bound = if d == 0 {
                self.wheel_now
            } else {
                let tick = cur_tick + d;
                if shift != 0 && tick > (u64::MAX >> shift) {
                    u64::MAX
                } else {
                    tick << shift
                }
            };
            let slot = ((u64::from(cursor) + d) & 63) as usize;
            match best {
                Some((b, _, _)) if b < bound => {}
                _ => best = Some((bound, lvl, slot)),
            }
        }
        best
    }

    /// Advance the clock to `bound` and re-link every node of the slot;
    /// matching-tick entries drop to a strictly lower level, aliased ones
    /// (later wheel turns) lift to a strictly higher one — past the top
    /// level, out of the arena and into the overflow heap. Cancelled
    /// nodes go to the free list.
    fn cascade(&mut self, lvl: usize, slot: usize, bound: u64) {
        debug_assert!(bound >= self.wheel_now);
        self.wheel_now = bound;
        let mut n = std::mem::replace(&mut self.heads[lvl * SLOTS + slot], NIL);
        self.occupied[lvl] &= !(1 << slot);
        if lvl == 0 {
            self.unsorted0 &= !(1 << slot);
        }
        while n != NIL {
            let node = &self.nodes[n as usize];
            let (at, next, cancelled) = (node.at, node.next, node.item.is_none());
            let to = level_for(self.wheel_now, at);
            debug_assert!(cancelled || to != lvl, "cascade must move");
            if cancelled {
                self.free_node(n);
            } else if to < LEVELS {
                self.link(n, to, at);
            } else {
                let (_, seq, item) = self.release(n);
                self.far.push(Reverse(FarEntry { at, seq, item }));
            }
            n = next;
        }
    }

    fn pop_far(&mut self) -> (SimTime, u64, T) {
        let Reverse(e) = self.far.pop().expect("caller checked the heap top");
        self.len -= 1;
        debug_assert!(e.at >= self.wheel_now);
        self.wheel_now = e.at;
        (SimTime(e.at), e.seq, e.item)
    }

    /// Pop the earliest event if its time is `<= deadline`; `None` when
    /// the queue is empty or everything pending lies beyond the deadline
    /// (events stay queued). Exact `(time, seq)` order across wheel and
    /// overflow heap.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        let dl = deadline.0;
        loop {
            let far_top = self.far.peek().map(|Reverse(e)| (e.at, e.seq));
            let Some((bound, lvl, slot)) = self.min_bound() else {
                return match far_top {
                    Some((at, _)) if at <= dl => Some(self.pop_far()),
                    _ => None,
                };
            };
            if let Some((fat, _)) = far_top {
                if fat < bound {
                    return (fat <= dl).then(|| self.pop_far());
                }
            }
            if bound > dl {
                return None; // far top is >= bound here, so it is late too
            }
            if lvl > 0 {
                self.cascade(lvl, slot, bound);
                continue;
            }
            // Level 0: the list is sorted (once, if a push broke the
            // order), so the `(at, seq)` minimum is the first event at
            // the head; cancelled nodes before it are freed.
            if self.unsorted0 & 1 << slot != 0 {
                self.sort0(slot);
            }
            let mut min = self.heads[slot];
            while min != NIL && self.nodes[min as usize].item.is_none() {
                self.count_visit();
                let next = self.nodes[min as usize].next;
                self.free_node(min);
                min = next;
            }
            self.heads[slot] = min;
            if min == NIL {
                // Nothing but cancelled nodes: the slot is empty now.
                self.occupied[0] &= !(1 << slot);
                continue;
            }
            self.count_visit();
            let (mat, mseq) = self.key(min);
            if mat != bound {
                // Fully aliased slot (only later-turn events): lift all of
                // them to the level the current clock implies and retry.
                self.cascade(0, slot, self.wheel_now);
                continue;
            }
            if let Some((fat, fseq)) = far_top {
                if (fat, fseq) < (mat, mseq) {
                    return Some(self.pop_far());
                }
            }
            let after = self.nodes[min as usize].next;
            self.heads[slot] = after;
            if after == NIL {
                self.occupied[0] &= !(1 << slot);
            }
            self.len -= 1;
            debug_assert!(mat >= self.wheel_now);
            self.wheel_now = mat;
            return Some(self.release(min));
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_at_or_before(SimTime(u64::MAX))
    }
}

#[cfg(test)]
impl<T> TimerWheel<T> {
    /// The arena's structural invariants: an occupied bit exactly where a
    /// list is non-empty, every node on one list only (a slot's or the
    /// free list), every linked node in the slot its time maps to, holding
    /// an event unless it was cancelled, and `len` counting the linked
    /// nodes that hold one plus the overflow heap. At level 0, each
    /// non-empty list ends at its recorded tail, and one not marked
    /// unsorted (an empty one never is) is in strict `(at, seq)` order.
    fn check_invariants(&self) {
        let mut seen = vec![false; self.nodes.len()];
        let mut visit = |n: u32| {
            assert!(
                !std::mem::replace(&mut seen[n as usize], true),
                "node {n} is on two lists"
            );
        };
        let (mut live, mut cancelled) = (0, 0);
        for (i, &head) in self.heads.iter().enumerate() {
            let (lvl, slot) = (i / SLOTS, i % SLOTS);
            let bit = self.occupied[lvl] >> slot & 1 == 1;
            assert_eq!(bit, head != NIL, "occupancy bit of level {lvl} slot {slot}");
            let (mut n, mut last) = (head, NIL);
            while n != NIL {
                visit(n);
                let node = &self.nodes[n as usize];
                let at_slot = (node.at >> (SLOT_BITS * lvl as u32)) & 63;
                assert_eq!(at_slot as usize, slot, "node {n} is in the wrong slot");
                match node.item {
                    Some(_) => live += 1,
                    None => cancelled += 1,
                }
                let sorted = self.unsorted0 >> slot & 1 == 0;
                if lvl == 0 && sorted && last != NIL {
                    assert!(
                        self.key(last) < self.key(n),
                        "level-0 slot {slot} is out of order"
                    );
                }
                (last, n) = (n, node.next);
            }
            if lvl == 0 {
                let unsorted = self.unsorted0 >> slot & 1 == 1;
                assert!(
                    head != NIL || !unsorted,
                    "empty level-0 slot {slot} marked unsorted"
                );
                assert!(
                    head == NIL || self.tails0[slot] == last,
                    "tail of level-0 slot {slot}"
                );
            }
        }
        let mut free = 0;
        let mut n = self.free;
        while n != NIL {
            visit(n);
            assert!(
                self.nodes[n as usize].item.is_none(),
                "free node {n} holds an event"
            );
            free += 1;
            n = self.nodes[n as usize].next;
        }
        let listed = live + cancelled + free;
        assert_eq!(listed, self.nodes.len(), "a node is on no list");
        assert_eq!(self.len, live + self.far.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The reference implementation: the exact `(time, seq)` total order
    /// the simulator ran on before the wheel landed.
    type RefHeap = BinaryHeap<Reverse<(u64, u64)>>;

    /// What a differential test knows of the events it pushed, to cancel
    /// some of them at random — and to try the handles that must cancel
    /// nothing.
    #[derive(Default)]
    struct Handles {
        /// Neither popped nor cancelled yet: `seq → (at, id)`.
        pending: BTreeMap<u64, (u64, TimerId)>,
        /// Popped or cancelled.
        spent: Vec<TimerId>,
        /// Cancels that succeeded, and refused ones of two kinds: the event
        /// had gone and its cell held a newer one; the event is pending on
        /// the overflow heap.
        counts: [usize; 3],
    }

    impl Handles {
        fn pushed(&mut self, at: u64, seq: u64, (placement, id): (Placement, TimerId)) {
            assert_eq!(placement == Placement::Heap, id == UNCANCELLABLE);
            self.pending.insert(seq, (at, id));
        }

        fn popped(&mut self, seq: u64) {
            let (_, id) = self.pending.remove(&seq).expect("popped what was pushed");
            self.spent.push(id);
        }

        /// Up to two cancel attempts, each on a random pending event or on
        /// a random spent handle. Whatever `cancel` returns `true` for
        /// leaves the reference too; a refusal must change nothing, which
        /// the pops that follow would notice.
        fn cancel_some<T>(
            &mut self,
            rng: &mut SmallRng,
            next_seq: u64,
            wheel: &mut TimerWheel<T>,
            heap: &mut RefHeap,
        ) {
            for _ in 0..rng.gen_range(0usize..3) {
                let len = wheel.len();
                // Mostly among the newest pushes: what stays pending for
                // long is what is parked beyond the horizon.
                let back = [4, 400, next_seq][rng.gen_range(0usize..3)];
                let from = next_seq - rng.gen_range(0..=back.min(next_seq));
                if let (0, Some((&seq, &(at, id)))) =
                    (rng.gen_range(0u32..2), self.pending.range(from..).next())
                {
                    let in_far = wheel.far.iter().any(|Reverse(e)| e.seq == seq);
                    assert_eq!(wheel.cancel(id), !in_far, "event {seq} at {at}");
                    if in_far {
                        self.counts[2] += 1;
                    } else {
                        assert!(!wheel.cancel(id), "cancelled twice");
                        assert_eq!(wheel.len(), len - 1);
                        heap.retain(|&Reverse(key)| key != (at, seq));
                        self.popped(seq);
                        self.counts[0] += 1;
                    }
                } else if !self.spent.is_empty() {
                    let id = self.spent[rng.gen_range(0..self.spent.len())];
                    let cell = wheel.nodes.get(id.node as usize);
                    let reused = cell.is_some_and(|node| node.item.is_some());
                    assert!(!wheel.cancel(id), "cancelled a spent handle");
                    self.counts[1] += usize::from(reused);
                }
                assert_eq!(wheel.len(), heap.len());
                wheel.check_invariants();
            }
        }
    }

    fn ref_pop_at_or_before(heap: &mut RefHeap, dl: u64) -> Option<(u64, u64)> {
        match heap.peek() {
            Some(&Reverse((at, _))) if at <= dl => heap.pop().map(|Reverse(k)| k),
            _ => None,
        }
    }

    /// A randomized event time biased toward the regimes that matter —
    /// same-tick ties, near-future scan traffic, cross-slot-boundary
    /// jumps, and far-future events beyond the 2^36 µs wheel horizon — and
    /// how many events to push at it: one, or rarely a burst of at least
    /// 256 (a consolidated resolver answering a whole block in one µs).
    /// A burst on the current tick is appended at level 0 in push order;
    /// one further out reaches level 0 through cascades, each of which
    /// reverses its list, so level 0 meets both `seq` orders.
    fn random_at(rng: &mut SmallRng, now: u64) -> (u64, usize) {
        if rng.gen_range(0u32..128) == 0 {
            let ahead = [0, rng.gen_range(64u64..1 << 18)][rng.gen_range(0usize..2)];
            return (now + ahead, rng.gen_range(256usize..320));
        }
        let at = match rng.gen_range(0u32..12) {
            0 => now,                                               // same-tick tie
            1..=5 => now + rng.gen_range(0u64..200),                // burst pacing
            6..=7 => now + rng.gen_range(0u64..100_000),            // RTT scale
            8..=9 => now + rng.gen_range(0u64..30_000_000),         // timeout scale
            10 => now + rng.gen_range((1u64 << 35)..(1u64 << 37)),  // horizon edge
            _ => now + (1u64 << 36) + rng.gen_range(0u64..1 << 20), // overflow
        };
        (at, 1)
    }

    #[test]
    fn differential_pop_order_matches_binary_heap_reference() {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xD1FF_0000 ^ seed);
            let mut wheel: TimerWheel<(u64, u64)> = TimerWheel::new();
            let mut heap: RefHeap = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64; // last popped time: the push lower bound
            let mut handles = Handles::default();
            let mut bursts = [0usize; 2]; // on the current tick, ahead of it
            for _ in 0..1_500 {
                for _ in 0..rng.gen_range(0usize..4) {
                    let (at, copies) = random_at(&mut rng, now);
                    bursts[usize::from(at > now)] += usize::from(copies > 1);
                    for _ in 0..copies {
                        let placed = wheel.push_cancellable(SimTime(at), seq, (at, seq));
                        handles.pushed(at, seq, placed);
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                }
                wheel.check_invariants();
                handles.cancel_some(&mut rng, seq, &mut wheel, &mut heap);
                for _ in 0..rng.gen_range(0usize..4) {
                    match (wheel.pop(), heap.pop()) {
                        (Some((at, s, item)), Some(Reverse(want))) => {
                            assert_eq!((at.0, s), want, "pop order diverged");
                            assert_eq!(item, want, "payload followed the wrong key");
                            handles.popped(s);
                            now = at.0;
                        }
                        (None, None) => break,
                        (w, h) => panic!("length diverged: wheel {w:?} vs heap {h:?}"),
                    }
                    wheel.check_invariants();
                }
                assert_eq!(wheel.len(), heap.len());
            }
            while let Some(Reverse(want)) = heap.pop() {
                let (at, s, _) = wheel.pop().expect("wheel drains with the reference");
                assert_eq!((at.0, s), want);
            }
            assert!(wheel.pop().is_none());
            assert!(wheel.is_empty());
            wheel.check_invariants();
            let [cancelled, reused, overflowed] = handles.counts;
            assert!(cancelled > 100, "seed {seed} cancelled {cancelled} events");
            assert!(reused > 0, "seed {seed} never tried a reused cell's handle");
            assert!(
                overflowed > 0,
                "seed {seed} never tried a heap-placed handle"
            );
            assert!(
                bursts[0] > 0,
                "seed {seed} never burst onto the current tick"
            );
            assert!(bursts[1] > 0, "seed {seed} never burst through a cascade");
        }
    }

    #[test]
    fn differential_with_deadlines_and_clock_rewinds() {
        // Deadline-bounded pops cascade the wheel clock ahead of the last
        // popped time; pushes relative to the *caller's* clock then land
        // behind the wheel clock and must still pop in exact order.
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x5EED_0000 ^ seed);
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: RefHeap = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut handles = Handles::default();
            for _ in 0..1_500 {
                for _ in 0..rng.gen_range(0usize..4) {
                    let (at, copies) = random_at(&mut rng, now);
                    for _ in 0..copies {
                        let placed = wheel.push_cancellable(SimTime(at), seq, seq);
                        handles.pushed(at, seq, placed);
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                }
                wheel.check_invariants();
                // Cancels land between a refused probe, which may have run
                // the wheel clock ahead, and the pushes that rewind it.
                handles.cancel_some(&mut rng, seq, &mut wheel, &mut heap);
                // A deadline that often lands *before* the next event
                // (forcing the probe-and-refuse path), sometimes far out.
                let dl = now + rng.gen_range(0u64..40_000_000);
                loop {
                    let got = wheel.pop_at_or_before(SimTime(dl));
                    let want = ref_pop_at_or_before(&mut heap, dl);
                    match (got, want) {
                        (Some((at, s, _)), Some(k)) => {
                            assert_eq!((at.0, s), k);
                            handles.popped(s);
                            now = at.0;
                        }
                        (None, None) => break,
                        (g, w) => panic!("deadline pop diverged: {g:?} vs {w:?}"),
                    }
                    wheel.check_invariants();
                }
            }
            while let Some(Reverse(want)) = heap.pop() {
                let (at, s, _) = wheel.pop().expect("wheel drains with the reference");
                assert_eq!((at.0, s), want);
            }
            assert!(wheel.is_empty());
            wheel.check_invariants();
            assert!(handles.counts[0] > 100, "seed {seed}: {:?}", handles.counts);
        }
    }

    /// A same-instant wave — a resolver answering its coalesced waiters at
    /// once, latencies landing on one µs — popped one by one: the order
    /// is the reference heap's, with cancels and zero-delay pushes mid-drain,
    /// and level 0 looks at each node a bounded number of times rather than
    /// rescanning the wave per pop.
    #[test]
    fn same_instant_burst_pops_in_order_in_linear_visits() {
        const BURST: u64 = 10_000;
        // On the current tick in push order, through a cascade in push
        // order, and with its sequence numbers shuffled (the sorted path).
        for (case, ahead) in [(0, 0u64), (1, 5_000), (2, 5_000)] {
            let mut rng = SmallRng::seed_from_u64(0xB0_0057 ^ case);
            let mut seqs: Vec<u64> = (0..BURST).collect();
            if case == 2 {
                for i in (1..seqs.len()).rev() {
                    seqs.swap(i, rng.gen_range(0..=i));
                }
            }
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: RefHeap = BinaryHeap::new();
            let mut ids = BTreeMap::new();
            wheel.push(SimTime(0), BURST, BURST);
            heap.push(Reverse((0, BURST)));
            assert_eq!(wheel.pop().map(|(at, s, _)| (at.0, s)), Some((0, BURST)));
            heap.pop();
            for &seq in &seqs {
                let (_, id) = wheel.push_cancellable(SimTime(ahead), seq, seq);
                ids.insert(seq, id);
                heap.push(Reverse((ahead, seq)));
            }
            wheel.check_invariants();
            let mut next_seq = BURST + 1;
            let (mut pops, mut cancels, mut late) = (0usize, 0usize, 0usize);
            while let Some(Reverse(want)) = heap.pop() {
                let (at, seq, item) = wheel.pop().expect("the wheel drains with the reference");
                assert_eq!((at.0, seq), want, "case {case}: pop {pops} diverged");
                assert_eq!(item, seq);
                ids.remove(&seq);
                pops += 1;
                if pops % 97 == 0 {
                    // Cancel a pending member of the wave.
                    let pick = rng.gen_range(0..BURST);
                    if let Some((&seq, &id)) = ids.range(pick..).next() {
                        assert!(wheel.cancel(id));
                        ids.remove(&seq);
                        heap.retain(|&Reverse(key)| key != (ahead, seq));
                        cancels += 1;
                    }
                }
                if pops % 1_000 == 0 {
                    // A handler's zero-delay push joins the current instant.
                    wheel.push(at, next_seq, next_seq);
                    heap.push(Reverse((at.0, next_seq)));
                    next_seq += 1;
                    late += 1;
                    wheel.check_invariants();
                }
            }
            assert!(wheel.pop().is_none());
            wheel.check_invariants();
            assert!(
                cancels > 50 && late > 5,
                "case {case}: {cancels} cancels, {late} late"
            );
            let n = BURST as usize + late;
            assert!(
                wheel.visits0 <= 3 * n,
                "case {case}: level 0 looked at {} nodes for a wave of {n}",
                wheel.visits0
            );
        }
    }

    #[test]
    fn same_tick_ties_pop_in_sequence_order() {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // Interleave two times, pushing seqs out of slot-insertion order
        // via an early far placement that cascades back down.
        wheel.push(SimTime(1 << 37), 0, 0); // far heap
        for s in 1..50u64 {
            wheel.push(SimTime(500 + (s % 2)), s, s);
        }
        let mut got = Vec::new();
        while let Some((at, s, _)) = wheel.pop_at_or_before(SimTime(1_000)) {
            got.push((at.0, s));
        }
        let mut want: Vec<(u64, u64)> = (1..50u64).map(|s| (500 + (s % 2), s)).collect();
        want.sort();
        assert_eq!(got, want);
        // The far event is still there, beyond the deadline.
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop().map(|(at, s, _)| (at.0, s)), Some((1 << 37, 0)));
    }

    #[test]
    fn clear_resets_clock_and_capacity_survives() {
        let mut wheel: TimerWheel<u8> = TimerWheel::new();
        wheel.push(SimTime(10), 0, 1);
        wheel.push(SimTime(1 << 40), 1, 2);
        assert_eq!(wheel.len(), 2);
        wheel.clear();
        wheel.check_invariants();
        assert!(wheel.is_empty());
        // After clear the clock is back at zero: time-zero pushes pop.
        wheel.push(SimTime(0), 0, 3);
        assert_eq!(wheel.pop().map(|(at, s, v)| (at.0, s, v)), Some((0, 0, 3)));
    }

    #[test]
    fn arena_stays_at_peak_pending_and_survives_clear() {
        // A census-shaped schedule, 10 000 cycles of four pushes (one past
        // the horizon) and the pops that have come due; returns the most
        // events the arena ever held. With `cancel`, each cycle's 2 s
        // timeout is cancelled 40 cycles (32 ms) on — an answered query's.
        fn drive(wheel: &mut TimerWheel<u64>, cancel: bool) -> usize {
            let (mut seq, mut peak) = (0u64, 0usize);
            let mut timeouts = std::collections::VecDeque::new();
            for cycle in 0..10_000u64 {
                let now = cycle * 800;
                for at in [
                    now + 800,
                    now + 30_000 + (cycle % 97) * 100,
                    now + 2_000_000,
                    now + (1 << 37),
                ] {
                    let (_, id) = wheel.push_cancellable(SimTime(at), seq, seq);
                    if cancel && at == now + 2_000_000 {
                        timeouts.push_back(id);
                    }
                    seq += 1;
                }
                if timeouts.len() > 40 {
                    assert!(wheel.cancel(timeouts.pop_front().unwrap()));
                }
                peak = peak.max(wheel.len() - wheel.far.len());
                while wheel.pop_at_or_before(SimTime(now)).is_some() {}
                if cycle % 500 == 0 {
                    wheel.check_invariants();
                }
            }
            peak
        }
        let mut wheel = TimerWheel::new();
        let peak = drive(&mut wheel, false);
        assert!(peak < 3_000, "the schedule reaches a steady state: {peak}");
        // Every popped node was reused before the arena grew again.
        assert!(wheel.nodes.len() <= peak, "{} > {peak}", wheel.nodes.len());
        let capacity = (wheel.nodes.capacity(), wheel.far.capacity());
        wheel.clear();
        wheel.check_invariants();
        assert_eq!(drive(&mut wheel, false), peak);
        assert!(wheel.nodes.len() <= peak);
        assert_eq!((wheel.nodes.capacity(), wheel.far.capacity()), capacity);

        // 9 960 cancelled timeouts do not cost 9 960 cells: a cancelled
        // node is freed by the first walk over its list, no later than it
        // would have popped, so the arena stays inside what the same
        // pushes needed uncancelled.
        let mut wheel = TimerWheel::new();
        let live_peak = drive(&mut wheel, true);
        assert!(live_peak < 200, "timeouts no longer pile up: {live_peak}");
        assert!(wheel.nodes.len() <= peak, "{} > {peak}", wheel.nodes.len());
        wheel.check_invariants();
    }
}
