//! A bidirectional ring of routers (§3.2, Fig. 7).
//!
//! Rings keep routing trivial — at injection, pick the direction with
//! fewer hops (ties broken toward the less congested output queue) and
//! ride it to the exit position. Per-hop cost is one channel traversal;
//! the channel model (including bidirectional lane granting and
//! high-density slicing) lives in [`crate::link`].

use smarco_sim::Cycle;

use crate::link::{Channel, LinkConfig, Transmittable};

/// Travel direction around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward increasing positions.
    Cw,
    /// Toward decreasing positions.
    Ccw,
}

/// Internal wrapper: an item plus its routing state on this ring.
#[derive(Debug, Clone)]
struct RingItem<T> {
    exit: usize,
    dir: Dir,
    hops: u32,
    item: T,
}

impl<T: Transmittable> Transmittable for RingItem<T> {
    fn bytes(&self) -> u32 {
        self.item.bytes()
    }
    fn realtime(&self) -> bool {
        self.item.realtime()
    }
    fn class(&self) -> u8 {
        self.item.class()
    }
}

/// Ring-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingStats {
    /// Items delivered at their exit position.
    pub delivered: u64,
    /// Total hops travelled by delivered items.
    pub total_hops: u64,
}

/// Set of channel indices, iterated in increasing order.
#[derive(Debug, Clone)]
struct ChannelSet {
    words: Vec<u64>,
}

impl ChannelSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// A ring of `n` router positions connected by [`Channel`]s.
///
/// The ring is topology-only: it moves opaque items from an injection
/// position to an exit position. Endpoint semantics (which position is a
/// core, a junction, a memory controller) belong to
/// [`crate::hierarchy::HierarchicalRing`].
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// `channels[i]` joins position `i` (fwd = cw) and `i+1 mod n`.
    channels: Vec<Channel<RingItem<T>>>,
    /// Channels with anything queued or in flight — the only ones
    /// [`tick`](Self::tick) moves traffic on.
    active: ChannelSet,
    n: usize,
    /// When on, high-class items (class ≥ 2) pick their direction by a
    /// congestion-weighted cost instead of pure minimum hops.
    adaptive: bool,
    stats: RingStats,
}

impl<T: Transmittable> Ring<T> {
    /// Creates a ring of `n` positions.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the link config is invalid.
    pub fn new(n: usize, link: LinkConfig) -> Self {
        assert!(n >= 2, "a ring needs at least two positions");
        link.validate();
        Self {
            channels: (0..n).map(|_| Channel::new(link)).collect(),
            active: ChannelSet::new(n),
            n,
            adaptive: false,
            stats: RingStats::default(),
        }
    }

    /// Turns criticality-adaptive direction choice on or off (default
    /// off). With it on, items of class ≥ 2 weigh queued congestion
    /// against hop distance when picking a direction; lower classes (and
    /// everything, when off) keep the original minimum-hop rule.
    pub fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — rings have at least two positions.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Statistics so far.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Degrades (or restores) the channel between positions `i` and
    /// `i+1 mod n` — fault-injection hook: model a partially failed link
    /// by giving it fewer lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the config is invalid.
    pub fn set_channel_config(&mut self, i: usize, link: LinkConfig) {
        assert!(i < self.n, "channel {i} out of range");
        self.channels[i].set_config(link);
    }

    /// Hop distance from `a` to `b` travelling `dir`.
    pub fn distance(&self, a: usize, b: usize, dir: Dir) -> usize {
        match dir {
            Dir::Cw => (b + self.n - a) % self.n,
            Dir::Ccw => (a + self.n - b) % self.n,
        }
    }

    fn out_queue_bytes(&self, at: usize, dir: Dir) -> u64 {
        match dir {
            Dir::Cw => self.channels[at].fwd.queued_bytes(),
            Dir::Ccw => self.channels[(at + self.n - 1) % self.n].rev.queued_bytes(),
        }
    }

    /// Pending bytes in both output queues of position `at` (congestion
    /// metric).
    pub fn congestion_at(&self, at: usize) -> u64 {
        self.out_queue_bytes(at, Dir::Cw) + self.out_queue_bytes(at, Dir::Ccw)
    }

    /// Injects `item` at position `at`, to leave the ring at `exit`.
    ///
    /// Direction is chosen by minimum hops; on a tie, by the smaller
    /// output-queue backlog (§3.2: cores "choose both directions of
    /// sub-ring to send packets based on the congestion condition").
    /// Returns `Some(item)` immediately when `at == exit`.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn inject(&mut self, at: usize, exit: usize, item: T) -> Option<T> {
        assert!(at < self.n && exit < self.n, "position out of range");
        if at == exit {
            self.stats.delivered += 1;
            return Some(item);
        }
        let dcw = self.distance(at, exit, Dir::Cw);
        let dccw = self.distance(at, exit, Dir::Ccw);
        let dir = if self.adaptive && item.class() >= 2 {
            // Criticality-adaptive choice: estimate the cycles to reach
            // the exit as hop-serialization plus draining the local
            // backlog at peak width, and take the cheaper way round even
            // when it is the longer one.
            let width = u64::from(self.channels[at].config().max_capacity()).max(1);
            let cost = |d: usize, q: u64| d as u64 * width + q;
            let ccw = cost(dccw, self.out_queue_bytes(at, Dir::Ccw));
            if cost(dcw, self.out_queue_bytes(at, Dir::Cw)) <= ccw {
                Dir::Cw
            } else {
                Dir::Ccw
            }
        } else if dcw < dccw {
            Dir::Cw
        } else if dccw < dcw {
            Dir::Ccw
        } else if self.out_queue_bytes(at, Dir::Cw) <= self.out_queue_bytes(at, Dir::Ccw) {
            Dir::Cw
        } else {
            Dir::Ccw
        };
        let wrapped = RingItem {
            exit,
            dir,
            hops: 0,
            item,
        };
        self.push_out(at, wrapped);
        None
    }

    fn push_out(&mut self, at: usize, item: RingItem<T>) {
        let i = match item.dir {
            Dir::Cw => at,
            Dir::Ccw => (at + self.n - 1) % self.n,
        };
        self.active.insert(i);
        let ch = &mut self.channels[i];
        match item.dir {
            Dir::Cw => ch.fwd.push(item),
            Dir::Ccw => ch.rev.push(item),
        }
    }

    /// Advances one cycle; returns `(exit_position, hops, item)` for every
    /// item that reached its exit.
    ///
    /// Arrivals are collected only from active channels (anything queued
    /// or in flight), in position order, and only channels with queued
    /// bytes are ticked. Every other channel is charged through
    /// [`Channel::skip_idle`], which equals an idle [`Channel::tick`] byte
    /// for byte, so the result is identical to ticking every channel.
    pub fn tick(&mut self, now: Cycle) -> Vec<(usize, u32, T)> {
        let mut delivered = Vec::new();
        // 1. Arrivals: collect from every active channel, then forward or
        //    eject.
        let mut moved = Vec::new();
        for i in self.active.iter() {
            while let Some(mut it) = self.channels[i].fwd.pop_arrival(now) {
                it.hops += 1;
                moved.push(((i + 1) % self.n, it));
            }
            while let Some(mut it) = self.channels[i].rev.pop_arrival(now) {
                it.hops += 1;
                moved.push((i, it));
            }
        }
        for (pos, it) in moved {
            if it.exit == pos {
                self.stats.delivered += 1;
                self.stats.total_hops += u64::from(it.hops);
                delivered.push((pos, it.hops, it.item));
            } else {
                self.push_out(pos, it);
            }
        }
        // 2. Transmit where bytes are queued. Charge every other channel
        //    as idle, and retire the ones that have drained.
        for (i, ch) in self.channels.iter_mut().enumerate() {
            if ch.has_queued() {
                ch.tick(now);
            } else {
                ch.skip_idle(now, now + 1);
                if ch.is_empty() {
                    self.active.remove(i);
                }
            }
        }
        delivered
    }

    /// Whether nothing is queued or in flight anywhere on the ring.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Event horizon: the earliest cycle at or after `now` at which any
    /// channel can transmit or deliver. Arrivals are processed before
    /// transmits within a tick, so an in-flight item due at `t` acts
    /// exactly at `t` — the wire due-cycle is an exact horizon, not an
    /// approximation. `None` when the ring is fully drained.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.active
            .iter()
            .filter_map(|i| self.channels[i].next_event(now))
            .min()
    }

    /// Fast-forwards an idle ring across `[from, to)`: every channel
    /// accumulates its idle-grant offered-capacity statistics without
    /// being ticked.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        for ch in &mut self.channels {
            ch.skip_idle(from, to);
        }
    }

    /// Cumulative `(payload, offered)` bytes summed over all channel
    /// directions. Monotonic counters: the windowed-metrics recorder diffs
    /// successive snapshots to get per-window utilization.
    pub fn payload_offered_bytes(&self) -> (u64, u64) {
        let (mut payload, mut offered) = (0u64, 0u64);
        for ch in &self.channels {
            for s in [ch.fwd.stats(), ch.rev.stats()] {
                payload += s.payload_bytes;
                offered += s.offered_bytes;
            }
        }
        (payload, offered)
    }

    /// Aggregated payload utilization across all channel directions.
    pub fn payload_utilization(&self) -> f64 {
        let (payload, offered) = self.payload_offered_bytes();
        if offered == 0 {
            0.0
        } else {
            payload as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_sim::rng::SimRng;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u32);

    impl Transmittable for P {
        fn bytes(&self) -> u32 {
            self.0
        }
    }

    fn ring(n: usize) -> Ring<P> {
        Ring::new(
            n,
            LinkConfig {
                lanes_fixed_per_dir: 1,
                lanes_bidir: 0,
                lane_bytes: 8,
                slice_bytes: Some(2),
                hop_latency: 1,
            },
        )
    }

    fn run_until_delivered(r: &mut Ring<P>, max: Cycle) -> Vec<(Cycle, usize, u32)> {
        let mut out = Vec::new();
        for now in 0..max {
            for (pos, hops, _) in r.tick(now) {
                out.push((now, pos, hops));
            }
        }
        out
    }

    #[test]
    fn short_way_round_is_chosen() {
        let mut r = ring(8);
        assert!(r.inject(0, 2, P(4)).is_none());
        let d = run_until_delivered(&mut r, 10);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, 2);
        assert_eq!(d[0].2, 2, "2 hops cw, not 6 ccw");
    }

    #[test]
    fn ccw_shortcut_is_taken() {
        let mut r = ring(8);
        r.inject(1, 7, P(4));
        let d = run_until_delivered(&mut r, 10);
        assert_eq!(d[0].2, 2, "2 hops ccw, not 6 cw");
    }

    #[test]
    fn self_delivery_is_immediate() {
        let mut r = ring(4);
        assert_eq!(r.inject(3, 3, P(4)), Some(P(4)));
        assert_eq!(r.stats().delivered, 1);
    }

    #[test]
    fn tie_breaks_toward_less_congested_direction() {
        let mut r = ring(4);
        // Pre-load the cw output queue of node 0.
        for _ in 0..10 {
            r.inject(0, 1, P(64));
        }
        // 0 → 2 is a 2-hop tie; congestion should steer it ccw.
        r.inject(0, 2, P(4));
        let cw_q = r.out_queue_bytes(0, Dir::Cw);
        let ccw_q = r.out_queue_bytes(0, Dir::Ccw);
        assert!(ccw_q > 0, "tied packet went ccw (cw backlog {cw_q})");
    }

    #[test]
    fn hop_latency_accumulates() {
        let mut r = ring(8);
        r.inject(0, 4, P(2));
        let d = run_until_delivered(&mut r, 20);
        // 4 hops at ≥1 cycle each: delivery at cycle ≥ 3 (arrivals lead
        // transmits within a tick), exactly 4 hops.
        assert_eq!(d[0].2, 4);
        assert!(r.is_idle());
    }

    #[test]
    fn many_packets_all_arrive_exactly_once() {
        let mut r = ring(16);
        let mut expected = 0;
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    r.inject(src, dst, P(4));
                    expected += 1;
                }
            }
        }
        let d = run_until_delivered(&mut r, 500);
        assert_eq!(d.len(), expected);
        assert_eq!(r.stats().delivered as usize, expected);
        assert!(r.is_idle());
    }

    #[test]
    fn utilization_rises_under_load() {
        let mut r = ring(8);
        for src in 0..8 {
            for _ in 0..4 {
                r.inject(src, (src + 4) % 8, P(8));
            }
        }
        let _ = run_until_delivered(&mut r, 100);
        assert!(r.payload_utilization() > 0.0);
    }

    #[test]
    fn skip_idle_matches_ticking_an_idle_ring() {
        let mut ticked = ring(4);
        let mut skipped = ring(4);
        for now in 0..50 {
            ticked.tick(now);
        }
        skipped.skip_idle(0, 50);
        assert_eq!(
            ticked.payload_offered_bytes(),
            skipped.payload_offered_bytes()
        );
    }

    #[test]
    fn ring_horizon_follows_in_flight_items() {
        let mut r = ring(8);
        assert_eq!(r.next_event(3), None);
        r.inject(0, 2, P(4));
        assert_eq!(r.next_event(3), Some(3), "queued item acts immediately");
        r.tick(3); // transmits; arrival due at 4
        assert_eq!(r.next_event(3), Some(4));
        let _ = run_until_delivered(&mut r, 20);
        assert_eq!(r.next_event(20), None);
    }

    /// A routed item with an identity, a size and an arbitration class.
    #[derive(Debug, Clone, PartialEq)]
    struct Tagged {
        id: u32,
        bytes: u32,
        class: u8,
    }

    impl Transmittable for Tagged {
        fn bytes(&self) -> u32 {
            self.bytes
        }
        fn class(&self) -> u8 {
            self.class
        }
    }

    /// The reference tick: every channel is visited for arrivals and
    /// ticked for transmission, whatever it holds.
    fn tick_every_channel(r: &mut Ring<Tagged>, now: Cycle) -> Vec<(usize, u32, Tagged)> {
        let mut delivered = Vec::new();
        let mut moved = Vec::new();
        for i in 0..r.n {
            for mut it in r.channels[i].fwd.arrivals(now) {
                it.hops += 1;
                moved.push(((i + 1) % r.n, it));
            }
            for mut it in r.channels[i].rev.arrivals(now) {
                it.hops += 1;
                moved.push((i, it));
            }
        }
        for (pos, it) in moved {
            if it.exit == pos {
                r.stats.delivered += 1;
                r.stats.total_hops += u64::from(it.hops);
                delivered.push((pos, it.hops, it.item));
            } else {
                r.push_out(pos, it);
            }
        }
        for ch in &mut r.channels {
            ch.tick(now);
        }
        delivered
    }

    #[test]
    fn active_channel_tick_matches_ticking_every_channel() {
        let sub = LinkConfig::sub_ring();
        let geometries = [
            (2, sub, false),
            (5, sub.conventional(), false),
            (17, sub, false),
            (17, sub, true),
            (22, LinkConfig::main_ring(), true),
            (22, LinkConfig::main_ring().conventional(), false),
            (70, sub.sliced(4), true),
            // Multi-cycle hops leave channels with traffic in flight
            // but nothing queued.
            (
                9,
                LinkConfig {
                    hop_latency: 3,
                    ..sub
                },
                true,
            ),
        ];
        for (seed, &(n, link, adaptive)) in geometries.iter().enumerate() {
            let mut rng = SimRng::new(seed as u64 + 1);
            let mut gated: Ring<Tagged> = Ring::new(n, link);
            let mut reference: Ring<Tagged> = Ring::new(n, link);
            gated.set_adaptive(adaptive);
            reference.set_adaptive(adaptive);
            let mut id = 0;
            for now in 0..3000 {
                // Bursty load with long quiet stretches, so channels go
                // active and idle again many times.
                let injections = if (now / 200) % 3 == 2 {
                    0
                } else {
                    rng.gen_index(4)
                };
                for _ in 0..injections {
                    let item = Tagged {
                        id,
                        bytes: 1 + rng.gen_range(80) as u32,
                        class: rng.gen_range(4) as u8,
                    };
                    id += 1;
                    let (at, exit) = (rng.gen_index(n), rng.gen_index(n));
                    assert_eq!(
                        gated.inject(at, exit, item.clone()),
                        reference.inject(at, exit, item)
                    );
                }
                assert_eq!(
                    gated.tick(now),
                    tick_every_channel(&mut reference, now),
                    "n={n} cycle {now}"
                );
                assert_eq!(gated.next_event(now + 1), reference.next_event(now + 1));
                assert_eq!(
                    gated.is_idle(),
                    reference.channels.iter().all(Channel::is_empty)
                );
            }
            assert!(gated.stats().delivered > 0);
            assert_eq!(gated.stats(), reference.stats());
            for (g, r) in gated.channels.iter().zip(&reference.channels) {
                assert_eq!(g.fwd.stats(), r.fwd.stats(), "n={n} fwd");
                assert_eq!(g.rev.stats(), r.rev.stats(), "n={n} rev");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two positions")]
    fn tiny_ring_rejected() {
        let _: Ring<P> = ring(1);
    }

    #[test]
    #[should_panic(expected = "position out of range")]
    fn bad_position_rejected() {
        ring(4).inject(0, 9, P(1));
    }
}
