//! Framed slotted ALOHA with window adaptation.
//!
//! For an unknown node population, the reader announces a contention window
//! of `w` slots; each unidentified node picks one uniformly and backscatters
//! its address there. The reader classifies every slot as idle, single
//! (success — that node is identified and told to shut up) or collision,
//! then adapts `w` toward the remaining population (Q-algorithm style:
//! too many collisions → double, too many idles → halve).

use crate::Addr;
use rand::{Rng, RngExt};

/// What the reader observed in one contention slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// Nobody answered.
    Idle,
    /// Exactly one node answered (identified).
    Single(Addr),
    /// Two or more nodes answered on top of each other.
    Collision,
}

/// Classifies a slot given the addresses that chose it.
pub fn classify_slot(respondents: &[Addr]) -> SlotOutcome {
    match respondents {
        [] => SlotOutcome::Idle,
        [one] => SlotOutcome::Single(*one),
        _ => SlotOutcome::Collision,
    }
}

/// Reader-side framed-ALOHA controller.
#[derive(Debug, Clone)]
pub struct AlohaReader {
    window: usize,
    min_window: usize,
    max_window: usize,
    /// Identified node addresses, in discovery order.
    pub identified: Vec<Addr>,
    /// Total slots spent.
    pub slots_used: u64,
    /// Total collisions observed.
    pub collisions: u64,
    /// Round scratch, reused across rounds: each pending node's slot, the
    /// running end of each slot's bucket, the respondents bucketed by slot
    /// (pending order within a slot), the round's outcomes and its newly
    /// identified addresses (sorted).
    slot_of: Vec<usize>,
    ends: Vec<usize>,
    respondents: Vec<Addr>,
    outcomes: Vec<SlotOutcome>,
    found: Vec<Addr>,
}

impl AlohaReader {
    /// Creates a controller with an initial window of `w` slots and the
    /// classic 256-slot window ceiling (the paper-scale default every
    /// single-reader deployment uses).
    pub fn new(w: usize) -> Self {
        Self::with_max_window(w, 256)
    }

    /// Creates a controller whose window may grow up to `max_window`
    /// slots — ocean-scale cells with thousands of contenders need more
    /// headroom than the classic 256-slot ceiling.
    pub fn with_max_window(w: usize, max_window: usize) -> Self {
        assert!(w >= 1 && max_window >= w);
        Self {
            window: w,
            min_window: 1,
            max_window,
            identified: Vec::new(),
            slots_used: 0,
            collisions: 0,
            slot_of: Vec::new(),
            ends: Vec::new(),
            respondents: Vec::new(),
            outcomes: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Current contention window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs one contention round against the (hidden) set of unidentified
    /// nodes, using `rng` for their slot choices. Returns outcomes per slot.
    ///
    /// `pending` is mutated: identified nodes are removed.
    ///
    /// Slots are resolved with the abstract [`classify_slot`] rule (any two
    /// respondents collide). Use [`AlohaReader::run_round_with`] to plug in
    /// a physical-layer resolver instead.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        pending: &mut Vec<Addr>,
        rng: &mut R,
    ) -> &[SlotOutcome] {
        self.run_round_with(pending, rng, classify_slot)
    }

    /// Like [`AlohaReader::run_round`], but each slot is resolved by
    /// `resolve`, which maps the addresses that transmitted in the slot to
    /// a [`SlotOutcome`].
    ///
    /// This is the seam `vab-net` uses to replace the abstract
    /// "two respondents = collision" rule with physical-layer capture:
    /// superpose the respondents' received powers, decide capture by
    /// per-node SINR, and report `Single` only when one reply both captures
    /// the hydrophone and decodes. The resolver must return `Idle` only for
    /// empty slots and may return `Single(addr)` only for an `addr` that is
    /// actually in the slot — window adaptation and identification both
    /// trust it. Respondents reach it in `pending` order, slot by slot.
    pub fn run_round_with<R: Rng + ?Sized, F>(
        &mut self,
        pending: &mut Vec<Addr>,
        rng: &mut R,
        mut resolve: F,
    ) -> &[SlotOutcome]
    where
        F: FnMut(&[Addr]) -> SlotOutcome,
    {
        let w = self.window;
        // Every node draws its slot in `pending` order; a counting sort
        // then buckets the respondents into one flat buffer.
        self.slot_of.clear();
        self.slot_of.extend(pending.iter().map(|_| rng.random_range(0..w)));
        self.ends.clear();
        self.ends.resize(w, 0);
        for &s in &self.slot_of {
            self.ends[s] += 1;
        }
        let mut begin = 0;
        for end in &mut self.ends {
            (*end, begin) = (begin, begin + *end);
        }
        self.respondents.clear();
        self.respondents.resize(pending.len(), 0);
        for (&s, &addr) in self.slot_of.iter().zip(pending.iter()) {
            self.respondents[self.ends[s]] = addr;
            self.ends[s] += 1;
        }
        let before = self.identified.len();
        let mut idles = 0usize;
        let mut colls = 0usize;
        self.outcomes.clear();
        let mut begin = 0;
        for &end in &self.ends {
            let outcome = resolve(&self.respondents[begin..end]);
            begin = end;
            self.slots_used += 1;
            match outcome {
                SlotOutcome::Idle => idles += 1,
                SlotOutcome::Single(addr) => self.identified.push(addr),
                SlotOutcome::Collision => {
                    colls += 1;
                    self.collisions += 1;
                }
            }
            self.outcomes.push(outcome);
        }
        // Identified nodes stop contending.
        if self.identified.len() > before {
            self.found.clear();
            self.found.extend_from_slice(&self.identified[before..]);
            self.found.sort_unstable();
            pending.retain(|a| self.found.binary_search(a).is_err());
        }
        // Window adaptation: aim for ~one node per slot.
        if colls * 2 > w {
            self.window = (self.window * 2).min(self.max_window);
        } else if idles * 2 > w && colls == 0 {
            self.window = (self.window / 2).max(self.min_window);
        }
        &self.outcomes
    }
}

/// Theoretical throughput of framed slotted ALOHA: the success probability
/// per slot with `n` contenders in `w` slots, `n/w·(1−1/w)^{n−1}`.
pub fn slot_success_probability(n: usize, w: usize) -> f64 {
    if n == 0 || w == 0 {
        return 0.0;
    }
    let n = n as f64;
    let w = w as f64;
    n / w * (1.0 - 1.0 / w).powf(n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::seeded;

    #[test]
    fn classification() {
        assert_eq!(classify_slot(&[]), SlotOutcome::Idle);
        assert_eq!(classify_slot(&[7]), SlotOutcome::Single(7));
        assert_eq!(classify_slot(&[1, 2]), SlotOutcome::Collision);
    }

    #[test]
    fn eventually_identifies_everyone() {
        let mut rng = seeded(71);
        let mut reader = AlohaReader::new(4);
        let mut pending: Vec<Addr> = (1..=20).collect();
        let mut rounds = 0;
        while !pending.is_empty() && rounds < 100 {
            reader.run_round(&mut pending, &mut rng);
            rounds += 1;
        }
        assert!(pending.is_empty(), "{} nodes never identified", pending.len());
        let mut ids = reader.identified.clone();
        ids.sort();
        assert_eq!(ids, (1..=20).collect::<Vec<Addr>>());
    }

    #[test]
    fn injected_resolver_can_capture_collisions() {
        // A resolver where the lowest address always captures the slot:
        // every occupied slot identifies someone, so no collisions are ever
        // recorded and inventory still completes.
        let mut rng = seeded(75);
        let mut reader = AlohaReader::new(2);
        let mut pending: Vec<Addr> = (1..=12).collect();
        let mut rounds = 0;
        while !pending.is_empty() && rounds < 200 {
            reader.run_round_with(&mut pending, &mut rng, |r| match r {
                [] => SlotOutcome::Idle,
                _ => SlotOutcome::Single(*r.iter().min().unwrap()),
            });
            rounds += 1;
        }
        assert!(pending.is_empty(), "{} nodes never identified", pending.len());
        assert_eq!(reader.collisions, 0, "capture resolver never reports collisions");
    }

    /// The round before flat bucketing: one `Vec` per slot and a
    /// `pending.retain` per identified node.
    fn run_round_nested<R: Rng + ?Sized, F>(
        reader: &mut AlohaReader,
        pending: &mut Vec<Addr>,
        rng: &mut R,
        mut resolve: F,
    ) -> Vec<SlotOutcome>
    where
        F: FnMut(&[Addr]) -> SlotOutcome,
    {
        let w = reader.window;
        let mut chosen: Vec<Vec<Addr>> = vec![Vec::new(); w];
        for &addr in pending.iter() {
            let s = rng.random_range(0..w);
            chosen[s].push(addr);
        }
        let outcomes: Vec<SlotOutcome> = chosen.iter().map(|v| resolve(v)).collect();
        let mut idles = 0usize;
        let mut colls = 0usize;
        for o in &outcomes {
            reader.slots_used += 1;
            match o {
                SlotOutcome::Idle => idles += 1,
                SlotOutcome::Single(addr) => {
                    reader.identified.push(*addr);
                    pending.retain(|&a| a != *addr);
                }
                SlotOutcome::Collision => {
                    colls += 1;
                    reader.collisions += 1;
                }
            }
        }
        if colls * 2 > w {
            reader.window = (reader.window * 2).min(reader.max_window);
        } else if idles * 2 > w && colls == 0 {
            reader.window = (reader.window / 2).max(reader.min_window);
        }
        outcomes
    }

    /// A capture-style resolver that logs every call: the last respondent
    /// captures a slot of up to three when its address is not a multiple
    /// of 3.
    fn capture_logged(log: &mut Vec<Vec<Addr>>) -> impl FnMut(&[Addr]) -> SlotOutcome + '_ {
        move |r| {
            log.push(r.to_vec());
            match r {
                [] => SlotOutcome::Idle,
                [.., last] if r.len() <= 3 && last % 3 != 0 => SlotOutcome::Single(*last),
                _ => SlotOutcome::Collision,
            }
        }
    }

    #[test]
    fn flat_buckets_match_nested_rounds() {
        let mut gen = seeded(76);
        for case in 0..200 {
            let n = gen.random_range(0..600usize);
            let mut pending: Vec<Addr> = (0..n)
                .map(|_| gen.random_range(0..5_000u32))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            // Shuffle so `pending` order differs from address order.
            for i in (1..pending.len()).rev() {
                pending.swap(i, gen.random_range(0..=i));
            }
            let max_window = 1usize << gen.random_range(0..11u32);
            let w = gen.random_range(1..=max_window);
            let seed = gen.random::<u64>();
            let (mut new_reader, mut old_reader) = (
                AlohaReader::with_max_window(w, max_window),
                AlohaReader::with_max_window(w, max_window),
            );
            let (mut new_pending, mut old_pending) = (pending.clone(), pending);
            let (mut new_rng, mut old_rng) = (seeded(seed), seeded(seed));
            for round in 0..6 {
                let (mut new_log, mut old_log) = (Vec::new(), Vec::new());
                let new_out = new_reader
                    .run_round_with(&mut new_pending, &mut new_rng, capture_logged(&mut new_log))
                    .to_vec();
                let old_out = run_round_nested(
                    &mut old_reader,
                    &mut old_pending,
                    &mut old_rng,
                    capture_logged(&mut old_log),
                );
                let at = format!("case {case} round {round}");
                assert_eq!(new_out, old_out, "{at}: outcomes");
                assert_eq!(new_log, old_log, "{at}: respondents per slot");
                assert_eq!(new_reader.identified, old_reader.identified, "{at}: identified");
                assert_eq!(new_pending, old_pending, "{at}: pending");
                assert_eq!(new_reader.window(), old_reader.window(), "{at}: window");
                assert_eq!(new_reader.slots_used, old_reader.slots_used, "{at}: slots_used");
                assert_eq!(new_reader.collisions, old_reader.collisions, "{at}: collisions");
            }
            assert_eq!(new_rng.random::<u64>(), old_rng.random::<u64>(), "case {case}: next draw");
        }
    }

    #[test]
    fn window_grows_under_collisions() {
        let mut rng = seeded(72);
        let mut reader = AlohaReader::new(2);
        let mut pending: Vec<Addr> = (1..=50).collect();
        reader.run_round(&mut pending, &mut rng);
        assert!(reader.window() > 2, "50 nodes in 2 slots must collide");
    }

    #[test]
    fn window_shrinks_when_empty() {
        let mut rng = seeded(73);
        let mut reader = AlohaReader::new(64);
        let mut pending: Vec<Addr> = vec![1];
        reader.run_round(&mut pending, &mut rng);
        assert!(reader.window() < 64);
    }

    #[test]
    fn efficiency_near_theory() {
        // With w ≈ n the per-slot success probability approaches 1/e; total
        // slots to identify n nodes ≈ e·n. Allow generous slack for the
        // adaptive transient.
        let mut rng = seeded(74);
        let mut reader = AlohaReader::new(32);
        let mut pending: Vec<Addr> = (1..=32).collect();
        while !pending.is_empty() {
            reader.run_round(&mut pending, &mut rng);
        }
        let slots_per_node = reader.slots_used as f64 / 32.0;
        assert!(
            slots_per_node > 1.5 && slots_per_node < 6.0,
            "slots/node = {slots_per_node} (theory ≈ e ≈ 2.7)"
        );
    }

    #[test]
    fn success_probability_peaks_at_w_equals_n() {
        let n = 16;
        let at_n = slot_success_probability(n, n);
        assert!(at_n > slot_success_probability(n, 4));
        assert!(at_n > slot_success_probability(n, 128));
        // Peak value tends to 1/e for large n.
        assert!((at_n - (-1.0f64).exp()).abs() < 0.05, "{at_n}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(slot_success_probability(0, 8), 0.0);
        assert_eq!(slot_success_probability(8, 0), 0.0);
    }
}
