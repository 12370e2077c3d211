//! The cluster shared memory with two-dimensional banking (Section 3.2.1).
//!
//! The shared memory must serve two very different request shapes
//! concurrently:
//!
//! * narrow 4-byte accesses from the individual SIMT lanes of every core, and
//! * wide `4·n`-byte accesses from the matrix units (where `n` is the systolic
//!   array dimension or operand-buffer width).
//!
//! The paper's design partitions the address space across *banks* (one wide
//! port each) and *subbanks* (one word each per cycle), splits wide requests
//! into word-sized sub-requests distributed over the subbanks of a single
//! bank, prioritizes wide requests so the matrix unit runs at full throughput,
//! and serializes unaligned SIMT accesses into a single lane before the
//! crossbar. This model reproduces those arbitration rules with a
//! latency/occupancy approach and keeps the counters needed for the Table 4
//! footprint comparison and the shared-memory energy numbers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use virgo_sim::fault::{EccInjector, EccStats};
use virgo_sim::{Cycle, StableHash, StableHasher};

/// Configuration of the shared memory.
///
/// The bank count, the subbank count and the bank size
/// (`capacity_bytes / banks`) must be powers of two, with at most 64 banks;
/// [`SharedMemory::new`] rejects any other geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemConfig {
    /// Total capacity in bytes (128 KiB in Table 2). Divided by `banks` it
    /// must give a power-of-two bank size.
    pub capacity_bytes: u64,
    /// Number of banks (4 in Table 2, 8 when doubled for the Volta- and
    /// Ampere-style baselines): a power of two, at most 64. Each bank has
    /// one wide port.
    pub banks: u32,
    /// Number of subbanks per bank (8–16 in Table 2): a power of two. Each
    /// subbank serves one 4-byte word per cycle.
    pub subbanks: u32,
    /// Access latency in cycles once a request wins arbitration.
    pub latency: u64,
}

impl StableHash for SmemConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.capacity_bytes);
        h.write_u64(u64::from(self.banks));
        h.write_u64(u64::from(self.subbanks));
        h.write_u64(self.latency);
    }
}

impl SmemConfig {
    /// The baseline Table 2 configuration: 128 KiB, 4 banks × 8 subbanks.
    pub fn default_cluster() -> Self {
        SmemConfig {
            capacity_bytes: 128 * 1024,
            banks: 4,
            subbanks: 8,
            latency: 2,
        }
    }

    /// The Virgo configuration with 16 subbanks per bank, matching the
    /// 64-byte wide accesses of the 16×16 systolic array.
    pub fn virgo_cluster() -> Self {
        SmemConfig {
            subbanks: 16,
            ..Self::default_cluster()
        }
    }

    /// A configuration with doubled banking, used for the Volta/Ampere-style
    /// baselines (Section 6.1.3 notes their shared-memory bandwidth had to be
    /// scaled 2× to avoid bottlenecking the tensor cores).
    pub fn double_banked() -> Self {
        SmemConfig {
            banks: 8,
            ..Self::default_cluster()
        }
    }

    /// Bytes covered by one bank.
    pub fn bank_bytes(&self) -> u64 {
        self.capacity_bytes / u64::from(self.banks)
    }

    /// Peak bandwidth in bytes per cycle (all banks × all subbanks × 4 B).
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        u64::from(self.banks) * u64::from(self.subbanks) * 4
    }
}

/// Event counters for the shared memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmemStats {
    /// 32-bit words read (SIMT and wide ports combined).
    pub words_read: u64,
    /// 32-bit words written.
    pub words_written: u64,
    /// Bytes read — the Table 4 "shared memory read footprint".
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// SIMT warp accesses served.
    pub simt_accesses: u64,
    /// Wide (matrix unit / DMA) accesses served.
    pub wide_accesses: u64,
    /// Extra cycles spent replaying bank/subbank conflicts.
    pub conflict_cycles: u64,
    /// Unaligned SIMT lane accesses serialized before the crossbar.
    pub unaligned_serialized: u64,
}
virgo_sim::counters!(SmemStats {
    words_read,
    words_written,
    bytes_read,
    bytes_written,
    simt_accesses,
    wide_accesses,
    conflict_cycles,
    unaligned_serialized,
});

/// Completion information for one shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemAccess {
    /// Cycle at which the data is available (loads) or committed (stores).
    pub done: Cycle,
    /// Cycles the access occupied its bank(s) beyond the first.
    pub conflict_cycles: u64,
}

/// One deferred wide read scheduled by a streaming producer (the batched
/// Gemmini operand FSM). Ordered by `(cycle, seq)` so draining the pending
/// heap replays reads in exactly the order the per-cycle schedule would have
/// issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StreamRead {
    cycle: Cycle,
    seq: u64,
    addr: u64,
    bytes: u64,
}

/// Sorts and deduplicates `(subbank slot, word)` pairs and returns the
/// deepest slot queue: each subbank serves one distinct word per cycle, and
/// after sorting a slot's queue is its contiguous run.
fn deepest_slot_queue(slots: &mut [(u32, u64)]) -> u64 {
    slots.sort_unstable();
    let mut max_depth = 0u64;
    let mut run = 0u64;
    let mut prev = None;
    for &pair in slots.iter() {
        match prev {
            Some(p) if p == pair => continue,
            Some((slot, _)) if slot == pair.0 => run += 1,
            _ => run = 1,
        }
        prev = Some(pair);
        max_depth = max_depth.max(run);
    }
    max_depth
}

/// The banked shared memory.
///
/// # Example
///
/// ```
/// use virgo_mem::{SharedMemory, SmemConfig};
/// use virgo_sim::Cycle;
///
/// let mut smem = SharedMemory::new(SmemConfig::default_cluster());
/// // Eight lanes reading consecutive words from one bank: conflict-free.
/// let addrs: Vec<u64> = (0..8).map(|i| i * 4).collect();
/// let access = smem.access_simt(Cycle::new(0), &addrs, false);
/// assert_eq!(access.conflict_cycles, 0);
/// assert!(smem.stats().bytes_read >= 32);
/// ```
#[derive(Debug, Clone)]
pub struct SharedMemory {
    config: SmemConfig,
    /// `log2(bank_bytes)`.
    bank_shift: u32,
    /// `banks - 1`.
    bank_mask: u64,
    /// `log2(subbanks)`.
    subbank_shift: u32,
    /// `subbanks - 1`.
    subbank_mask: u64,
    /// Per-bank cycle at which the bank's ports are next free.
    bank_busy_until: Vec<Cycle>,
    stats: SmemStats,
    /// Deterministic ECC fault injector (None on a healthy scratchpad).
    ecc: Option<EccInjector>,
    /// Future-dated wide reads enqueued by streaming producers, applied
    /// lazily (in schedule order) by [`SharedMemory::drain_stream_reads`].
    pending_reads: BinaryHeap<Reverse<StreamRead>>,
    /// Monotonic tiebreaker preserving enqueue order among same-cycle reads.
    next_stream_seq: u64,
    /// Reusable `(subbank slot, word)` scratch for [`SharedMemory::access_simt`],
    /// so the per-lane conflict model allocates nothing on the SIMT
    /// load/store hot path.
    lane_scratch: Vec<(u32, u64)>,
}

impl SharedMemory {
    /// Creates an idle shared memory.
    ///
    /// # Panics
    ///
    /// Panics unless the bank count, the subbank count and the bank size are
    /// powers of two (as in every Table 2 configuration), so bank and
    /// subbank indices are shifts and masks, or if there are more than 64
    /// banks (one bit each in [`SharedMemory::access_simt`]'s touched-bank
    /// mask).
    pub fn new(config: SmemConfig) -> Self {
        assert!(
            config.banks.is_power_of_two() && config.banks <= 64,
            "shared memory needs a power-of-two bank count of at most 64, the configuration asks for {}",
            config.banks
        );
        assert!(
            config.subbanks.is_power_of_two(),
            "shared memory needs a power-of-two subbank count, the configuration asks for {}",
            config.subbanks
        );
        let bank_bytes = config.bank_bytes();
        assert!(
            bank_bytes.is_power_of_two(),
            "shared memory needs a power-of-two bank size, the configuration asks for {bank_bytes} bytes"
        );
        SharedMemory {
            config,
            bank_shift: bank_bytes.trailing_zeros(),
            bank_mask: u64::from(config.banks) - 1,
            subbank_shift: config.subbanks.trailing_zeros(),
            subbank_mask: u64::from(config.subbanks) - 1,
            bank_busy_until: vec![Cycle::ZERO; config.banks as usize],
            stats: SmemStats::default(),
            ecc: None,
            pending_reads: BinaryHeap::new(),
            next_stream_seq: 0,
            lane_scratch: Vec::new(),
        }
    }

    /// Installs a deterministic ECC fault injector; subsequent accesses pay
    /// the correct/detect penalties its fault windows dictate. Without one
    /// the scratchpad behaves exactly as before.
    pub fn set_ecc(&mut self, ecc: EccInjector) {
        self.ecc = Some(ecc);
    }

    /// ECC injected/detected/corrected counters (all zero without an
    /// injector).
    pub fn ecc_stats(&self) -> EccStats {
        self.ecc
            .as_ref()
            .map(EccInjector::stats)
            .unwrap_or_default()
    }

    /// ECC penalty for one access serviced at `now` (zero without an
    /// injector or outside every fault window).
    fn ecc_penalty(&mut self, now: Cycle) -> u64 {
        match self.ecc.as_mut() {
            Some(ecc) => ecc.observe(now.get()),
            None => 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SmemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SmemStats {
        self.stats
    }

    /// Bank index holding `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> self.bank_shift) & self.bank_mask) as usize
    }

    /// Subbank index within a bank holding `addr`.
    pub fn subbank_of(&self, addr: u64) -> usize {
        ((addr >> 2) & self.subbank_mask) as usize
    }

    /// Serves one warp's SIMT lane accesses (4 bytes per lane).
    ///
    /// Lanes mapping to the same subbank of the same bank with different word
    /// addresses conflict and replay over extra cycles. Unaligned lane
    /// addresses are serialized one per cycle (Section 3.2.1's area
    /// optimization).
    pub fn access_simt(&mut self, now: Cycle, lane_addrs: &[u64], write: bool) -> SmemAccess {
        self.stats.simt_accesses += 1;
        if lane_addrs.is_empty() {
            return SmemAccess {
                done: now.plus(self.config.latency),
                conflict_cycles: 0,
            };
        }

        let (start, conflict_cycles) = self.occupy_banks(now, lane_addrs);

        let words = lane_addrs.len() as u64;
        let bytes = words * 4;
        if write {
            self.stats.words_written += words;
            self.stats.bytes_written += bytes;
        } else {
            self.stats.words_read += words;
            self.stats.bytes_read += bytes;
        }
        self.stats.conflict_cycles += conflict_cycles;

        let ecc = self.ecc_penalty(now);
        SmemAccess {
            done: start.plus(1 + conflict_cycles + self.config.latency + ecc),
            conflict_cycles,
        }
    }

    /// The bank-occupancy half of [`SharedMemory::access_simt`]: finds the
    /// cycle the access wins every bank it touches and its conflict cycles,
    /// counts serialized unaligned lanes, and marks those banks busy for
    /// `1 + conflict_cycles` from the start.
    ///
    /// Each subbank serves one distinct word per cycle, so the conflict
    /// cycles are the deepest subbank queue minus one, plus one cycle per
    /// serialized unaligned lane. Contiguous aligned words inside one bank,
    /// the common SIMT shape, take a closed form: `n` consecutive words
    /// spread over the subbanks round-robin, so the deepest queue is
    /// `ceil(n / subbanks)`, with no sort.
    fn occupy_banks(&mut self, now: Cycle, lane_addrs: &[u64]) -> (Cycle, u64) {
        let first = lane_addrs[0];
        let last = first.wrapping_add(4 * (lane_addrs.len() as u64 - 1));
        let contiguous = first & 3 == 0
            && first >> self.bank_shift == last >> self.bank_shift
            && (0..)
                .zip(lane_addrs)
                .all(|(i, &a)| a == first.wrapping_add(4 * i));
        if contiguous {
            let bank = self.bank_of(first);
            let start = now.max(self.bank_busy_until[bank]);
            let depth = (lane_addrs.len() as u64 + self.subbank_mask) >> self.subbank_shift;
            let conflict_cycles = depth - 1;
            self.bank_busy_until[bank] = start.plus(1 + conflict_cycles);
            return (start, conflict_cycles);
        }

        let mut scratch = std::mem::take(&mut self.lane_scratch);
        scratch.clear();
        let mut touched = 0u64;
        let mut unaligned = 0u64;
        for &addr in lane_addrs {
            let bank = self.bank_of(addr) as u64;
            touched |= 1 << bank;
            if addr & 3 != 0 {
                unaligned += 1;
                continue;
            }
            let word = addr >> 2;
            let slot = (bank << self.subbank_shift) | (word & self.subbank_mask);
            scratch.push((slot as u32, word));
        }
        self.stats.unaligned_serialized += unaligned;
        let conflict_cycles = deepest_slot_queue(&mut scratch).saturating_sub(1) + unaligned;
        self.lane_scratch = scratch;
        let mut start = now;
        let mut banks = touched;
        while banks != 0 {
            start = start.max(self.bank_busy_until[banks.trailing_zeros() as usize]);
            banks &= banks - 1;
        }
        let mut banks = touched;
        while banks != 0 {
            self.bank_busy_until[banks.trailing_zeros() as usize] = start.plus(1 + conflict_cycles);
            banks &= banks - 1;
        }
        (start, conflict_cycles)
    }

    /// Serves one wide access from a matrix unit or the DMA engine.
    ///
    /// The request is split into 4-byte sub-requests distributed over the
    /// subbanks of the bank holding `addr`; `subbanks` words are served per
    /// cycle. Wide requests have priority at the bank, which the
    /// latency/occupancy model approximates by letting them claim the bank
    /// from its current busy point.
    pub fn access_wide(&mut self, now: Cycle, addr: u64, bytes: u64, write: bool) -> SmemAccess {
        self.stats.wide_accesses += 1;
        let words = bytes.div_ceil(4).max(1);
        let cycles = words.div_ceil(u64::from(self.config.subbanks)).max(1);
        let bank = self.bank_of(addr);
        let start = now.max(self.bank_busy_until[bank]);
        self.bank_busy_until[bank] = start.plus(cycles);

        if write {
            self.stats.words_written += words;
            self.stats.bytes_written += words * 4;
        } else {
            self.stats.words_read += words;
            self.stats.bytes_read += words * 4;
        }

        let ecc = self.ecc_penalty(now);
        SmemAccess {
            done: start.plus(cycles + self.config.latency + ecc),
            conflict_cycles: cycles - 1,
        }
    }

    /// Cycle at which `bank` is next free; used by tests and by the matrix
    /// unit FSM to pace its streaming.
    pub fn bank_free_at(&self, bank: usize) -> Cycle {
        self.bank_busy_until[bank]
    }

    /// Enqueues a wide read to be served at the (usually future) cycle `at`.
    ///
    /// The batched Gemmini streaming FSM precomputes its whole per-block read
    /// schedule on block entry and registers each read here instead of issuing
    /// one `access_wide` per tick. The reads are *not* applied eagerly: bank
    /// occupancy and ECC injection are order-sensitive, so they stay pending
    /// until [`SharedMemory::drain_stream_reads`] replays them — each at its
    /// true scheduled cycle, interleaved correctly with the DMA engine's and
    /// the cores' same-window accesses.
    pub fn stream_read(&mut self, at: Cycle, addr: u64, bytes: u64) {
        self.pending_reads.push(Reverse(StreamRead {
            cycle: at,
            seq: self.next_stream_seq,
            addr,
            bytes,
        }));
        self.next_stream_seq += 1;
    }

    /// Applies every pending stream read scheduled before `now` (or at `now`
    /// too, when `inclusive`), in `(cycle, enqueue-order)` order, exactly as
    /// the per-cycle schedule would have issued them.
    ///
    /// Callers bracket each sub-tick with the right cutoff: reads strictly
    /// before the current cycle are flushed ahead of the DMA engine's tick
    /// (they were issued on earlier cycles in the reference schedule), while
    /// reads *at* the current cycle land after it, matching the device tick
    /// order of the naive loop.
    pub fn drain_stream_reads(&mut self, now: Cycle, inclusive: bool) {
        while let Some(Reverse(top)) = self.pending_reads.peek() {
            let due = top.cycle < now || (inclusive && top.cycle == now);
            if !due {
                break;
            }
            let Reverse(read) = self.pending_reads.pop().expect("peeked entry exists");
            self.access_wide(read.cycle, read.addr, read.bytes, false);
        }
    }

    /// Number of enqueued stream reads not yet applied.
    pub fn stream_reads_pending(&self) -> usize {
        self.pending_reads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virgo_sim::SplitMix64;

    fn smem() -> SharedMemory {
        SharedMemory::new(SmemConfig::default_cluster())
    }

    #[test]
    fn geometry_of_default_config() {
        let cfg = SmemConfig::default_cluster();
        assert_eq!(cfg.bank_bytes(), 32 * 1024);
        assert_eq!(cfg.peak_bytes_per_cycle(), 4 * 8 * 4);
        let s = SharedMemory::new(cfg);
        assert_eq!(s.bank_of(0), 0);
        assert_eq!(s.bank_of(32 * 1024), 1);
        assert_eq!(s.bank_of(127 * 1024), 3);
        assert_eq!(s.subbank_of(0), 0);
        assert_eq!(s.subbank_of(4), 1);
        assert_eq!(s.subbank_of(32), 0);
    }

    #[test]
    fn conflict_free_simt_access_takes_one_bank_cycle() {
        let mut s = smem();
        let addrs: Vec<u64> = (0..8).map(|i| i * 4).collect();
        let a = s.access_simt(Cycle::new(0), &addrs, false);
        assert_eq!(a.conflict_cycles, 0);
        assert_eq!(a.done, Cycle::new(1 + 2));
    }

    #[test]
    fn same_subbank_accesses_conflict() {
        let mut s = smem();
        // All lanes hit subbank 0 of bank 0 with different words
        // (stride = subbanks × 4 bytes = 32).
        let addrs: Vec<u64> = (0..8).map(|i| i * 32).collect();
        let a = s.access_simt(Cycle::new(0), &addrs, false);
        assert_eq!(a.conflict_cycles, 7);
        assert_eq!(s.stats().conflict_cycles, 7);
    }

    #[test]
    fn broadcast_of_same_word_does_not_conflict() {
        let mut s = smem();
        let addrs = vec![64u64; 8];
        let a = s.access_simt(Cycle::new(0), &addrs, false);
        assert_eq!(a.conflict_cycles, 0);
    }

    #[test]
    fn unaligned_accesses_serialize() {
        let mut s = smem();
        let addrs = vec![1u64, 5, 9];
        let a = s.access_simt(Cycle::new(0), &addrs, false);
        assert_eq!(a.conflict_cycles, 3);
        assert_eq!(s.stats().unaligned_serialized, 3);
    }

    /// The three-pass `access_simt` body that the single-pass version
    /// replaced (a divide-and-modulo bank index per lane for the slots,
    /// again for the start max and again for the occupancy update), kept as
    /// the division-based equivalence reference for the shift-and-mask path.
    fn reference_access_simt(
        s: &mut SharedMemory,
        now: Cycle,
        lane_addrs: &[u64],
        write: bool,
    ) -> SmemAccess {
        s.stats.simt_accesses += 1;
        if lane_addrs.is_empty() {
            return SmemAccess {
                done: now.plus(s.config.latency),
                conflict_cycles: 0,
            };
        }
        let bank_of =
            |addr: u64| ((addr / s.config.bank_bytes()) % u64::from(s.config.banks)) as usize;
        let mut slots = Vec::new();
        let mut unaligned = 0u64;
        for &addr in lane_addrs {
            if addr % 4 != 0 {
                unaligned += 1;
                continue;
            }
            let subbank = ((addr / 4) % u64::from(s.config.subbanks)) as usize;
            let slot = (bank_of(addr) * s.config.subbanks as usize + subbank) as u32;
            slots.push((slot, addr / 4));
        }
        s.stats.unaligned_serialized += unaligned;
        slots.sort_unstable();
        slots.dedup();
        let mut max_depth = 0u64;
        let mut run = 0u64;
        let mut prev_slot = u32::MAX;
        for &(slot, _) in &slots {
            if slot == prev_slot {
                run += 1;
            } else {
                prev_slot = slot;
                run = 1;
            }
            max_depth = max_depth.max(run);
        }
        let conflict_cycles = max_depth.saturating_sub(1) + unaligned;
        let mut start = now;
        for &addr in lane_addrs {
            start = start.max(s.bank_busy_until[bank_of(addr)]);
        }
        let busy_cycles = 1 + conflict_cycles;
        for &addr in lane_addrs {
            s.bank_busy_until[bank_of(addr)] = start.plus(busy_cycles);
        }
        let words = lane_addrs.len() as u64;
        let bytes = words * 4;
        if write {
            s.stats.words_written += words;
            s.stats.bytes_written += bytes;
        } else {
            s.stats.words_read += words;
            s.stats.bytes_read += bytes;
        }
        s.stats.conflict_cycles += conflict_cycles;
        let ecc = s.ecc_penalty(now);
        SmemAccess {
            done: start.plus(busy_cycles + s.config.latency + ecc),
            conflict_cycles,
        }
    }

    /// Random lane addresses of one of eight shapes: aligned words in one
    /// bank, unaligned bytes, repeats of a few words, words spread over
    /// several banks, a lane-strided pattern, or contiguous words (up to 32
    /// lanes, more than `subbanks`) starting aligned inside a bank,
    /// starting unaligned, or straddling a bank boundary.
    fn random_lanes(rng: &mut SplitMix64, config: &SmemConfig) -> Vec<u64> {
        let lanes = rng.next_below(33) as usize;
        let cap = config.capacity_bytes;
        let bank_base = rng.next_below(u64::from(config.banks)) * config.bank_bytes();
        let contiguous = |base: u64| (0..lanes as u64).map(|lane| base + lane * 4).collect();
        match rng.next_below(8) {
            5 => contiguous(bank_base + rng.next_below(256) * 4),
            6 => contiguous(bank_base + rng.next_below(256) * 4 + 1 + rng.next_below(3)),
            7 => {
                let boundary = bank_base + config.bank_bytes();
                contiguous(boundary - 4 * (1 + rng.next_below(lanes.max(1) as u64)))
            }
            0 => (0..lanes)
                .map(|_| bank_base + rng.next_below(256) * 4)
                .collect(),
            1 => (0..lanes).map(|_| rng.next_below(cap)).collect(),
            2 => {
                let words: Vec<u64> = (0..3).map(|_| rng.next_below(cap / 4) * 4).collect();
                (0..lanes)
                    .map(|_| words[rng.next_below(3) as usize])
                    .collect()
            }
            3 => (0..lanes).map(|_| rng.next_below(cap / 4) * 4).collect(),
            _ => {
                let base = rng.next_below(cap / 2);
                let stride = [4, 8, 32, 128, config.bank_bytes()][rng.next_below(5) as usize];
                (0..lanes as u64)
                    .map(|lane| (base + lane * stride) % cap)
                    .collect()
            }
        }
    }

    #[test]
    fn single_pass_simt_access_matches_reference() {
        let mut rng = SplitMix64::new(0x5EED_03E3);
        for config in [
            SmemConfig::default_cluster(),
            SmemConfig::virgo_cluster(),
            SmemConfig::double_banked(),
        ] {
            let mut fast = SharedMemory::new(config);
            let mut reference = SharedMemory::new(config);
            let mut now = 0u64;
            for step in 0..2000 {
                now += rng.next_below(4);
                let lanes = random_lanes(&mut rng, &config);
                let write = rng.next_below(2) == 0;
                let got = fast.access_simt(Cycle::new(now), &lanes, write);
                let want = reference_access_simt(&mut reference, Cycle::new(now), &lanes, write);
                assert_eq!(got, want, "step {step}: {lanes:?}");
                assert_eq!(fast.stats(), reference.stats(), "step {step}");
                // A follow-up access to every bank sees the same occupancy.
                for bank in 0..u64::from(config.banks) {
                    let probe = [bank * config.bank_bytes()];
                    let at = Cycle::new(now);
                    assert_eq!(
                        fast.clone().access_simt(at, &probe, false).done,
                        reference.clone().access_simt(at, &probe, false).done,
                        "step {step}, bank {bank}"
                    );
                }
            }
        }
    }

    fn geometry(capacity_kib: u64, banks: u32, subbanks: u32) -> SmemConfig {
        SmemConfig {
            capacity_bytes: capacity_kib * 1024,
            banks,
            subbanks,
            latency: 2,
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two bank count")]
    fn non_power_of_two_bank_count_is_rejected() {
        SharedMemory::new(geometry(96, 3, 8));
    }

    #[test]
    #[should_panic(expected = "power-of-two bank count of at most 64")]
    fn more_than_64_banks_are_rejected() {
        SharedMemory::new(geometry(128, 128, 8));
    }

    #[test]
    #[should_panic(expected = "power-of-two subbank count")]
    fn non_power_of_two_subbank_count_is_rejected() {
        SharedMemory::new(geometry(128, 4, 12));
    }

    #[test]
    #[should_panic(expected = "power-of-two bank size")]
    fn non_power_of_two_bank_size_is_rejected() {
        SharedMemory::new(geometry(120, 4, 8));
    }

    #[test]
    fn wide_access_uses_subbank_parallelism() {
        let mut s = smem();
        // 64 bytes = 16 words over 8 subbanks = 2 bank cycles.
        let a = s.access_wide(Cycle::new(0), 0, 64, false);
        assert_eq!(a.conflict_cycles, 1);
        assert_eq!(a.done, Cycle::new(2 + 2));
        assert_eq!(s.stats().wide_accesses, 1);
        assert_eq!(s.stats().words_read, 16);
    }

    #[test]
    fn wide_and_simt_accesses_to_same_bank_serialize() {
        let mut s = smem();
        s.access_wide(Cycle::new(0), 0, 128, false); // occupies bank 0 for 4 cycles
        let addrs: Vec<u64> = (0..8).map(|i| i * 4).collect();
        let a = s.access_simt(Cycle::new(0), &addrs, false);
        assert!(
            a.done.get() > 3,
            "SIMT access must wait for the wide access"
        );
    }

    #[test]
    fn accesses_to_different_banks_proceed_in_parallel() {
        let mut s = smem();
        s.access_wide(Cycle::new(0), 0, 128, false);
        // Bank 1 starts at 32 KiB and is still free.
        let a = s.access_wide(Cycle::new(0), 32 * 1024, 32, false);
        assert_eq!(a.done, Cycle::new(1 + 2));
    }

    #[test]
    fn read_footprint_accumulates_bytes() {
        let mut s = smem();
        s.access_wide(Cycle::new(0), 0, 256, false);
        s.access_wide(Cycle::new(0), 0, 256, true);
        assert_eq!(s.stats().bytes_read, 256);
        assert_eq!(s.stats().bytes_written, 256);
    }

    #[test]
    fn virgo_config_serves_64_bytes_in_one_cycle() {
        let mut s = SharedMemory::new(SmemConfig::virgo_cluster());
        let a = s.access_wide(Cycle::new(0), 0, 64, false);
        assert_eq!(a.conflict_cycles, 0);
    }

    #[test]
    fn empty_simt_access_is_harmless() {
        let mut s = smem();
        let a = s.access_simt(Cycle::new(5), &[], false);
        assert_eq!(a.done, Cycle::new(7));
        assert_eq!(s.stats().words_read, 0);
    }

    #[test]
    fn without_ecc_injector_stats_stay_zero() {
        let mut s = smem();
        s.access_wide(Cycle::new(0), 0, 64, false);
        assert_eq!(s.ecc_stats(), EccStats::default());
    }

    #[test]
    fn ecc_injector_charges_penalties_and_counts_events() {
        use virgo_sim::fault::{FaultKind, FaultPlan, PERMANENT};
        let plan = FaultPlan::seeded(42).with_event(
            FaultKind::EccSingleBit {
                cluster: 0,
                mean_access_gap: 2,
            },
            0,
            PERMANENT,
        );
        let mut s = smem();
        s.set_ecc(plan.ecc_injector(0).expect("cluster 0 has an ECC window"));
        // With mean gap 2, a few hundred accesses must hit several upsets;
        // every single-bit upset is detected *and* corrected.
        for i in 0..200u64 {
            s.access_wide(Cycle::new(i * 10), 0, 64, false);
        }
        let stats = s.ecc_stats();
        assert!(stats.injected > 50, "mean gap 2 ⇒ dense upsets");
        assert_eq!(stats.detected, stats.injected);
        assert_eq!(stats.corrected, stats.injected);
    }

    #[test]
    fn stream_reads_apply_lazily_in_schedule_order() {
        // Two deferred reads to bank 0 plus one eager wide access between
        // their scheduled cycles must produce exactly the state of issuing
        // all three eagerly in cycle order.
        let mut lazy = smem();
        lazy.stream_read(Cycle::new(2), 0, 64);
        lazy.stream_read(Cycle::new(5), 32, 64);
        assert_eq!(lazy.stream_reads_pending(), 2);
        // Nothing applied yet.
        assert_eq!(lazy.stats().wide_accesses, 0);
        lazy.drain_stream_reads(Cycle::new(3), false);
        assert_eq!(lazy.stream_reads_pending(), 1);
        lazy.access_wide(Cycle::new(3), 16, 64, false);
        lazy.drain_stream_reads(Cycle::new(5), true);
        assert_eq!(lazy.stream_reads_pending(), 0);

        let mut eager = smem();
        eager.access_wide(Cycle::new(2), 0, 64, false);
        eager.access_wide(Cycle::new(3), 16, 64, false);
        eager.access_wide(Cycle::new(5), 32, 64, false);

        assert_eq!(lazy.stats(), eager.stats());
        assert_eq!(lazy.bank_free_at(0), eager.bank_free_at(0));
    }

    #[test]
    fn drain_cutoff_is_exclusive_unless_inclusive() {
        let mut s = smem();
        s.stream_read(Cycle::new(4), 0, 64);
        s.drain_stream_reads(Cycle::new(4), false);
        assert_eq!(s.stream_reads_pending(), 1, "exclusive cutoff keeps t=now");
        s.drain_stream_reads(Cycle::new(4), true);
        assert_eq!(s.stream_reads_pending(), 0);
        assert_eq!(s.stats().wide_accesses, 1);
    }

    #[test]
    fn same_cycle_stream_reads_keep_enqueue_order() {
        // Both reads land on bank 0 at cycle 0: the first enqueued must chain
        // first, which is observable through the final bank-busy horizon.
        let mut s = smem();
        s.stream_read(Cycle::new(0), 0, 128);
        s.stream_read(Cycle::new(0), 4, 32);
        s.drain_stream_reads(Cycle::new(0), true);
        // 128 B = 32 words / 8 subbanks = 4 cycles, then 32 B = 1 more.
        assert_eq!(s.bank_free_at(0), Cycle::new(5));
        assert_eq!(s.stats().wide_accesses, 2);
    }

    #[test]
    fn ecc_penalty_is_deterministic_for_a_seed() {
        use virgo_sim::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::seeded(7).with_event(
            FaultKind::EccDoubleBit {
                cluster: 2,
                mean_access_gap: 3,
            },
            0,
            10_000,
        );
        let run = |plan: &FaultPlan| {
            let mut s = smem();
            s.set_ecc(plan.ecc_injector(2).unwrap());
            let dones: Vec<Cycle> = (0..64u64)
                .map(|i| s.access_wide(Cycle::new(i * 16), 0, 32, false).done)
                .collect();
            (dones, s.ecc_stats())
        };
        let (a_dones, a_stats) = run(&plan);
        let (b_dones, b_stats) = run(&plan);
        assert_eq!(a_dones, b_dones);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.injected > 0);
        assert_eq!(a_stats.corrected, 0, "double-bit upsets are uncorrectable");
    }
}
