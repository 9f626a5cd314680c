//! The data path of a [`SwitchFleet`]: how its switches split a trace,
//! the loop that feeds them, and the laws their registers merge by.
//!
//! A fleet deploys one task identically on `n` switches (deployments
//! are deterministic, so every member derives identical hash
//! configurations, partition layouts and bindings), splits a trace over
//! them by source address ([`shard_of`]) and merges readouts per the
//! deployed sketch's [`MergeLaw`]: per-bucket **sum** for linear
//! frequency rows (CMS/MRAC), **max** for HLL registers, **OR** for
//! Bloom rows. For those laws the merged registers are *bit-identical*
//! to a serial replay of the whole trace on one switch for **any**
//! disjoint packet partition (each packet updates exactly one member,
//! and the per-bucket operation is associative and commutative across
//! packets). Max-inter-arrival differences consecutive timestamps *of
//! the same flow* inside one register, so it also needs a flow to stay
//! on one member across calls — which [`shard_of`] gives every
//! deployment: it hashes the source address and nothing else.
//!
//! Packets move through `replay`, whose one caller is
//! [`SwitchFleet::process_trace`], and the merge kernels serve the
//! fleet's readouts and its epoch rotation. [`ShardedDatapath`] is a
//! replica set under its old name: a healthy fleet behind the three
//! calls the repository benchmark makes.
//!
//! The members run one after another on the calling thread: two
//! `process_batch` calls side by side on the 2-vCPU reference host each
//! slow from 20 to 35 ns/pkt, so threads lose to one serial switch
//! (`DESIGN.md` § "Why there are no worker threads" has the
//! measurements and when to revisit).

use std::time::{Duration, Instant};

use flymon::prelude::*;
use flymon::FlymonError;
use flymon_packet::Packet;
use flymon_rmt::hash::{fmix32, murmur3_32_word};
use flymon_rmt::register::{ArchiveDrain, Buckets, Cell};

use crate::SwitchFleet;

/// Seed of the ingress hash [`shard_of`] splits a fleet's traces by.
pub const INGRESS_HASH_SEED: u32 = 0xf1ee7;

/// The per-bucket law by which two partial registers of the same
/// deployment combine into the register of the union traffic.
///
/// This is *the* canonical table: the fleet's merged readouts and its
/// epoch rotation both route through [`MergeLaw::of`], so a sketch can
/// never be merged under one law in one path and a different law in
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeLaw {
    /// Linear counter rows: per-bucket sum, clamped at the hosting
    /// register's cell ceiling (Cond-ADD saturates there, so the merge
    /// must too).
    Sum,
    /// MAX-op rows (HLL ρ registers, SuMax-Max maxima): per-bucket max.
    Max,
    /// Bitmap rows (Bloom, Linear Counting, BeauCoup coupons):
    /// per-bucket OR.
    Or,
}

impl MergeLaw {
    /// The merge law of `algorithm`'s register rows.
    ///
    /// Exhaustive over the algorithm table on purpose — adding an
    /// algorithm without deciding its merge law is a compile error, not
    /// a silent sum. Errors for [`Algorithm::OddSketch`], whose two rows
    /// obey *different* laws (a Bloom gate plus an XOR parity bitmap):
    /// no single per-bucket law merges it, and pretending one does is
    /// exactly the bug this table exists to prevent.
    pub fn of(algorithm: Algorithm) -> Result<MergeLaw, FlymonError> {
        Ok(match algorithm {
            Algorithm::Cms { .. }
            | Algorithm::SuMaxSum { .. }
            | Algorithm::Mrac
            | Algorithm::Tower { .. }
            | Algorithm::CounterBraids => MergeLaw::Sum,
            Algorithm::Hll | Algorithm::SuMaxMax { .. } | Algorithm::MaxInterval { .. } => {
                MergeLaw::Max
            }
            Algorithm::Bloom { .. } | Algorithm::LinearCounting | Algorithm::BeauCoup { .. } => {
                MergeLaw::Or
            }
            Algorithm::OddSketch => {
                return Err(FlymonError::BadTask(
                    "OddSketch rows have no single per-bucket merge law \
                     (Bloom gate merges by OR, the parity bitmap by XOR)"
                        .into(),
                ))
            }
        })
    }

    /// Combines two partial buckets. `cap` is the hosting register's
    /// cell ceiling, honored by [`MergeLaw::Sum`] only (pass `u32::MAX`
    /// when the row has no ceiling).
    #[inline]
    pub fn combine(self, a: u32, b: u32, cap: u32) -> u32 {
        match self {
            MergeLaw::Sum => (u64::from(a) + u64::from(b)).min(u64::from(cap)) as u32,
            MergeLaw::Max => a.max(b),
            MergeLaw::Or => a | b,
        }
    }

    /// Bulk form of [`MergeLaw::combine`]: folds `src` into `acc`
    /// bucket-by-bucket (`acc[i] = combine(acc[i], src[i], cap)`). The
    /// per-law loops have no branch and stay in `u32`, so they
    /// autovectorize — at the host's vector width, see [`sweep`].
    /// Bit-identical to the per-element path for every law, cap and
    /// length (pinned by `tests/readout.rs`).
    ///
    /// # Panics
    /// Panics if the rows differ in length — partial registers of one
    /// deployment always share a geometry, so a mismatch is a caller
    /// bug, not a data condition.
    pub fn combine_rows(self, acc: &mut [u32], src: &[u32], cap: u32) {
        sweep(self, acc, src, cap, None);
    }

    /// [`MergeLaw::combine_rows`] fused with the occupancy scan: merges
    /// `src` into `acc` and counts the *merged* row's nonzero and
    /// at-ceiling buckets in the same sweep, so the adaptive
    /// controller's fill/saturation signals cost no second pass over
    /// the epoch's rows. Use for the final member of a merge fold;
    /// `saturation_cap` is the row's cell ceiling (what Cond-ADD
    /// saturates at), which for Sum rows coincides with the clamp cap.
    ///
    /// # Panics
    /// Panics if the rows differ in length.
    pub fn combine_rows_scan(
        self,
        acc: &mut [u32],
        src: &[u32],
        cap: u32,
        saturation_cap: u32,
    ) -> RowOccupancy {
        sweep(self, acc, src, cap, Some(saturation_cap))
    }

    /// One row merged across `members` into `acc`, in one sweep per
    /// member: the first row is copied, the middle ones fold in, and
    /// the last goes through the fused sweep of
    /// [`MergeLaw::combine_rows_scan`], which also yields the
    /// occupancy. Members are read in their registers' own cells, widened
    /// into the `u32` accumulator. Callers leave out members whose row
    /// is provably zero; with none left the row is `size` zeros. A lone
    /// member folds into zeros instead of being copied — 0 is the
    /// identity of every law and a register never holds more than its
    /// ceiling — so it too gets the fused sweep. `bucket_max` is the
    /// row's register cell ceiling: what the occupancy scan counts as
    /// saturated, and what a summed bucket clamps at — Cond-ADD
    /// saturates a counter there, so the merge must too, or a bucket
    /// that saturated in a serial replay reads higher merged.
    ///
    /// Every sweep walks its member in [`MERGE_CHUNK`]s and tells it
    /// how far it has got ([`Member::retire_to`]) after each: a
    /// rotation hands in archived rows that zero themselves behind the
    /// walk, while the chunk is still in L1 from being read
    /// ([`flymon_rmt::register::ArchiveDrain::retire_to`]); a live
    /// readout's rows are borrowed views that ignore it. The occupancy
    /// adds up across chunks.
    pub(crate) fn merge_rows<S: Member>(
        self,
        acc: &mut Vec<u32>,
        size: usize,
        mut members: impl Iterator<Item = Result<S, FlymonError>>,
        bucket_max: u32,
    ) -> Result<RowOccupancy, FlymonError> {
        let cap = match self {
            MergeLaw::Sum => bucket_max,
            MergeLaw::Max | MergeLaw::Or => u32::MAX,
        };
        // One match on the member's cell width per sweep.
        let fold = |a: &mut [u32], s: Buckets<'_>, scan| match s {
            Buckets::U16(s) => sweep(self, a, s, cap, scan),
            Buckets::U32(s) => sweep(self, a, s, cap, scan),
        };
        acc.clear();
        let Some(mut last) = members.next().transpose()? else {
            acc.resize(size, 0);
            return Ok(RowOccupancy::default());
        };
        match members.next().transpose()? {
            None => acc.resize(last.buckets().len(), 0),
            Some(second) => {
                let len = last.buckets().len();
                acc.reserve(len);
                for done in (0..len).step_by(MERGE_CHUNK) {
                    let upto = (done + MERGE_CHUNK).min(len);
                    acc.extend(last.buckets().slice(done, upto).iter());
                    last.retire_to(upto);
                }
                last = second;
                for next in members {
                    walk(acc, &mut last, |a, s| {
                        fold(a, s, None);
                    });
                    last = next?;
                }
            }
        }
        let mut occupancy = RowOccupancy::default();
        walk(acc, &mut last, |a, s| {
            let chunk = fold(a, s, Some(bucket_max));
            occupancy.nonzero += chunk.nonzero;
            occupancy.saturated += chunk.saturated;
        });
        Ok(occupancy)
    }
}

/// A row [`MergeLaw::merge_rows`] folds in: a borrowed view of live
/// SRAM, or an archived row draining behind the walk.
pub(crate) trait Member {
    /// The row, in its register's cells.
    fn buckets(&self) -> Buckets<'_>;
    /// The walk is done with the row's first `upto` buckets.
    fn retire_to(&mut self, _upto: usize) {}
}

impl Member for Buckets<'_> {
    fn buckets(&self) -> Buckets<'_> {
        *self
    }
}

impl Member for ArchiveDrain<'_> {
    fn buckets(&self) -> Buckets<'_> {
        ArchiveDrain::buckets(self)
    }

    fn retire_to(&mut self, upto: usize) {
        ArchiveDrain::retire_to(self, upto);
    }
}

/// One member swept into `acc`, front to back in [`MERGE_CHUNK`]s:
/// `sweep(acc chunk, member chunk)`, then the member retires the chunk.
fn walk(acc: &mut [u32], member: &mut impl Member, mut sweep: impl FnMut(&mut [u32], Buckets<'_>)) {
    assert_eq!(
        acc.len(),
        member.buckets().len(),
        "merged rows must share a geometry"
    );
    let mut done = 0;
    for a in acc.chunks_mut(MERGE_CHUNK) {
        let upto = done + a.len();
        sweep(a, member.buckets().slice(done, upto));
        member.retire_to(upto);
        done = upto;
    }
}

/// Buckets per step of [`MergeLaw::merge_rows`]' walk over a member: a
/// chunk of the accumulator and of the member (8 KB each) sit in L1
/// together, so zeroing the member's chunk right after the sweep read
/// it writes lines the core still holds.
const MERGE_CHUNK: usize = 2 * SCAN_BLOCK;

/// One row sweep — `src` folded into `acc` under `law`, with the
/// occupancy scan against the ceiling `scan` names when it names one —
/// at the widest vector unit this host has.
///
/// The workspace builds for baseline x86-64, whose sse2 has no unsigned
/// 32-bit min or saturating add, so the portable loops spend most of
/// their time emulating `pminud`. Rather than a second algorithm in
/// intrinsics, the *same* safe body ([`sweep_body`]) is compiled twice
/// per [`Cell`] width: [`sweep_portable`] for the build's baseline and
/// [`sweep_avx2`] under `#[target_feature(enable = "avx2")]`, where the
/// autovectorizer widens `u16` members with `vpmovzxwd` and emits 8-lane
/// `vpminud`/`vpmaxud`/`vpor`. The choice is the host's cpuid (cached
/// by std: one atomic load per sweep) and nothing else; the portable
/// instantiation is the fallback on every other host and the oracle
/// the unit test below holds the wide one to.
#[allow(unsafe_code)]
fn sweep<C: Cell>(law: MergeLaw, acc: &mut [u32], src: &[C], cap: u32, scan: Option<u32>) -> RowOccupancy {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: avx2 was just detected on the running CPU, the one
        // requirement of calling a `#[target_feature(enable = "avx2")]`
        // function; its body is safe code.
        return unsafe { sweep_avx2(law, acc, src, cap, scan) };
    }
    sweep_portable(law, acc, src, cap, scan)
}

/// [`sweep_body`] compiled for the build's baseline target.
fn sweep_portable<C: Cell>(
    law: MergeLaw,
    acc: &mut [u32],
    src: &[C],
    cap: u32,
    scan: Option<u32>,
) -> RowOccupancy {
    sweep_body(law, acc, src, cap, scan)
}

/// [`sweep_body`] compiled with AVX2 enabled; callable only once the
/// feature is detected ([`sweep`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<C: Cell>(
    law: MergeLaw,
    acc: &mut [u32],
    src: &[C],
    cap: u32,
    scan: Option<u32>,
) -> RowOccupancy {
    sweep_body(law, acc, src, cap, scan)
}

/// The per-law dispatch every instantiation inlines: one closure per
/// law, handed to [`fold`] or, with `scan`, to [`fold_scan`].
#[inline(always)]
fn sweep_body<C: Cell>(
    law: MergeLaw,
    acc: &mut [u32],
    src: &[C],
    cap: u32,
    scan: Option<u32>,
) -> RowOccupancy {
    #[inline(always)]
    fn run<C: Cell>(
        acc: &mut [u32],
        src: &[C],
        scan: Option<u32>,
        op: impl Fn(u32, u32) -> u32,
    ) -> RowOccupancy {
        match scan {
            None => {
                fold(acc, src, op);
                RowOccupancy::default()
            }
            Some(saturation_cap) => fold_scan(acc, src, saturation_cap, op),
        }
    }
    match law {
        MergeLaw::Sum => run(acc, src, scan, |a, s| a.saturating_add(s).min(cap)),
        MergeLaw::Max => run(acc, src, scan, u32::max),
        MergeLaw::Or => run(acc, src, scan, |a, s| a | s),
    }
}

/// `acc[i] = op(acc[i], src[i])` over two rows of one geometry, the
/// member's cells widened into the accumulator's `u32`.
#[inline(always)]
fn fold<C: Cell>(acc: &mut [u32], src: &[C], op: impl Fn(u32, u32) -> u32) {
    assert_eq!(
        acc.len(),
        src.len(),
        "merged rows must share a geometry"
    );
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = op(*a, s.into());
    }
}

/// Buckets per block of [`fold_scan`]. Inside a block the occupancy
/// counts are `u32`, as wide as the buckets, so they ride in the same
/// vector lanes as the fold under either instantiation (`usize`
/// counters are twice as wide as a bucket and would halve the lanes of
/// every vector, 4 → 2 or 8 → 4); across blocks they add up in `usize`,
/// so no row is long enough to wrap them.
const SCAN_BLOCK: usize = 1024;

/// [`fold`] fused with the occupancy scan of the merged row.
#[inline(always)]
fn fold_scan<C: Cell>(
    acc: &mut [u32],
    src: &[C],
    saturation_cap: u32,
    op: impl Fn(u32, u32) -> u32,
) -> RowOccupancy {
    assert_eq!(
        acc.len(),
        src.len(),
        "merged rows must share a geometry"
    );
    let mut occ = RowOccupancy::default();
    for (a, s) in acc.chunks_mut(SCAN_BLOCK).zip(src.chunks(SCAN_BLOCK)) {
        let (mut nonzero, mut saturated) = (0u32, 0u32);
        for (a, &s) in a.iter_mut().zip(s) {
            let v = op(*a, s.into());
            *a = v;
            nonzero += u32::from(v > 0);
            saturated += u32::from(v >= saturation_cap);
        }
        occ.nonzero += nonzero as usize;
        occ.saturated += saturated as usize;
    }
    occ
}

/// Occupancy of one merged row, computed in the same sweep that merged
/// it ([`MergeLaw::combine_rows_scan`]): the raw counts behind the
/// adaptive controller's fill and saturation ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowOccupancy {
    /// Buckets holding a nonzero value.
    pub nonzero: usize,
    /// Buckets at the row's cell ceiling (saturated by Cond-ADD, not
    /// exactly counted).
    pub saturated: usize,
}

/// The shard (or fleet ingress) among `n` that `pkt` belongs to.
///
/// The raw murmur3 digest is finalized through [`fmix32`] before the
/// modulus: on real traces source addresses are far from uniform, and
/// folding the unmixed digest `% n` measured up to 2.7× worst/best
/// shard imbalance at 4 shards. The extra avalanche pass costs four
/// shifts and two multiplies per packet and brings the split to within
/// a few percent of uniform.
///
/// # Panics
/// Panics if `n` is zero — an empty fleet has no shards.
pub fn shard_of(pkt: &Packet, n: usize) -> usize {
    assert!(n > 0, "cannot shard across zero workers");
    let h = ingress_hash(pkt);
    // A 32-bit modulus whenever `n` fits one (a 64-bit divide costs
    // several times more); a wider `n` exceeds every digest, so the
    // remainder is the digest itself.
    match u32::try_from(n) {
        Ok(n) => (h % n) as usize,
        Err(_) => h as usize,
    }
}

/// The mixed ingress hash of `pkt`: murmur3 over the source address's
/// four network-order bytes (the single-word path — no slice walk),
/// finalized through [`fmix32`].
#[inline]
fn ingress_hash(pkt: &Packet) -> u32 {
    fmix32(murmur3_32_word(INGRESS_HASH_SEED, pkt.src_ip.swap_bytes()))
}

/// Packets `replay` buckets before it flushes the buckets through
/// [`FlyMon::process_batch`]. Bounds the buckets' memory whatever the
/// slice length (32-byte packets: 128 KB across all members,
/// cache-resident between the bucketing pass and the batches), and is
/// long enough that each member's share still fills the stage-major
/// chunks.
const STAGE_BLOCK: usize = 4096;

/// The packet-replay loop of [`SwitchFleet::process_trace`], its one
/// caller: feeds packet `p` of `trace` to switch `targets[shard_of(p,
/// n)]` (`None` drops it).
///
/// Each `STAGE_BLOCK` of the slice is bucketed by target in one pass
/// into the caller's buckets (one per member, reused so that steady
/// state allocates nothing, empty again on return) and every non-empty
/// bucket goes through one [`FlyMon::process_batch`]. Members are
/// disjoint state, bucketing keeps each member's packet order, and
/// batch ≡ per-packet is pinned by `tests/batch.rs` — so registers and
/// hit counters end as if the packets were fed one at a time
/// (`tests/fleet_batch.rs`).
///
/// Adds the packets each member took to `fed[member]` and returns the
/// number dropped. With no members every packet is dropped.
pub(crate) fn replay(
    members: &mut [FlyMon],
    targets: &[Option<usize>],
    staging: &mut [Vec<Packet>],
    trace: &[Packet],
    fed: &mut [u64],
) -> u64 {
    let n = members.len();
    if n == 0 {
        return trace.len() as u64;
    }
    let mut dropped = 0u64;
    for block in trace.chunks(STAGE_BLOCK) {
        for p in block {
            match targets[shard_of(p, n)] {
                Some(i) => staging[i].push(*p),
                None => dropped += 1,
            }
        }
        for (i, bucket) in staging.iter_mut().enumerate() {
            if !bucket.is_empty() {
                fed[i] += members[i].process_batch(bucket).packets;
                bucket.clear();
            }
        }
    }
    dropped
}

/// Worst/best ratio of per-member packet counts — the split's balance
/// figure of merit (1.0 is perfect). `1.0` when every member is idle
/// (nothing to imbalance); `f64::INFINITY` when some member got packets
/// and another got none.
fn imbalance(packets: impl Iterator<Item = u64> + Clone) -> f64 {
    let max = packets.clone().max().unwrap_or(0);
    let min = packets.min().unwrap_or(0);
    if max == 0 {
        1.0
    } else if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}

/// Whole-replay numbers of one [`ShardedDatapath::process_trace`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Packets processed across all replicas.
    pub packets: u64,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
    /// Worst/best ratio of the packets each replica took in *this*
    /// call: 1.0 is a perfect split, `f64::INFINITY` an idle replica
    /// beside a busy one.
    pub imbalance: f64,
}

impl ReplayStats {
    /// Whole-replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.packets as f64 / secs
        } else {
            0.0
        }
    }
}

/// The replicas of **one logical switch**, which are a healthy
/// [`SwitchFleet`]: every member runs the same task, a trace splits over
/// them by [`shard_of`], and a row reads back merged as if one switch
/// had replayed the whole trace serially.
#[derive(Debug)]
pub struct ShardedDatapath {
    fleet: SwitchFleet,
}

impl ShardedDatapath {
    /// A fleet of `workers` switches with `config`, each running `task`.
    /// Refuses zero workers: a replica set without a member reads
    /// nothing back.
    pub fn deploy(
        workers: usize,
        config: FlyMonConfig,
        task: &TaskDefinition,
    ) -> Result<Self, FlymonError> {
        if workers == 0 {
            return Err(FlymonError::BadTask(
                "a sharded datapath needs at least one worker".into(),
            ));
        }
        let fleet = SwitchFleet::deploy(workers, config, task)?;
        Ok(ShardedDatapath { fleet })
    }

    /// Replays `trace` through [`SwitchFleet::process_trace`] and returns
    /// this call's numbers; what each replica took is the rise of its
    /// switch's packet counter.
    pub fn process_trace(&mut self, trace: &[Packet]) -> ReplayStats {
        let counters = |fleet: &SwitchFleet| -> Vec<u64> {
            (0..fleet.len())
                .map(|i| fleet.switch(i).0.packets_processed())
                .collect()
        };
        let before = counters(&self.fleet);
        let begun = Instant::now();
        self.fleet.process_trace(trace);
        let elapsed = begun.elapsed();
        let took: Vec<u64> = counters(&self.fleet)
            .iter()
            .zip(&before)
            .map(|(now, then)| now - then)
            .collect();
        ReplayStats {
            packets: took.iter().sum(),
            elapsed,
            imbalance: imbalance(took.iter().copied()),
        }
    }

    /// One row's merged register ([`SwitchFleet::merged_task_row_into`]
    /// on the task). For sum/max/OR-law algorithms this is bit-identical
    /// to the row a serial replay of the same trace would have produced;
    /// for [`Algorithm::MaxInterval`] it is only an approximation (the
    /// arrival-time state is not mergeable — see DESIGN.md).
    pub fn merged_row(&self, row: usize) -> Result<Vec<u32>, FlymonError> {
        let mut scratch = ReadoutScratch::default();
        self.fleet.merged_task_row_into(0, row, &mut scratch)?;
        Ok(scratch.acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::KeySpec;

    fn config() -> FlyMonConfig {
        FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 4096,
            ..FlyMonConfig::default()
        }
    }

    /// Partitions `trace` into `n` shards by [`shard_of`], preserving
    /// the original packet order within each shard: the reference split
    /// that `replay`, which never builds whole shards, is held to.
    fn shard_trace(trace: &[Packet], n: usize) -> Vec<Vec<Packet>> {
        let mut shards: Vec<Vec<Packet>> = vec![Vec::new(); n];
        for p in trace {
            shards[shard_of(p, n)].push(*p);
        }
        shards
    }

    #[test]
    fn shard_of_matches_the_generic_byte_slice_hash() {
        // The mapping is frozen: the single-word murmur3 path and the
        // 32-bit modulus must pick the shard the generic byte-slice
        // function and a `usize` modulus pick, for every address.
        use flymon_packet::SplitMix64;
        use flymon_rmt::hash::murmur3_32;
        let mut rng = SplitMix64::new(0x5a4d);
        for i in 0..1_050_000u32 {
            // Seeded addresses, plus a run of sequential ones.
            let ip = if i < 1_000_000 { rng.next_u32() } else { i };
            let pkt = Packet::udp(ip, 1, 2, 3);
            let generic = fmix32(murmur3_32(INGRESS_HASH_SEED, &ip.to_be_bytes())) as usize;
            for n in 1..=8 {
                assert_eq!(shard_of(&pkt, n), generic % n, "ip {ip:#x} n {n}");
            }
        }
    }

    #[test]
    fn both_sweep_instantiations_agree_with_the_scalar_law() {
        // `sweep_portable` directly, and `sweep` — which on a host with
        // AVX2 is the wide instantiation — on the same inputs: rows
        // and occupancy must equal each other and what `combine` says
        // per element, so neither body goes untested whichever one
        // dispatch picks.
        use flymon_packet::SplitMix64;
        type Sweep = fn(MergeLaw, &mut [u32], &[u32], u32, Option<u32>) -> RowOccupancy;
        let bodies: [(&str, Sweep); 2] = [("portable", sweep_portable), ("dispatched", sweep)];
        let mut rng = SplitMix64::new(0x51_3d);
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 1_023, 1_024, 1_025, 2_049, 5_000] {
            for law in [MergeLaw::Sum, MergeLaw::Max, MergeLaw::Or] {
                for cap in [0u32, 1, 255, 65_535, u32::MAX] {
                    // A third zeros, a third small counts, the rest
                    // anywhere in `u32` (so sums overflow it).
                    let mut pick = || match rng.next_u32() % 3 {
                        0 => 0,
                        1 => rng.next_u32() % 300,
                        _ => rng.next_u32(),
                    };
                    let acc0: Vec<u32> = (0..len).map(|_| pick()).collect();
                    let src: Vec<u32> = (0..len).map(|_| pick()).collect();
                    let expected: Vec<u32> = acc0
                        .iter()
                        .zip(&src)
                        .map(|(&a, &s)| law.combine(a, s, cap))
                        .collect();
                    let occupancy = RowOccupancy {
                        nonzero: expected.iter().filter(|&&v| v > 0).count(),
                        saturated: expected.iter().filter(|&&v| v >= cap).count(),
                    };
                    for (name, body) in bodies {
                        let case = format!("{name} {law:?} cap={cap} len={len}");
                        let mut acc = acc0.clone();
                        let occ = body(law, &mut acc, &src, cap, None);
                        assert_eq!(acc, expected, "{case}: fold");
                        assert_eq!(occ, RowOccupancy::default(), "{case}: no scan asked");

                        let mut acc = acc0.clone();
                        let occ = body(law, &mut acc, &src, cap, Some(cap));
                        assert_eq!(acc, expected, "{case}: fused fold");
                        assert_eq!(occ, occupancy, "{case}: occupancy");
                    }
                }
            }
        }
    }

    #[test]
    fn u16_members_sweep_like_their_widened_rows() {
        // The same two instantiations at the narrow cell: a `u16` member
        // widened into the `u32` accumulator must give what the member
        // widened by hand gives, fold and occupancy alike.
        use flymon_packet::SplitMix64;
        type Sweep = fn(MergeLaw, &mut [u32], &[u16], u32, Option<u32>) -> RowOccupancy;
        let bodies: [(&str, Sweep); 2] = [("portable", sweep_portable), ("dispatched", sweep)];
        let mut rng = SplitMix64::new(0x1616);
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1_023, 1_024, 1_025, 2_049, 5_000] {
            for law in [MergeLaw::Sum, MergeLaw::Max, MergeLaw::Or] {
                for cap in [0u32, 1, 255, 32_767, 65_535, u32::MAX] {
                    let acc0: Vec<u32> = (0..len).map(|_| rng.next_u32() % 70_000).collect();
                    let src: Vec<u16> = (0..len).map(|_| rng.next_u32() as u16).collect();
                    let wide: Vec<u32> = src.iter().map(|&v| u32::from(v)).collect();
                    for (name, body) in bodies {
                        let case = format!("{name} {law:?} cap={cap} len={len}");
                        for scan in [None, Some(cap)] {
                            let (mut narrow_acc, mut wide_acc) = (acc0.clone(), acc0.clone());
                            let narrow = body(law, &mut narrow_acc, &src, cap, scan);
                            let widened = sweep_portable(law, &mut wide_acc, &wide, cap, scan);
                            assert_eq!(narrow_acc, wide_acc, "{case} {scan:?}: fold");
                            assert_eq!(narrow, widened, "{case} {scan:?}: occupancy");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sharding_covers_and_preserves_order() {
        let trace: Vec<Packet> = (0..1000u32).map(|i| Packet::tcp(i % 37, i, 1, 2)).collect();
        let shards = shard_trace(&trace, 4);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), trace.len());
        for (s, shard) in shards.iter().enumerate() {
            // Every packet landed on its hash shard…
            assert!(shard.iter().all(|p| shard_of(p, 4) == s));
            // …and same-source packets keep their relative order.
            let mut per_src: std::collections::HashMap<u32, Vec<u64>> = Default::default();
            for p in shard {
                per_src.entry(p.src_ip).or_default().push(p.ts_ns);
            }
            for seq in per_src.values() {
                assert!(seq.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn the_shell_merges_like_serial_and_measures_each_call() {
        // `ShardedDatapath` is three calls over a fleet, and each still
        // says what it says: no replica set without a member, every
        // packet counted once and the split's balance per call, and
        // rows merged like one serial switch's.
        use flymon_traffic::gen::{TraceConfig, TraceGenerator};
        let def = TaskDefinition::builder("f")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(1024)
            .build();
        assert!(ShardedDatapath::deploy(0, config(), &def).is_err());
        let trace = TraceGenerator::new(0x5ead).wide_like(&TraceConfig {
            flows: 2_000,
            packets: 30_000,
            zipf_alpha: 1.1,
            duration_ns: 1_000_000_000,
            seed: 0x5ead,
        });
        let mut serial = FlyMon::new(config());
        let h = serial.deploy(&def).unwrap();
        serial.process_batch(&trace);
        let (head, tail) = trace.split_at(10_001);
        for n in 1..=4 {
            let mut dp = ShardedDatapath::deploy(n, config(), &def).unwrap();
            for part in [head, tail] {
                let stats = dp.process_trace(part);
                assert_eq!(stats.packets, part.len() as u64, "{n} replicas");
                let shards = shard_trace(part, n);
                let max = shards.iter().map(Vec::len).max().unwrap() as f64;
                let min = shards.iter().map(Vec::len).min().unwrap() as f64;
                assert_eq!(
                    stats.imbalance,
                    max / min,
                    "{n} replicas: imbalance is per call"
                );
            }
            for row in 0..2 {
                assert_eq!(
                    dp.merged_row(row).unwrap(),
                    serial.read_row(h, row).unwrap(),
                    "{n} replicas, row {row}"
                );
            }
        }
    }

    #[test]
    fn affine_fanout_is_static_and_flow_stable() {
        // Every deployment is flow-affine because the split reads the
        // source address and nothing else: whatever else differs between
        // two packets of a source — or between two calls — they share a
        // shard.
        use flymon_packet::SplitMix64;
        let mut rng = SplitMix64::new(0xaff1);
        for _ in 0..10_000 {
            let src = rng.next_u32();
            let mut a = Packet::tcp(src, rng.next_u32(), rng.next_u32() as u16, 80);
            a.ts_ns = rng.next_u64();
            a.len = rng.next_u32() as u16;
            let b = Packet::udp(src, rng.next_u32(), 53, rng.next_u32() as u16);
            for n in 1..=5 {
                assert_eq!(shard_of(&a, n), shard_of(&b, n), "src {src:#x} n {n}");
            }
        }
    }

    #[test]
    fn affine_replay_keeps_flows_on_one_replica_across_calls() {
        // Strongest witness for flow affinity: switch w's registers
        // must be bit-identical to a solo switch fed exactly the flows
        // `shard_of` maps to w — across *two* replays, which a split
        // that looked at anything but the source address would shuffle.
        let def = TaskDefinition::builder("gap")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
            .memory(1024)
            .build();
        let cfg = FlyMonConfig {
            groups: 3,
            buckets_per_cmu: 1024,
            bucket_bits: 32,
            ..FlyMonConfig::default()
        };
        let mut trace = Vec::new();
        for round in 0..40u64 {
            for i in 0..200u32 {
                let mut p = Packet::tcp(i, 1, 2, 3);
                p.ts_ns = round * 1_000_000 + u64::from(i) * 900;
                trace.push(p);
            }
        }
        let n = 2;
        let mut fleet = SwitchFleet::deploy(n, cfg, &def).unwrap();
        fleet.process_trace(&trace);
        fleet.process_trace(&trace);
        for (w, sub) in shard_trace(&trace, n).iter().enumerate() {
            let mut solo = FlyMon::new(cfg);
            let h = solo.deploy(&def).unwrap();
            solo.process_batch(sub);
            solo.process_batch(sub);
            let (switch, sh) = fleet.switch(w);
            for row in 0..3 {
                assert_eq!(
                    switch.read_row(sh.unwrap(), row).unwrap(),
                    solo.read_row(h, row).unwrap(),
                    "switch {w} row {row} diverged"
                );
            }
        }
    }

    #[test]
    fn imbalance_ratio_edge_cases() {
        let ratio = |packets: &[u64]| imbalance(packets.iter().copied());
        assert_eq!(ratio(&[]), 1.0);
        assert_eq!(ratio(&[0, 0]), 1.0);
        assert_eq!(ratio(&[5, 0]), f64::INFINITY);
        assert_eq!(ratio(&[10, 8]), 1.25);
    }
}
