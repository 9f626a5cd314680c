//! Whole-switch checkpoints and log-replay recovery.
//!
//! A [`SwitchCheckpoint`] captures everything a warm standby needs to
//! reconstruct a switch: the control plane's shadow state (task records,
//! hash-unit refcounts, buddy-allocator occupancy), the data plane's
//! rule state (hash masks, installed bindings, hit counters), and the
//! SALU register files via [`flymon_rmt::checkpoint::RegisterCheckpoint`].
//! Restore is bit-identical: a restored switch answers every readout and
//! query exactly as the original did at the capture barrier, and passes
//! [`FlyMon::audit`] with no divergence.
//!
//! A standby keeps one restorable image current with
//! [`FlyMon::sync_into`], in place and at the cost of what changed. A
//! [`CaptureMode::Delta`] capture folded in by [`SwitchCheckpoint::overlay`]
//! lands on the same image: the shipped form of the same sync.
//!
//! [`FlyMon::recover`] is checkpoint + WAL: it restores the image, then
//! replays the committed suffix of a [`WriteAheadLog`] (records after
//! the checkpoint's `wal_seq`), cross-checking each record's logged
//! effect (task ids, geometries) and auditing the result. Packet-driven
//! register updates after the capture barrier are *not* recoverable —
//! that is the bounded loss window the fleet layer accounts for.

use std::sync::Arc;

use flymon_rmt::checkpoint::{CaptureMode, RegisterCheckpoint, CHECKPOINT_VERSION};
use flymon_rmt::register::Register;
use flymon_packet::KeySpec;

use crate::alloc::BuddyAllocator;
use crate::control::{DeployedTask, FlyMon, FlyMonConfig, TaskHandle};
use crate::group::CmuBinding;
use crate::task::{TaskDefinition, TaskId};
use crate::wal::{WalIntent, WalOutcome, WriteAheadLog};
use crate::FlymonError;

/// Shadow state of one compression-stage hash unit.
#[derive(Debug, Clone, Default)]
pub struct UnitImage {
    /// The key spec the control plane believes is configured.
    pub spec: Option<KeySpec>,
    /// The shadow refcount.
    pub refs: usize,
}

/// Data-plane state of one CMU: its bindings in match order plus the
/// per-binding hit counters.
#[derive(Debug, Clone)]
pub struct CmuImage {
    /// Installed bindings, in match order (order is semantic:
    /// first-match-wins).
    pub bindings: Vec<CmuBinding>,
    /// Per-binding hit counters, parallel to `bindings`.
    pub hits: Vec<u64>,
}

/// Data-plane state of one CMU Group.
#[derive(Debug, Clone)]
pub struct GroupImage {
    /// Configured hash mask per compression unit (the data plane's
    /// truth, captured separately from the shadow [`UnitImage`]s).
    pub masks: Vec<Option<KeySpec>>,
    /// Per-CMU rule state.
    pub cmus: Vec<CmuImage>,
}

/// A versioned whole-switch checkpoint.
#[derive(Debug, Clone)]
pub struct SwitchCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at capture time).
    pub version: u16,
    /// The attached WAL's last appended sequence number at capture time
    /// (0 with no WAL) — recovery replays committed records after this.
    pub wal_seq: u64,
    /// The switch configuration (restore rebuilds the same geometry).
    pub config: FlyMonConfig,
    /// The next task id the control plane would assign — replayed
    /// deploys must reproduce the original ids.
    pub next_id: u32,
    /// Packets processed at capture time.
    pub packets_processed: u64,
    /// Recirculated packets at capture time.
    pub recirculated_packets: u64,
    /// Cumulative modeled install latency at capture time.
    pub total_install_ms: f64,
    /// The switch's control generation at capture time, unique across
    /// switches: while the live switch is still at it, `tasks`, `units`,
    /// `groups` (but for hit counters) and `allocators` are current.
    pub generation: u64,
    /// Deployed task records, sorted by id (canonical form).
    pub tasks: Vec<(TaskId, DeployedTask)>,
    /// Shadow hash-unit state, `[group][unit]`.
    pub units: Vec<Vec<UnitImage>>,
    /// Data-plane rule state per group.
    pub groups: Vec<GroupImage>,
    /// Buddy-allocator state, `[group][cmu]` — cloned outright so a
    /// restored switch's future allocations split the exact same free
    /// blocks the original would have.
    pub allocators: Vec<Vec<BuddyAllocator>>,
    /// Register files in canonical order (group-major, CMU-minor).
    pub registers: RegisterCheckpoint,
}

impl SwitchCheckpoint {
    /// True when the register payload is a full image (restorable on
    /// its own, without overlaying onto a base).
    pub fn is_full(&self) -> bool {
        self.registers.is_full()
    }

    /// Register bucket values this checkpoint carries — the cheapness
    /// metric for delta captures.
    pub fn payload_buckets(&self) -> usize {
        self.registers.payload_buckets()
    }

    /// Folds a delta checkpoint onto this full base: register spans are
    /// overlaid, and the (always-complete) control metadata is replaced
    /// by the delta's newer copy — moved, which is why the delta comes
    /// by value. After the overlay this base restores to the live
    /// switch at the delta's capture barrier.
    pub fn overlay(&mut self, mut delta: SwitchCheckpoint) -> Result<(), FlymonError> {
        if self.version != delta.version {
            return Err(FlymonError::Checkpoint("version mismatch"));
        }
        if self.config != delta.config {
            return Err(FlymonError::Checkpoint("config mismatch"));
        }
        if delta.wal_seq < self.wal_seq {
            return Err(FlymonError::Checkpoint("delta older than base"));
        }
        self.registers.overlay(&delta.registers)?;
        std::mem::swap(&mut self.registers, &mut delta.registers);
        *self = delta;
        Ok(())
    }
}

impl FlyMon {
    /// Register files in canonical order (group-major, CMU-minor).
    fn registers(&self) -> impl Iterator<Item = &Register> {
        self.groups.iter().flat_map(|g| g.cmus().iter().map(|c| c.register()))
    }

    /// [`FlyMon::registers`], mutably.
    fn registers_mut(&mut self) -> impl Iterator<Item = &mut Register> {
        self.groups.iter_mut().flat_map(|g| g.cmus_mut().map(|c| c.register_mut()))
    }

    fn wal_seq(&self) -> u64 {
        self.wal().map(|w| w.last_seq()).unwrap_or(0)
    }

    /// Deployed task records, sorted by id.
    fn task_images(&self) -> Vec<(TaskId, DeployedTask)> {
        let mut tasks: Vec<(TaskId, DeployedTask)> =
            self.tasks.iter().map(|(id, t)| (*id, t.clone())).collect();
        tasks.sort_by_key(|(id, _)| *id);
        tasks
    }

    fn group_images(&self) -> Vec<GroupImage> {
        self.groups
            .iter()
            .map(|g| GroupImage {
                masks: g.units().iter().map(|u| u.mask().copied()).collect(),
                cmus: g
                    .cmus()
                    .iter()
                    .map(|c| CmuImage {
                        bindings: c.bindings().to_vec(),
                        hits: (0..c.bindings().len()).map(|i| c.hits(i)).collect(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Captures a whole-switch checkpoint and places the snapshot
    /// barrier on every register (the next delta covers only writes
    /// after this call).
    ///
    /// Control metadata (tasks, units, bindings, allocators, counters)
    /// is always captured in full; `mode` governs only the register
    /// payload. Armed fault plans and retry policies are deliberately
    /// *not* captured — they are test-harness state, not switch state.
    pub fn checkpoint(&mut self, mode: CaptureMode) -> SwitchCheckpoint {
        SwitchCheckpoint {
            version: CHECKPOINT_VERSION,
            wal_seq: self.wal_seq(),
            config: self.config,
            next_id: self.next_id,
            packets_processed: self.packets_processed,
            recirculated_packets: self.recirculated_packets,
            total_install_ms: self.total_install_ms,
            generation: self.generation,
            tasks: self.task_images(),
            units: self.units.clone(),
            groups: self.group_images(),
            allocators: self.allocators.clone(),
            registers: RegisterCheckpoint::capture(self.registers_mut(), mode),
        }
    }

    /// `image.overlay(self.checkpoint(CaptureMode::Delta))`, in place:
    /// dirty register spans go straight into the image, and control
    /// metadata is re-captured only if the control generation moved.
    /// Generations are unique across switches, so a foreign image's
    /// metadata is always replaced; its registers, as with an overlay,
    /// are current only if it was this switch's image at the last
    /// barrier. Refused, with nothing written, unless `image` matches
    /// this switch's version, config and register geometry, holds every
    /// register in full, and is no newer than its WAL. Returns the
    /// buckets copied.
    pub fn sync_into(&mut self, image: &mut SwitchCheckpoint) -> Result<usize, FlymonError> {
        if image.version != CHECKPOINT_VERSION || image.config != self.config {
            return Err(FlymonError::Checkpoint("not an image of this switch"));
        }
        let wal_seq = self.wal_seq();
        if wal_seq < image.wal_seq {
            return Err(FlymonError::Checkpoint("image newer than the switch's WAL"));
        }
        let snapshots = &mut image.registers.snapshots;
        if snapshots.len() != self.registers().count() {
            return Err(flymon_rmt::RmtError::CheckpointMismatch("register count").into());
        }
        for (snapshot, reg) in snapshots.iter().zip(self.registers()) {
            snapshot.check_image_of(reg)?;
        }
        let mut payload = 0;
        for (snapshot, reg) in snapshots.iter_mut().zip(self.registers_mut()) {
            payload += snapshot.refresh(reg)?;
        }
        image.wal_seq = wal_seq;
        image.next_id = self.next_id;
        image.packets_processed = self.packets_processed;
        image.recirculated_packets = self.recirculated_packets;
        image.total_install_ms = self.total_install_ms;
        if image.generation == self.generation {
            let cmus = self.groups.iter().flat_map(|g| g.cmus());
            for (at, cmu) in image.groups.iter_mut().flat_map(|g| &mut g.cmus).zip(cmus) {
                for (i, hits) in at.hits.iter_mut().enumerate() {
                    *hits = cmu.hits(i);
                }
            }
        } else {
            image.generation = self.generation;
            image.tasks = self.task_images();
            image.units.clone_from(&self.units);
            image.groups = self.group_images();
            image.allocators.clone_from(&self.allocators);
        }
        Ok(payload)
    }

    /// Reconstructs a switch from a full checkpoint, bit-identical at
    /// the capture barrier: same task records and ids, same rule state
    /// and hit counters, same allocator free lists, same register
    /// contents. The restored instance passes [`FlyMon::audit`] iff the
    /// captured instance did.
    pub fn restore(chk: &SwitchCheckpoint) -> Result<FlyMon, FlymonError> {
        if chk.version != CHECKPOINT_VERSION {
            return Err(FlymonError::Checkpoint("unknown checkpoint version"));
        }
        if !chk.is_full() {
            return Err(FlymonError::Checkpoint(
                "delta checkpoint; overlay onto a full base first",
            ));
        }
        let cfg = chk.config;
        cfg.validate().map_err(FlymonError::Checkpoint)?;
        if chk.groups.len() != cfg.groups
            || chk.units.len() != cfg.groups
            || chk.allocators.len() != cfg.groups
        {
            return Err(FlymonError::Checkpoint("group count mismatch"));
        }
        for g in 0..cfg.groups {
            if chk.groups[g].masks.len() != cfg.compression_units
                || chk.units[g].len() != cfg.compression_units
                || chk.groups[g].cmus.len() != cfg.cmus_per_group
                || chk.allocators[g].len() != cfg.cmus_per_group
                || chk.groups[g].cmus.iter().any(|c| c.hits.len() != c.bindings.len())
            {
                return Err(FlymonError::Checkpoint("group shape mismatch"));
            }
        }

        let mut fm = FlyMon::new(cfg);
        for (g, gi) in chk.groups.iter().enumerate() {
            for (u, mask) in gi.masks.iter().enumerate() {
                match mask {
                    Some(spec) => fm.groups[g].unit_mut(u).set_mask(*spec),
                    None => fm.groups[g].unit_mut(u).clear_mask(),
                }
            }
            // Bindings reinstall in captured order — order is
            // first-match-wins semantics, not bookkeeping — as one
            // install per group.
            let bindings = gi.cmus.iter().enumerate();
            let bindings = bindings.flat_map(|(c, ci)| ci.bindings.iter().map(move |b| (c, b)));
            fm.groups[g].install_all(bindings)?;
            for (c, ci) in gi.cmus.iter().enumerate() {
                fm.groups[g].cmu_mut(c).restore_hits(&ci.hits);
            }
        }
        fm.units = chk.units.clone();
        fm.allocators = chk.allocators.clone();
        fm.tasks = chk.tasks.iter().cloned().collect();
        chk.registers.restore(fm.registers_mut())?;
        // The restore itself dirtied every register; the restored
        // instance starts with a clean baseline.
        fm.registers_mut().for_each(Register::clear_dirty);
        fm.generation = chk.generation;
        fm.next_id = chk.next_id;
        fm.packets_processed = chk.packets_processed;
        fm.recirculated_packets = chk.recirculated_packets;
        fm.total_install_ms = chk.total_install_ms;
        Ok(fm)
    }

    /// Checkpoint + WAL recovery: restores the image, then replays the
    /// committed suffix of `wal` (records after `chk.wal_seq`),
    /// re-executing each intent and cross-checking the logged effect —
    /// a replayed deploy must reproduce the recorded task id and
    /// geometry. Aborted and pending records are skipped: the
    /// transactional machinery guarantees they left no state behind.
    /// The recovered instance is audited before being returned.
    ///
    /// What recovery restores is control-plane truth, not lost traffic:
    /// packet-driven register updates between the capture barrier and
    /// the failure are gone (the bounded loss window). A recovered
    /// task's physical placement may also differ from the failed
    /// original's when a reallocation is replayed — ids, geometries and
    /// estimates are preserved; offsets are not part of the contract.
    pub fn recover(
        wal: &WriteAheadLog,
        chk: &SwitchCheckpoint,
    ) -> Result<FlyMon, FlymonError> {
        // Verify the replay suffix's CRC frames before trusting any of
        // it: a torn or corrupted record is a named divergence, not a
        // silently replayed lie. Records at or below the anchor are
        // shadowed by the checkpoint image and may be arbitrarily stale.
        if let Err(seq) = wal.verify_frames_after(chk.wal_seq) {
            return Err(FlymonError::RecoveryDivergence {
                seq,
                detail: "WAL frame checksum mismatch: torn or corrupted record in replay suffix"
                    .into(),
            });
        }
        let mut fm = FlyMon::restore(chk)?;
        for rec in wal.committed_after(chk.wal_seq) {
            let WalOutcome::Committed { removed, deployed } = rec.outcome else {
                unreachable!("committed_after yields only committed records");
            };
            let seq = rec.seq;
            let diverged = |detail: String| FlymonError::RecoveryDivergence { seq, detail };
            // A decoded definition is validated here: `deploy_unlogged`
            // trusts its caller to have done so.
            let replay_deploy = |fm: &mut FlyMon,
                                 def: &Arc<TaskDefinition>,
                                 want: (TaskId, usize)|
             -> Result<(), FlymonError> {
                let h = def
                    .validate()
                    .and_then(|()| fm.deploy_unlogged(def))
                    .map_err(|e| diverged(format!("replayed deploy failed: {e}")))?;
                let got = fm.tasks[&h.0].rows.first().map(|r| r.size).unwrap_or(0);
                if (h.0, got) != want {
                    return Err(diverged(format!(
                        "replayed deploy produced task {:?} at {} buckets, log records {:?} at {}",
                        h.0, got, want.0, want.1
                    )));
                }
                Ok(())
            };
            match &rec.intent {
                WalIntent::Deploy(def) => {
                    let want = deployed
                        .ok_or_else(|| diverged("committed deploy with no effect".into()))?;
                    replay_deploy(&mut fm, def, want)?;
                }
                WalIntent::Remove(id) => {
                    fm.remove_unlogged(TaskHandle(*id))
                        .map_err(|e| diverged(format!("replayed remove failed: {e}")))?;
                }
                WalIntent::Reset(id) => {
                    fm.reset_unlogged(TaskHandle(*id))
                        .map_err(|e| diverged(format!("replayed reset failed: {e}")))?;
                }
                WalIntent::Reallocate { task, .. } => {
                    // Replay the logged net effect, not the original
                    // fallback dance: remove what was removed, deploy
                    // what was deployed, at the recorded geometry.
                    let old = Arc::clone(
                        &fm.task(TaskHandle(*task))
                            .map_err(|_| diverged(format!("reallocated task {task:?} not found")))?
                            .def,
                    );
                    if let Some(id) = removed {
                        fm.remove_unlogged(TaskHandle(id))
                            .map_err(|e| diverged(format!("replayed remove failed: {e}")))?;
                    }
                    if let Some(want) = deployed {
                        let def = TaskDefinition {
                            memory: want.1,
                            ..TaskDefinition::clone(&old)
                        };
                        replay_deploy(&mut fm, &Arc::new(def), want)?;
                    }
                }
            }
        }
        let divergences = fm.audit();
        if !divergences.is_empty() {
            return Err(FlymonError::RecoveryDivergence {
                seq: wal.last_seq(),
                detail: format!(
                    "audit found {} divergence(s) after replay: {:?}",
                    divergences.len(),
                    divergences[0]
                ),
            });
        }
        Ok(fm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PerPacket;
    use crate::task::Attribute;
    use flymon_packet::{Packet, TaskFilter};

    fn switch() -> FlyMon {
        FlyMon::new(FlyMonConfig {
            groups: 3,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        })
    }

    fn cms(name: &str, mem: usize, net: u32) -> TaskDefinition {
        TaskDefinition::builder(name)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .filter(TaskFilter::src(net, 8))
            .memory(mem)
            .build()
    }

    fn feed(fm: &mut FlyMon, n: u32) {
        for i in 0..n {
            fm.process(&Packet::tcp(0x0a000000 | (i % 13), 1, 2, 3));
            fm.process(&Packet::tcp(0x14000000 | (i % 7), 1, 2, 3));
        }
    }

    /// Every observable of `b` matches `a`: tasks, counters, audits,
    /// and raw register contents.
    fn assert_bit_identical(a: &FlyMon, b: &FlyMon) {
        assert_eq!(a.task_count(), b.task_count());
        assert_eq!(a.packets_processed(), b.packets_processed());
        assert_eq!(a.recirculated_packets(), b.recirculated_packets());
        assert_eq!(a.free_buckets(), b.free_buckets());
        assert!(b.audit().is_empty(), "restored switch must audit clean");
        for (ga, gb) in a.groups().iter().zip(b.groups().iter()) {
            for (ca, cb) in ga.cmus().iter().zip(gb.cmus().iter()) {
                let n = ca.register().len();
                assert_eq!(
                    ca.register().read_range(0, n).unwrap(),
                    cb.register().read_range(0, n).unwrap(),
                    "registers must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn full_checkpoint_round_trip() {
        let mut fm = switch();
        let a = fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        fm.deploy(&cms("b", 128, 0x14000000)).unwrap();
        feed(&mut fm, 50);
        let chk = fm.checkpoint(CaptureMode::Full);
        let restored = FlyMon::restore(&chk).unwrap();
        assert_bit_identical(&fm, &restored);
        // Queries agree exactly.
        let probe = Packet::tcp(0x0a000001, 9, 9, 9);
        assert_eq!(fm.query_frequency(a, &probe), restored.query_frequency(a, &probe));
        assert_eq!(fm.task_hits(a).unwrap(), restored.task_hits(a).unwrap());
    }

    #[test]
    fn restored_switch_evolves_identically() {
        // Same deploys + same packets after restore ⇒ same state: the
        // cloned allocators and next_id make future behavior, not just
        // present state, identical.
        let mut fm = switch();
        fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        feed(&mut fm, 20);
        let chk = fm.checkpoint(CaptureMode::Full);
        let mut restored = FlyMon::restore(&chk).unwrap();
        let h1 = fm.deploy(&cms("b", 64, 0x14000000)).unwrap();
        let h2 = restored.deploy(&cms("b", 64, 0x14000000)).unwrap();
        assert_eq!(h1, h2, "task ids must continue identically");
        assert_eq!(
            fm.task(h1).unwrap().rows[0].offset,
            restored.task(h2).unwrap().rows[0].offset,
            "allocator state must continue identically"
        );
        feed(&mut fm, 20);
        feed(&mut restored, 20);
        assert_bit_identical(&fm, &restored);
    }

    #[test]
    fn delta_checkpoints_are_cheap_and_compose() {
        let mut fm = switch();
        fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        feed(&mut fm, 200);
        let mut base = fm.checkpoint(CaptureMode::Full);
        let full_size = base.payload_buckets();
        // A small post-barrier update window.
        for _ in 0..3 {
            fm.process(&Packet::tcp(0x0a000001, 1, 2, 3));
        }
        let delta = fm.checkpoint(CaptureMode::Delta);
        assert!(!delta.is_full());
        assert!(
            delta.payload_buckets() * 4 < full_size,
            "delta ({}) must be far cheaper than full ({})",
            delta.payload_buckets(),
            full_size
        );
        base.overlay(delta).unwrap();
        let restored = FlyMon::restore(&base).unwrap();
        assert_bit_identical(&fm, &restored);
        // An idle switch produces an empty delta.
        let idle = fm.checkpoint(CaptureMode::Delta);
        assert_eq!(idle.payload_buckets(), 0);
    }

    #[test]
    fn delta_restore_requires_full_base() {
        let mut fm = switch();
        fm.deploy(&cms("a", 64, 0x0a000000)).unwrap();
        fm.checkpoint(CaptureMode::Full);
        fm.process(&Packet::tcp(0x0a000001, 1, 2, 3));
        let delta = fm.checkpoint(CaptureMode::Delta);
        assert!(matches!(
            FlyMon::restore(&delta),
            Err(FlymonError::Checkpoint(_))
        ));
    }

    #[test]
    fn structurally_hostile_images_are_refused_not_panicked_on() {
        let mut fm = switch();
        fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        feed(&mut fm, 20);
        let chk = fm.checkpoint(CaptureMode::Full);
        type Mutation = fn(&mut SwitchCheckpoint);
        let mutations: [(&str, Mutation); 6] = [
            ("zero groups", |c| {
                c.config.groups = 0;
                c.groups.clear();
                c.units.clear();
                c.allocators.clear();
            }),
            ("1000 buckets", |c| c.config.buckets_per_cmu = 1000),
            ("9 compression units", |c| c.config.compression_units = 9),
            ("zero CMUs per group", |c| c.config.cmus_per_group = 0),
            ("40-bit buckets", |c| c.config.bucket_bits = 40),
            ("hits shorter than bindings", |c| {
                let mut cmus = c.groups.iter_mut().flat_map(|g| &mut g.cmus);
                cmus.find(|c| !c.bindings.is_empty()).expect("a deployed row").hits.pop();
            }),
        ];
        for (what, mutate) in mutations {
            let mut hostile = chk.clone();
            mutate(&mut hostile);
            let err = FlyMon::restore(&hostile).map(|_| ()).expect_err(what);
            assert!(matches!(err, FlymonError::Checkpoint(_)), "{what}: {err}");
        }
    }

    #[test]
    fn recover_replays_committed_suffix() {
        let mut fm = switch();
        fm.attach_wal(WriteAheadLog::new());
        let a = fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        feed(&mut fm, 30);
        let chk = fm.checkpoint(CaptureMode::Full);
        // Post-checkpoint control-plane ops, all logged.
        let b = fm.deploy(&cms("b", 128, 0x14000000)).unwrap();
        let a2 = fm.reallocate_memory(a, 512).unwrap();
        fm.reset_task(b).unwrap();
        let wal = fm.detach_wal().unwrap();
        let recovered = FlyMon::recover(&wal, &chk).unwrap();
        assert!(recovered.audit().is_empty());
        assert_eq!(recovered.task_count(), 2);
        assert!(recovered.task(b).is_ok(), "replayed deploy must exist");
        assert!(recovered.task(a2).is_ok(), "replayed realloc must exist");
        assert!(matches!(recovered.task(a), Err(FlymonError::NoSuchTask)));
        assert_eq!(recovered.task(a2).unwrap().rows[0].size, 512);
    }

    #[test]
    fn recover_skips_aborted_records() {
        let mut fm = switch();
        fm.attach_wal(WriteAheadLog::new());
        fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        let chk = fm.checkpoint(CaptureMode::Full);
        // An oversized deploy fails and is logged aborted.
        assert!(fm.deploy(&cms("big", 4096, 0x1e000000)).is_err());
        let b = fm.deploy(&cms("b", 64, 0x14000000)).unwrap();
        let wal = fm.detach_wal().unwrap();
        assert_eq!(wal.committed_after(chk.wal_seq).count(), 1);
        let recovered = FlyMon::recover(&wal, &chk).unwrap();
        assert_eq!(recovered.task_count(), 2);
        assert!(recovered.task(b).is_ok());
    }

    #[test]
    fn recover_reproduces_task_ids_exactly() {
        let mut fm = switch();
        fm.attach_wal(WriteAheadLog::new());
        let chk = fm.checkpoint(CaptureMode::Full);
        let mut handles = Vec::new();
        for i in 0..5u32 {
            handles.push(
                fm.deploy(&cms(&format!("t{i}"), 64, (10 + i) << 24)).unwrap(),
            );
        }
        fm.remove(handles[2]).unwrap();
        let wal = fm.detach_wal().unwrap();
        let recovered = FlyMon::recover(&wal, &chk).unwrap();
        assert_eq!(recovered.task_count(), 4);
        for (i, h) in handles.iter().enumerate() {
            if i == 2 {
                assert!(recovered.task(*h).is_err());
            } else {
                assert!(recovered.task(*h).is_ok(), "handle {i} must survive");
            }
        }
        // And the next id continues in lockstep with the original.
        let next_live = fm.deploy(&cms("next", 64, 0x63000000)).unwrap();
        let mut rec = recovered;
        let next_rec = rec.deploy(&cms("next", 64, 0x63000000)).unwrap();
        assert_eq!(next_live, next_rec);
    }

    #[test]
    fn a_refused_fold_leaves_the_image_whole() {
        use flymon_rmt::checkpoint::{DirtySpan, SnapshotData};
        let mut fm = switch();
        fm.deploy(&cms("a", 256, 0x0a000000)).unwrap();
        feed(&mut fm, 50);
        let base = fm.checkpoint(CaptureMode::Full);
        feed(&mut fm, 50);
        let dirty: Vec<_> = fm.registers().map(Register::dirty_range).collect();
        assert!(dirty.iter().any(Option::is_some));

        // The last register's image is not a full image: nothing of the
        // refresh may land, and every live barrier stays where it was.
        let mut image = base.clone();
        let last = image.registers.snapshots.last_mut().unwrap();
        last.data = SnapshotData::Delta(Vec::new());
        let before = format!("{image:?}");
        assert!(fm.sync_into(&mut image).is_err());
        assert!(format!("{image:?}") == before, "sync_into wrote into a refused image");
        assert_eq!(fm.registers().map(Register::dirty_range).collect::<Vec<_>>(), dirty);

        // A delta whose last span runs past its register: the sound
        // spans of the other registers must not land either.
        let mut delta = fm.checkpoint(CaptureMode::Delta);
        assert!(delta.payload_buckets() > 0);
        let len = base.config.buckets_per_cmu;
        delta.registers.snapshots.last_mut().unwrap().data =
            SnapshotData::Delta(vec![DirtySpan::Zeros { start: len - 1, len: 2 }]);
        let mut image = base.clone();
        assert!(image.overlay(delta).is_err());
        assert!(format!("{image:?}") == format!("{base:?}"), "overlay wrote into a refused image");
    }

    /// Field for field: registers with their hulls, the WAL anchor,
    /// counters, tasks, units, masks, bindings, hits and allocators —
    /// all but the generation, which is each switch's own.
    fn assert_same_image(a: &SwitchCheckpoint, b: &SwitchCheckpoint, case: &str) {
        assert_eq!(a.registers, b.registers, "{case}: registers");
        let counters = |c: &SwitchCheckpoint| {
            let n = (c.wal_seq, c.next_id, c.packets_processed, c.recirculated_packets);
            (n, c.total_install_ms.to_bits())
        };
        assert_eq!(counters(a), counters(b), "{case}: counters");
        assert!(control(a) == control(b), "{case}: control metadata");
    }

    /// An image's tasks, units, masks, bindings, hits and allocators.
    fn control(c: &SwitchCheckpoint) -> String {
        format!("{:?}\n{:?}\n{:?}\n{:?}", c.tasks, c.units, c.groups, c.allocators)
    }

    /// What a promotion must reproduce: control state, counters, hits
    /// and every live bucket.
    fn live_state(fm: &FlyMon) -> String {
        let buckets: Vec<Vec<u32>> =
            fm.registers().map(|r| r.read_range(0, r.len()).unwrap().to_vec()).collect();
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            fm.task_images(),
            fm.units,
            fm.group_images(),
            fm.allocators,
            (fm.next_id, fm.packets_processed, fm.recirculated_packets, buckets)
        )
    }

    #[test]
    fn sync_into_lands_where_a_shipped_delta_does() {
        use flymon_packet::SplitMix64;
        let defs = |rng: &mut SplitMix64, i: u32| {
            let name = format!("t{i}");
            let memory = 64 << rng.range_u64(0, 4);
            let net = (10 + rng.range_u64(0, 3) as u32 * 10) << 24;
            let builder = TaskDefinition::builder(name).memory(memory as usize);
            match rng.next_u32() % 3 {
                0 => builder
                    .key(KeySpec::SRC_IP)
                    .attribute(Attribute::frequency_packets())
                    .filter(TaskFilter::src(net, 8))
                    .build(),
                1 => builder
                    .key(KeySpec::NONE)
                    .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
                    .algorithm(crate::task::Algorithm::Hll)
                    .build(),
                _ => builder
                    .key(KeySpec::NONE)
                    .attribute(Attribute::Existence(KeySpec::SRC_IP))
                    .algorithm(crate::task::Algorithm::Bloom { d: 2, bit_optimized: true })
                    .filter(TaskFilter::src(net, 8))
                    .build(),
            }
        };
        let (mut promotions, mut replayed, mut skips) = (0, 0, 0);
        for bucket_bits in [16u8, 32] {
            for seed in 0..6u64 {
                let mut rng = SplitMix64::new(0x5_1c_1d + seed);
                let config = FlyMonConfig {
                    groups: 3,
                    buckets_per_cmu: 1024,
                    bucket_bits,
                    ..FlyMonConfig::default()
                };
                // Twin switches under one history: `fm[0]`'s image is
                // refreshed in place, `fm[1]`'s takes shipped deltas.
                let mut fm = [FlyMon::new(config), FlyMon::new(config)];
                let mut handles: Vec<TaskHandle> = Vec::new();
                let mut next_name = 0;
                for sw in &mut fm {
                    sw.attach_wal(WriteAheadLog::new());
                }
                let mut images = fm.each_mut().map(|sw| sw.checkpoint(CaptureMode::Full));
                // Runs one control op on both twins; they must agree.
                let mut control = |fm: &mut [FlyMon; 2],
                                   handles: &mut Vec<TaskHandle>,
                                   rng: &mut SplitMix64,
                                   op: u32| {
                    let pick = |rng: &mut SplitMix64, handles: &Vec<TaskHandle>| {
                        handles[rng.range_u64(0, handles.len() as u64) as usize]
                    };
                    match op {
                        0 => {
                            next_name += 1;
                            let def = defs(rng, next_name);
                            let r = fm.each_mut().map(|sw| sw.deploy(&def).ok());
                            assert_eq!(r[0], r[1]);
                            handles.extend(r[0]);
                        }
                        1 if !handles.is_empty() => {
                            let h = pick(rng, handles);
                            let r = fm.each_mut().map(|sw| sw.remove(h).is_ok());
                            assert_eq!(r[0], r[1]);
                        }
                        2 if !handles.is_empty() => {
                            let h = pick(rng, handles);
                            let size = 64 << rng.range_u64(0, 4);
                            let r = fm.each_mut().map(|sw| match sw.reallocate_memory(h, size) {
                                Ok(new)
                                | Err(FlymonError::ReallocationReverted { restored: new }) => {
                                    Some(new)
                                }
                                Err(_) => None,
                            });
                            assert_eq!(r[0], r[1]);
                            handles.extend(r[0]);
                        }
                        3 if !handles.is_empty() => {
                            let h = pick(rng, handles);
                            for sw in fm.iter_mut() {
                                sw.reset_task(h).unwrap();
                            }
                        }
                        4 if !handles.is_empty() => {
                            let retire = rng.next_u32().is_multiple_of(2);
                            for sw in fm.iter_mut() {
                                sw.rotate_banks().unwrap();
                                if retire {
                                    sw.retire_epoch_banks();
                                }
                            }
                        }
                        // A revival: every task reset through the log.
                        5 => {
                            for sw in fm.iter_mut() {
                                for &h in handles.iter() {
                                    sw.reset_task(h).unwrap();
                                }
                            }
                        }
                        _ => {}
                    }
                    handles.retain(|&h| fm[0].task(h).is_ok());
                };
                let sync = |fm: &mut [FlyMon; 2], images: &mut [SwitchCheckpoint; 2], case: &str| {
                    let [refreshed, shipped] = fm;
                    let [image, oracle] = images;
                    let generation = image.generation;
                    let payload = refreshed.sync_into(image).unwrap();
                    let delta = shipped.checkpoint(CaptureMode::Delta);
                    assert_eq!(payload, delta.payload_buckets(), "{case}: payload");
                    oracle.overlay(delta).unwrap();
                    assert_same_image(image, oracle, case);
                    assert_eq!(image.generation, refreshed.generation, "{case}: generation");
                    assert!(
                        live_state(&FlyMon::restore(image).unwrap()) == live_state(refreshed),
                        "{case}: the image does not restore to the live switch"
                    );
                    for (sw, image) in fm.iter_mut().zip(images.iter()) {
                        let mut wal = sw.detach_wal().unwrap();
                        wal.compact(image.wal_seq);
                        sw.attach_wal(wal);
                    }
                    generation == images[0].generation
                };
                for step in 0..120 {
                    let case = format!("{bucket_bits} bits, seed {seed}, step {step}");
                    match rng.next_u32() % 12 {
                        0..=3 => {
                            let pkts: Vec<Packet> = (0..rng.range_u64(0, 300))
                                .map(|_| {
                                    let net = (10 + rng.range_u64(0, 4) as u32 * 10) << 24;
                                    Packet::tcp(net | (rng.next_u32() % 64), rng.next_u32(), 1, 2)
                                })
                                .collect();
                            for sw in fm.iter_mut() {
                                sw.process_batch(&pkts);
                            }
                        }
                        4..=8 => {
                            let op = rng.next_u32() % 6;
                            control(&mut fm, &mut handles, &mut rng, op);
                        }
                        9 | 10 => skips += usize::from(sync(&mut fm, &mut images, &case)),
                        _ => {
                            // Fail and promote, at an empty loss window:
                            // the promotion must be the unfailed twin,
                            // with or without control ops to replay.
                            sync(&mut fm, &mut images, &case);
                            if rng.next_u32().is_multiple_of(2) {
                                replayed += 1;
                                for _ in 0..rng.range_u64(1, 4) {
                                    let op = [0, 1, 3][rng.range_u64(0, 3) as usize];
                                    control(&mut fm, &mut handles, &mut rng, op);
                                }
                            }
                            for (sw, image) in fm.iter_mut().zip(images.iter()) {
                                let wal = sw.detach_wal().unwrap();
                                let mut promoted = FlyMon::recover(&wal, image).unwrap();
                                assert!(
                                    live_state(&promoted) == live_state(sw),
                                    "{case}: promotion"
                                );
                                promoted.attach_wal(wal);
                                *sw = promoted;
                            }
                            promotions += 1;
                        }
                    }
                }
            }
        }
        assert!(promotions > 20 && replayed > 10 && skips > 20, "{promotions} {replayed} {skips}");
    }

    #[test]
    fn a_siblings_image_never_reads_as_current() {
        // Two switches after one deploy each — the same op count, so a
        // per-switch counter would put them at the same generation.
        let (mut a, mut b) = (switch(), switch());
        a.deploy(&cms("a", 64, 0x0a000000)).unwrap();
        b.deploy(&cms("b", 128, 0x14000000)).unwrap();
        let mut image = b.checkpoint(CaptureMode::Full);
        a.sync_into(&mut image).unwrap();
        assert!(control(&image) == control(&a.checkpoint(CaptureMode::Full)));
    }

    #[test]
    fn wal_compaction_anchored_at_checkpoint() {
        let mut fm = switch();
        fm.attach_wal(WriteAheadLog::new());
        fm.deploy(&cms("a", 64, 0x0a000000)).unwrap();
        fm.deploy(&cms("b", 64, 0x14000000)).unwrap();
        let chk = fm.checkpoint(CaptureMode::Full);
        let c = fm.deploy(&cms("c", 64, 0x1e000000)).unwrap();
        // Compact up to the checkpoint anchor; recovery still works.
        let mut wal = fm.detach_wal().unwrap();
        wal.compact(chk.wal_seq);
        assert_eq!(wal.records().len(), 1);
        let recovered = FlyMon::recover(&wal, &chk).unwrap();
        assert_eq!(recovered.task_count(), 3);
        assert!(recovered.task(c).is_ok());
    }
}
