//! Closed-loop adaptive reconfiguration: the controller that makes
//! FlyMon's *on-the-fly* reconfigurability earn its keep.
//!
//! The paper's central claim (§1, §6) is that tasks can be deployed,
//! resized and split at runtime without touching the pipeline. This
//! module closes the loop around that capability: at every epoch
//! boundary the controller reads the fleet's archived readout
//! ([`FleetEpoch`]), computes per-task health signals, and — through
//! the same transactional, WAL-logged control plane every other
//! reconfiguration uses — grows saturating tasks, shrinks idle ones,
//! and splits a task that is still saturating at its memory ceiling
//! into per-prefix children (§3.1.1 task splitting).
//!
//! # Signals
//!
//! All signals derive from the epoch's merged rows alone (no second
//! readout pass):
//!
//! - **fill** — the max over rows of the nonzero-bucket fraction; low
//!   fill means the allocation is oversized for the epoch's flow count.
//! - **saturation** — the max over rows of the fraction of buckets
//!   pinned at the row's register ceiling ([`TaskEpoch::row_caps`]);
//!   Cond-ADD saturates rather than wraps, so any saturated bucket is
//!   a flow whose count the task can no longer resolve.
//! - **churn** — one minus the Jaccard similarity between this epoch's
//!   and the previous epoch's heavy-bucket sets (the top-K row-0
//!   buckets by value): a proxy for heavy-hitter turnover. High churn
//!   means the traffic mix is moving and shrinking would be premature.
//! - **loss delta** — packets newly lost to failures this epoch; any
//!   loss marks the epoch unstable and vetoes shrinking.
//!
//! # Hysteresis
//!
//! Three mechanisms keep the loop from thrashing:
//!
//! 1. a **deadband** between the grow and shrink fill thresholds — a
//!    task between them is left alone;
//! 2. a per-task **cooldown** of [`ControllerConfig::cooldown_epochs`]
//!    epochs after any action (keyed by task *name*, which survives
//!    index shifts when the task list grows);
//! 3. a per-epoch **budget** of at most
//!    [`ControllerConfig::epoch_budget`] reconfigurations, bounding the
//!    control-plane rate no matter how many tasks want attention.
//!
//! # Audit trail
//!
//! Every action flows through [`SwitchFleet::reallocate_task`] /
//! [`SwitchFleet::split_task`], so each per-switch mutation is WAL-
//! logged before it lands. The controller records a [`Decision`] per
//! action carrying the signals that justified it and the switch-0 WAL
//! sequence number after it committed — a standby promotion replays the
//! same records, so an adapted fleet recovers to its adapted shape (the
//! integration tests assert exactly that).
//!
//! The controller never acts on a degraded fleet: the caller passes
//! `paused = true` (the streaming runtime does so whenever its health
//! machine is off `Healthy`), and the controller itself refuses when
//! any switch is dead — reconfiguring around a corpse would fork the
//! fleet's task list.

use std::collections::HashMap;

use flymon::FlymonError;

use crate::fleet::{FleetEpoch, SwitchFleet, TaskEpoch};

/// Thresholds and hysteresis knobs of the [`AdaptiveController`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Grow when a task's fill reaches this fraction (collision
    /// pressure: most buckets already carry a flow).
    pub grow_fill: f64,
    /// Grow when any row has at least this fraction of buckets pinned
    /// at the register ceiling (counts are being clipped).
    pub grow_saturation: f64,
    /// Shrink when fill is at or below this fraction; must sit well
    /// below `grow_fill` — the gap is the deadband.
    pub shrink_fill: f64,
    /// Shrinking also requires churn at or below this (a stable mix).
    pub max_shrink_churn: f64,
    /// Multiplier applied to the requested buckets on grow.
    pub grow_factor: f64,
    /// Multiplier applied on shrink (must be < 1).
    pub shrink_factor: f64,
    /// Floor for requested buckets; shrinks never go below it.
    pub min_buckets: usize,
    /// Ceiling for requested buckets; a task saturating here becomes a
    /// split candidate instead.
    pub max_buckets: usize,
    /// Epochs a task rests after any action taken on it.
    pub cooldown_epochs: u64,
    /// Maximum reconfigurations per epoch across all tasks.
    pub epoch_budget: usize,
    /// Heavy-bucket set size used by the churn signal.
    pub churn_top_k: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            grow_fill: 0.5,
            grow_saturation: 0.005,
            shrink_fill: 0.15,
            max_shrink_churn: 0.5,
            grow_factor: 2.0,
            shrink_factor: 0.5,
            min_buckets: 1_024,
            max_buckets: 1 << 16,
            cooldown_epochs: 2,
            epoch_budget: 1,
            churn_top_k: 64,
        }
    }
}

/// The per-task health signals one epoch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSignals {
    /// Task name at observation time.
    pub name: String,
    /// Max over rows of the nonzero-bucket fraction.
    pub fill: f64,
    /// Max over rows of the at-ceiling bucket fraction.
    pub saturation: f64,
    /// Heavy-bucket turnover vs the previous epoch; `None` on a task's
    /// first observation (nothing to compare against).
    pub churn: Option<f64>,
    /// Packets newly lost to failures fleet-wide this epoch.
    pub loss_delta: u64,
}

/// What the controller did to a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptAction {
    /// Requested buckets raised `from -> to`.
    Grow {
        /// Buckets before.
        from: usize,
        /// Buckets after.
        to: usize,
    },
    /// Requested buckets lowered `from -> to`.
    Shrink {
        /// Buckets before.
        from: usize,
        /// Buckets after.
        to: usize,
    },
    /// The task split into two per-prefix children.
    Split {
        /// Name of the low-half child.
        low: String,
        /// Name of the high-half child.
        high: String,
    },
}

/// One reconfiguration the controller issued, with its justification
/// and WAL anchor — the unit of the audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The controller epoch (1-based) the decision fired in.
    pub epoch: u64,
    /// The task acted on (its name *before* the action; a split's
    /// children are in the action itself).
    pub task: String,
    /// What was done.
    pub action: AdaptAction,
    /// The signals that justified it.
    pub signals: TaskSignals,
    /// Switch 0's WAL sequence number after the action committed: the
    /// log suffix up to here contains every record the action wrote,
    /// so a recovery replaying past this point reproduces the
    /// reconfigured task list.
    pub wal_seq: u64,
}

/// Lifetime counters and the full decision log of a controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerReport {
    /// Epochs observed (including paused ones).
    pub epochs_seen: u64,
    /// Epochs on which adaptation was paused (degraded runtime or a
    /// not-fully-alive fleet).
    pub paused_epochs: u64,
    /// Grow actions issued.
    pub grows: u64,
    /// Shrink actions issued.
    pub shrinks: u64,
    /// Split actions issued.
    pub splits: u64,
    /// Desired actions suppressed by a per-task cooldown.
    pub skipped_cooldown: u64,
    /// Desired actions suppressed by the per-epoch budget.
    pub skipped_budget: u64,
    /// Actions abandoned because the control channel timed out before
    /// the command could be applied everywhere. The channel's
    /// outcome-determinacy contract plus the fleet ops' unwind keep the
    /// task list authoritative, so the action is simply dropped; the
    /// task still enters cooldown, which turns a flapping channel into
    /// a paced retry instead of a hammering loop.
    pub channel_timeouts: u64,
    /// Every action issued, in order.
    pub decisions: Vec<Decision>,
}

impl ControllerReport {
    /// Total actions issued.
    pub fn actions(&self) -> u64 {
        self.grows + self.shrinks + self.splits
    }
}

/// The epoch-driven closed-loop controller. One instance follows one
/// fleet; feed it every [`SwitchFleet::rotate_epoch_all`] readout via
/// [`AdaptiveController::on_epoch`].
#[derive(Debug)]
pub struct AdaptiveController {
    cfg: ControllerConfig,
    epoch: u64,
    /// Task name -> first epoch it may act again.
    cooldown_until: HashMap<String, u64>,
    /// Task name -> previous epoch's heavy row-0 bucket indices.
    prev_heavy: HashMap<String, Vec<usize>>,
    prev_lost: u64,
    report: ControllerReport,
}

impl AdaptiveController {
    /// A controller with the given policy.
    pub fn new(cfg: ControllerConfig) -> Self {
        AdaptiveController {
            cfg,
            epoch: 0,
            cooldown_until: HashMap::new(),
            prev_heavy: HashMap::new(),
            prev_lost: 0,
            report: ControllerReport::default(),
        }
    }

    /// The audit trail so far.
    pub fn report(&self) -> &ControllerReport {
        &self.report
    }

    /// The policy in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Signals for one task epoch, given the fleet-wide loss delta.
    ///
    /// A fleet-rotated epoch carries occupancy counters computed during
    /// the merge itself ([`TaskEpoch::occupancy`]), so fill/saturation
    /// cost nothing here. Hand-built epochs without them fall back to
    /// the full scan; both paths produce identical signals. The churn
    /// signal ranks row 0 ([`heavy_buckets`]) — the one pass over an
    /// epoch's rows that only a controller wants, so only a fleet with
    /// a controller attached pays for it.
    fn signals(epoch: &TaskEpoch, loss_delta: u64, prev: Option<&Vec<usize>>, top_k: usize) -> (TaskSignals, Vec<usize>) {
        let mut fill = 0.0f64;
        let mut saturation = 0.0f64;
        let fused = epoch.occupancy.len() == epoch.rows.len();
        for (i, (row, &cap)) in epoch.rows.iter().zip(&epoch.row_caps).enumerate() {
            if row.is_empty() {
                continue;
            }
            let (nonzero, at_cap) = if fused {
                (epoch.occupancy[i].nonzero, epoch.occupancy[i].saturated)
            } else {
                let at_cap = row.iter().filter(|&&v| v >= cap).count();
                (row.iter().filter(|&&v| v > 0).count(), at_cap)
            };
            fill = fill.max(nonzero as f64 / row.len() as f64);
            saturation = saturation.max(at_cap as f64 / row.len() as f64);
        }
        let row0 = epoch.rows.first().map_or(&[][..], |r| r.as_slice());
        let heavy = heavy_buckets(row0, top_k);
        let churn = prev.map(|p| 1.0 - jaccard(p, &heavy));
        (
            TaskSignals {
                name: epoch.name.clone(),
                fill,
                saturation,
                churn,
                loss_delta,
            },
            heavy,
        )
    }

    /// Observes one rotated epoch and (unless `paused`) issues at most
    /// [`ControllerConfig::epoch_budget`] reconfigurations through the
    /// fleet's transactional control plane. Returns the decisions
    /// taken this epoch (also appended to the report's audit trail).
    ///
    /// Pass `paused = true` while the surrounding runtime is degraded —
    /// signals are still ingested (so churn stays continuous) but no
    /// action fires. A fleet with any dead switch pauses itself for the
    /// same reason reconfiguration ops refuse it.
    ///
    /// A [`FlymonError::ChannelTimeout`] is absorbed (counted in
    /// [`ControllerReport::channel_timeouts`]); any other error of the
    /// underlying fleet op propagates, the op's sweep unwound.
    pub fn on_epoch(
        &mut self,
        fleet: &mut SwitchFleet,
        epoch: &FleetEpoch,
        paused: bool,
    ) -> Result<Vec<Decision>, FlymonError> {
        self.epoch += 1;
        self.report.epochs_seen += 1;
        let lost = fleet.lost_packets();
        let loss_delta = lost.saturating_sub(self.prev_lost);
        self.prev_lost = lost;

        // Ingest signals for every task first (even when paused, so the
        // churn baseline survives degradation windows).
        let mut all_signals = Vec::with_capacity(epoch.tasks.len());
        let mut next_heavy = HashMap::with_capacity(epoch.tasks.len());
        for te in &epoch.tasks {
            let (sig, heavy) = Self::signals(
                te,
                loss_delta,
                self.prev_heavy.get(&te.name),
                self.cfg.churn_top_k,
            );
            next_heavy.insert(te.name.clone(), heavy);
            all_signals.push(sig);
        }
        self.prev_heavy = next_heavy;

        let paused = paused || !fleet.fully_alive();
        if paused {
            self.report.paused_epochs += 1;
            return Ok(Vec::new());
        }

        let mut budget = self.cfg.epoch_budget;
        let mut taken = Vec::new();
        // Index tasks by name once; split replaces the acted slot and
        // appends, reallocation shifts nothing — so the indices of the
        // *other* entries stay valid across applications.
        let infos = fleet.task_infos();
        for sig in all_signals {
            let Some(info) = infos.iter().find(|i| i.name == sig.name) else {
                continue; // renamed/removed out from under us; skip
            };
            let want = self.desired_action(&sig, info.requested_buckets, info.filter.split().is_some());
            let Some(action) = want else { continue };
            // A task rests for `cooldown_epochs` full epochs after an
            // action: acted at epoch e, eligible again at e + cooldown + 1.
            if self
                .cooldown_until
                .get(&sig.name)
                .is_some_and(|&until| self.epoch <= until)
            {
                self.report.skipped_cooldown += 1;
                continue;
            }
            if budget == 0 {
                self.report.skipped_budget += 1;
                continue;
            }
            // Apply through the transactional control plane. A lossy
            // control channel can time a command out; that is a
            // transient, not a controller bug, and every fleet op
            // answers it the same way — the sweep is unwound and the
            // task list still describes every switch — so: abandon the
            // action, rest the task, and retry at the adaptation cadence.
            let applied = match &action {
                AdaptAction::Grow { to, .. } | AdaptAction::Shrink { to, .. } => {
                    fleet.reallocate_task(info.index, *to)
                }
                AdaptAction::Split { .. } => fleet.split_task(info.index).map(drop),
            };
            let rest_until = self.epoch + self.cfg.cooldown_epochs;
            match (applied, &action) {
                (Err(FlymonError::ChannelTimeout { .. }), _) => {
                    self.report.channel_timeouts += 1;
                    self.cooldown_until.insert(sig.name.clone(), rest_until);
                    continue;
                }
                (Err(e), _) => return Err(e),
                // Both children rest; the parent name retires.
                (Ok(()), AdaptAction::Split { low, high }) => {
                    self.cooldown_until.insert(low.clone(), rest_until);
                    self.cooldown_until.insert(high.clone(), rest_until);
                    self.cooldown_until.remove(&sig.name);
                }
                (Ok(()), _) => {
                    self.cooldown_until.insert(sig.name.clone(), rest_until);
                }
            }
            match &action {
                AdaptAction::Grow { .. } => self.report.grows += 1,
                AdaptAction::Shrink { .. } => self.report.shrinks += 1,
                AdaptAction::Split { .. } => self.report.splits += 1,
            }
            budget -= 1;
            let decision = Decision {
                epoch: self.epoch,
                task: sig.name.clone(),
                action,
                signals: sig,
                wal_seq: wal_anchor(fleet),
            };
            self.report.decisions.push(decision.clone());
            taken.push(decision);
        }
        Ok(taken)
    }

    /// The action the policy wants for `sig`, before hysteresis.
    fn desired_action(
        &self,
        sig: &TaskSignals,
        requested: usize,
        splittable: bool,
    ) -> Option<AdaptAction> {
        let pressured = sig.saturation >= self.cfg.grow_saturation || sig.fill >= self.cfg.grow_fill;
        if pressured {
            if requested >= self.cfg.max_buckets {
                if splittable {
                    return Some(AdaptAction::Split {
                        low: format!("{}/0", sig.name),
                        high: format!("{}/1", sig.name),
                    });
                }
                return None; // at the ceiling, unsplittable: stuck
            }
            let to = ((requested as f64 * self.cfg.grow_factor) as usize)
                .min(self.cfg.max_buckets)
                .max(requested + 1);
            return Some(AdaptAction::Grow { from: requested, to });
        }
        let stable = sig.churn.is_some_and(|c| c <= self.cfg.max_shrink_churn);
        if sig.fill <= self.cfg.shrink_fill
            && stable
            && sig.loss_delta == 0
            && requested > self.cfg.min_buckets
        {
            let to = ((requested as f64 * self.cfg.shrink_factor) as usize)
                .max(self.cfg.min_buckets)
                .min(requested - 1);
            return Some(AdaptAction::Shrink { from: requested, to });
        }
        None
    }
}

/// Switch 0's WAL high-water mark (0 when no WAL is attached). Every
/// fleet switch sees the same logged operations in the same order, so
/// one anchor describes the fleet.
fn wal_anchor(fleet: &SwitchFleet) -> u64 {
    if fleet.is_empty() {
        return 0;
    }
    fleet.switch(0).0.wal().map_or(0, |w| w.last_seq())
}

/// Indices of the top-`k` buckets of `row` by value (ties to the lower
/// index), zeros excluded. Value-descending then index-ascending is a
/// total order, so selecting the `k` first and sorting only those
/// yields what sorting every nonzero bucket and truncating would.
fn heavy_buckets(row: &[u32], k: usize) -> Vec<usize> {
    let heavier = |&a: &usize, &b: &usize| row[b].cmp(&row[a]).then(a.cmp(&b));
    let mut idx: Vec<usize> = (0..row.len()).filter(|&i| row[i] > 0).collect();
    if k < idx.len() {
        if k > 0 {
            idx.select_nth_unstable_by(k - 1, heavier);
        }
        idx.truncate(k);
    }
    idx.sort_unstable_by(heavier);
    idx
}

/// Jaccard similarity of two index sets (1.0 when both are empty: an
/// idle task has a perfectly stable — empty — heavy set).
fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<usize> = a.iter().copied().collect();
    let sb: std::collections::HashSet<usize> = b.iter().copied().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(name: &str, fill: f64, saturation: f64, churn: Option<f64>) -> TaskSignals {
        TaskSignals {
            name: name.into(),
            fill,
            saturation,
            churn,
            loss_delta: 0,
        }
    }

    #[test]
    fn deadband_holds_between_thresholds() {
        let c = AdaptiveController::new(ControllerConfig::default());
        // Fill between shrink (0.15) and grow (0.5): no action.
        assert_eq!(c.desired_action(&sig("t", 0.3, 0.0, Some(0.0)), 8192, true), None);
        // Above grow fill: grow.
        assert!(matches!(
            c.desired_action(&sig("t", 0.6, 0.0, Some(0.0)), 8192, true),
            Some(AdaptAction::Grow { from: 8192, to: 16384 })
        ));
        // Below shrink fill with a stable mix: shrink.
        assert!(matches!(
            c.desired_action(&sig("t", 0.05, 0.0, Some(0.1)), 8192, true),
            Some(AdaptAction::Shrink { from: 8192, to: 4096 })
        ));
    }

    #[test]
    fn shrink_vetoed_by_churn_loss_and_floor() {
        let c = AdaptiveController::new(ControllerConfig::default());
        // High churn: the mix is moving, hold.
        assert_eq!(c.desired_action(&sig("t", 0.05, 0.0, Some(0.9)), 8192, true), None);
        // First observation (no churn baseline): hold.
        assert_eq!(c.desired_action(&sig("t", 0.05, 0.0, None), 8192, true), None);
        // Loss this epoch: hold.
        let mut lossy = sig("t", 0.05, 0.0, Some(0.0));
        lossy.loss_delta = 7;
        assert_eq!(c.desired_action(&lossy, 8192, true), None);
        // Already at the floor: hold.
        assert_eq!(
            c.desired_action(&sig("t", 0.05, 0.0, Some(0.0)), c.cfg.min_buckets, true),
            None
        );
    }

    #[test]
    fn saturation_grows_and_ceiling_splits() {
        let c = AdaptiveController::new(ControllerConfig::default());
        // Saturation alone (low fill) still grows: clipped counts are
        // an accuracy emergency regardless of occupancy.
        assert!(matches!(
            c.desired_action(&sig("t", 0.1, 0.02, Some(0.0)), 8192, true),
            Some(AdaptAction::Grow { .. })
        ));
        // At the ceiling and splittable: split.
        let max = c.cfg.max_buckets;
        assert!(matches!(
            c.desired_action(&sig("t", 0.9, 0.02, Some(0.0)), max, true),
            Some(AdaptAction::Split { .. })
        ));
        // At the ceiling, unsplittable: stuck, no action.
        assert_eq!(c.desired_action(&sig("t", 0.9, 0.02, Some(0.0)), max, false), None);
    }

    #[test]
    fn heavy_buckets_select_what_a_full_sort_keeps() {
        use flymon_packet::SplitMix64;
        let mut rng = SplitMix64::new(0x70_9c);
        for len in [1usize, 2, 17, 300, 5_000] {
            // With four values a quarter are zeros and ties are
            // everywhere, so the index half of the rule decides.
            for spread in [4u32, 50, u32::MAX] {
                let row: Vec<u32> = (0..len).map(|_| rng.next_u32() % spread).collect();
                let mut sorted: Vec<usize> = (0..len).filter(|&i| row[i] > 0).collect();
                sorted.sort_unstable_by(|&a, &b| row[b].cmp(&row[a]).then(a.cmp(&b)));
                let nonzero = sorted.len();
                for k in [0, 1, nonzero / 2, nonzero.saturating_sub(1), nonzero, nonzero + 1] {
                    let kept = &sorted[..k.min(nonzero)];
                    assert_eq!(heavy_buckets(&row, k), kept, "len {len} spread {spread} k {k}");
                }
            }
        }
    }

    #[test]
    fn heavy_buckets_and_jaccard_behave() {
        let row = [0u32, 5, 0, 9, 2, 9];
        // Ties broken by lower index; zeros never heavy.
        assert_eq!(heavy_buckets(&row, 3), vec![3, 5, 1]);
        assert_eq!(heavy_buckets(&row, 10), vec![3, 5, 1, 4]);
        assert_eq!(heavy_buckets(&[0, 0], 4), Vec::<usize>::new());
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert!((jaccard(&[], &[]) - 1.0).abs() < 1e-12);
        assert!(jaccard(&[1], &[]).abs() < 1e-12);
    }
}
