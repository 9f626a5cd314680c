//! Simulated lossy control channel between controller and switches.
//!
//! Every controller→switch operation the fleet performs (deploys,
//! removes, reallocations, splits, standby syncs, promotions, epoch
//! resets) can be routed through a [`ControlChannel`]: a deterministic,
//! seeded model of an unreliable southbound path that drops, duplicates,
//! reorders and delays commands, and can partition a switch away
//! entirely. Time is *virtual* — a monotonically advancing modeled
//! clock, never slept — so soaks over thousands of commands run in
//! microseconds and replay bit-identically from a seed.
//!
//! Three mechanisms make an unreliable channel safe to drive a
//! transactional control plane over:
//!
//! 1. **Timeout + backoff retries.** The controller retries each
//!    command up to [`RetryPolicy::max_attempts`] times, waiting
//!    `TIMEOUT_MS` of virtual time for each lost leg and backing off
//!    between attempts with seeded jitter
//!    ([`RetryPolicy::backoff_before_jittered`]) so synchronized
//!    failures do not produce synchronized retry storms.
//! 2. **Exactly-once application.** Every command carries a
//!    monotonically increasing transaction id. Each switch keeps a
//!    dedup window of recently applied txns (plus a high watermark as
//!    backstop); a retransmitted or duplicated delivery of an applied
//!    command is *suppressed* and answered from the cached outcome,
//!    never re-applied — verifiable in the WAL, which holds exactly one
//!    record per logical command no matter how many copies arrived.
//! 3. **Fencing terms.** [`ControlChannel::mint_term`] (called by
//!    standby promotion) advances a monotonic fencing epoch. Commands
//!    are stamped with the issuing controller's term; a switch that has
//!    accepted term *T* rejects anything stamped with a term < *T* as
//!    [`FlymonError::Fenced`]. Stale rejects are counted
//!    ([`ChannelStats::stale_rejects`]) and event-logged, never
//!    silently dropped — a partitioned old primary's late writes
//!    surface in the audit trail instead of splitting the fleet.
//!
//! **Outcome determinacy.** [`ControlChannel::invoke`] maintains a
//! strict contract: `Err(ChannelTimeout)` means the command was *never*
//! applied (every copy was lost before reaching the switch), and `Ok`
//! (or a logical apply error) means it was applied *exactly once*. The
//! awkward case — applied but every acknowledgment lost — is resolved
//! the way real controllers resolve it, by an out-of-band outcome probe
//! once the retry budget is exhausted: the cached outcome is returned
//! and counted as [`ChannelStats::reconciled`]. A full partition can
//! never reach that case, because a partitioned switch never applies
//! anything in the first place.
//!
//! Everything the channel does is appended to a deterministic event log
//! ([`ControlChannel::event_log`]): same seed, same command sequence ⇒
//! byte-identical log, which CI diffs to guard determinism.

use std::collections::VecDeque;
use std::fmt;

use flymon::control::TaskHandle;
use flymon::FlymonError;
use flymon_packet::SplitMix64;
use flymon_rmt::fault::RetryPolicy;

/// Switch-side result of an applied control command, cached in the
/// dedup window so duplicate deliveries can be answered without
/// re-applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnResult {
    /// The command produced no handle (remove, reset, sync, promote).
    Unit,
    /// The command produced a task handle (deploy, reallocate).
    Handle(TaskHandle),
}

impl TxnResult {
    /// Extracts the handle, panicking if the command was handle-less —
    /// a controller-side bug, not a channel fault.
    pub fn handle(self) -> TaskHandle {
        match self {
            TxnResult::Handle(h) => h,
            TxnResult::Unit => panic!("control command returned no handle"),
        }
    }
}

/// Scripted per-attempt fate, for exhaustive interleaving sweeps.
///
/// When a script is pushed ([`ControlChannel::push_script`]), each
/// attempt consumes one step instead of rolling the seeded dice; an
/// exhausted script falls back to `Deliver`. Scripts bypass the random
/// drop/dup rolls but still respect partitions and fencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptStep {
    /// Both legs survive: request delivered, reply delivered.
    Deliver,
    /// The request is lost before reaching the switch (not applied).
    DropRequest,
    /// The request is applied but the reply is lost (controller
    /// retries; dedup must suppress the retransmission).
    DropReply,
    /// The request is applied *and* a duplicate copy is delivered
    /// later, out of order (dedup must suppress the copy); the reply
    /// survives.
    DuplicateDeliver,
}

/// Base one-way flight time of a command leg, in virtual ms.
const BASE_DELAY_MS: f64 = 0.1;
/// Uniform extra flight-time jitter per leg, drawn in
/// `[0, DELAY_JITTER_MS)` virtual ms.
const DELAY_JITTER_MS: f64 = 0.05;
/// How long the controller waits for a reply before declaring the
/// attempt lost, in virtual ms.
const TIMEOUT_MS: f64 = 2.0;

/// Fault model of the control channel (its timing is fixed:
/// `BASE_DELAY_MS`, `DELAY_JITTER_MS` and `TIMEOUT_MS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Per-leg loss probability in `0.0..=1.0` (request and reply legs
    /// roll independently).
    pub drop_rate: f64,
    /// Probability that a delivered request is also duplicated in
    /// flight, the copy arriving later and out of order.
    pub dup_rate: f64,
    /// Probability that a request is overtaken in flight and arrives
    /// late (extra delay; observable as out-of-order arrival times in
    /// the event log).
    pub reorder_rate: f64,
    /// Retry budget and backoff schedule per command.
    pub retry: RetryPolicy,
    /// Per-switch dedup window size (applied txns remembered with
    /// their outcomes). The high watermark backstops evictions, so the
    /// window bounds *result caching*, not correctness; see DESIGN.md
    /// for sizing.
    pub dedup_window: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            retry: RetryPolicy::with_attempts(8).with_jitter(0.5),
            dedup_window: 64,
        }
    }
}

impl ChannelConfig {
    /// Validates the configuration: probabilities in `0.0..=1.0`, a
    /// valid retry policy, and a nonzero dedup window.
    pub fn validate(&self) -> Result<(), &'static str> {
        for p in [self.drop_rate, self.dup_rate, self.reorder_rate] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err("channel fault rates must be finite fractions in 0.0..=1.0");
            }
        }
        self.retry.validate()?;
        if self.dedup_window == 0 {
            return Err("dedup_window must hold at least the in-flight command");
        }
        Ok(())
    }
}

/// Counters for everything the channel did. All faults and all
/// suppressions are counted — nothing is silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Logical commands submitted via [`ControlChannel::invoke`].
    pub commands: u64,
    /// Attempts across all commands (≥ `commands`).
    pub attempts: u64,
    /// Retries (attempts beyond each command's first).
    pub retries: u64,
    /// Request legs lost (drops and partitions).
    pub request_drops: u64,
    /// Reply legs lost after the command applied.
    pub reply_drops: u64,
    /// Duplicate copies created in flight.
    pub duplicates: u64,
    /// Deliveries suppressed by the dedup window / watermark
    /// (retransmissions of applied commands and late duplicate copies).
    pub dup_suppressed: u64,
    /// Requests that arrived late (overtaken in flight).
    pub reordered: u64,
    /// Late duplicate copies that died with a partition.
    pub late_dropped: u64,
    /// Commands that exhausted every attempt without ever applying.
    pub timeouts: u64,
    /// Commands resolved by the out-of-band outcome probe (applied, but
    /// every reply lost).
    pub reconciled: u64,
    /// Deliveries rejected for carrying a stale fencing term.
    pub stale_rejects: u64,
    /// Total modeled backoff spent between attempts, in virtual ms.
    pub backoff_ms: f64,
}

/// Per-switch receive-side state: partition flag, accepted fencing
/// term, and the exactly-once dedup window.
#[derive(Debug, Clone)]
struct SwitchLink {
    partitioned: bool,
    term: u64,
    /// Ring of the last `dedup_window` applied txns with their outcomes.
    window: Vec<(u64, Result<TxnResult, FlymonError>)>,
    /// The slot the next outcome overwrites once the ring is full (its
    /// oldest entry).
    oldest: usize,
    watermark: u64,
}

impl SwitchLink {
    fn new() -> Self {
        SwitchLink {
            partitioned: false,
            term: 0,
            window: Vec::new(),
            oldest: 0,
            watermark: 0,
        }
    }

    /// Whether `txn` has already been applied here. Txn ids only rise,
    /// so everything the window holds sits at or below the watermark.
    fn seen(&self, txn: u64) -> bool {
        txn <= self.watermark
    }

    /// The cached outcome of `txn`, while the window still holds it.
    /// Probes newest first: a retransmission asks about the outcome
    /// recorded last.
    fn cached(&self, txn: u64) -> Option<&Result<TxnResult, FlymonError>> {
        let n = self.window.len();
        (1..=n)
            .map(|back| &self.window[(self.oldest + n - back) % n])
            .find(|(t, _)| *t == txn)
            .map(|(_, result)| result)
    }

    fn record(&mut self, txn: u64, result: Result<TxnResult, FlymonError>, window: usize) {
        if self.window.len() < window {
            self.window.push((txn, result));
        } else {
            self.window[self.oldest] = (txn, result);
            self.oldest = (self.oldest + 1) % window;
        }
        self.watermark = self.watermark.max(txn);
    }
}

/// A duplicated request copy still in flight, due to arrive later.
#[derive(Debug, Clone, Copy)]
struct LateCopy {
    due_ms: f64,
    switch: usize,
    txn: u64,
    term: u64,
    op: &'static str,
}

/// One entry of the event log, kept structured: the text
/// ([`ControlChannel::event_log`]) is rendered from it on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    /// Virtual time the line is stamped with.
    t_ms: f64,
    kind: EventKind,
}

/// A command as an event names it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cmd {
    txn: u64,
    op: &'static str,
    switch: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    TermMinted(u64),
    Link { switch: usize, partitioned: bool },
    /// An attempt ended: `how` is the line's verdict.
    Attempt { cmd: Cmd, how: &'static str, attempt: u32, max: u32 },
    /// Anything about a command that carries no numbers.
    Note { cmd: Cmd, what: &'static str },
    LateCopyFenced { cmd: Cmd, term: u64, current: u64 },
    Rejected { cmd: Cmd, term: u64, current: u64 },
    Timeout { cmd: Cmd, max: u32 },
}

impl fmt::Display for Cmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn={} {}->sw{}", self.txn, self.op, self.switch)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3} ", self.t_ms)?;
        match self.kind {
            EventKind::TermMinted(term) => write!(f, "term minted -> {term}"),
            EventKind::Link { switch, partitioned } => {
                let verb = if partitioned { "partitioned" } else { "healed" };
                write!(f, "sw{switch} {verb}")
            }
            EventKind::Attempt { cmd, how, attempt, max } => {
                write!(f, "{cmd} {how} (attempt {attempt}/{max})")
            }
            EventKind::Note { cmd, what } => write!(f, "{cmd} {what}"),
            EventKind::LateCopyFenced { cmd, term, current } => {
                write!(f, "{cmd} late copy fenced (term {term} < {current})")
            }
            EventKind::Rejected { cmd, term, current } => {
                write!(f, "{cmd} REJECTED: stale term {term} < {current}")
            }
            EventKind::Timeout { cmd, max } => {
                write!(f, "{cmd} TIMEOUT after {max} attempts (never applied)")
            }
        }
    }
}

/// The deterministic lossy control channel. See the module docs for
/// the fault model and the exactly-once / fencing contracts.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    cfg: ChannelConfig,
    rng: SplitMix64,
    now_ms: f64,
    term: u64,
    next_txn: u64,
    links: Vec<SwitchLink>,
    pending: Vec<LateCopy>,
    script: VecDeque<ScriptStep>,
    stats: ChannelStats,
    log: Vec<Event>,
}

impl ControlChannel {
    /// A channel to `switches` switches, seeded for deterministic fault
    /// rolls. Fails if the configuration does not validate.
    pub fn new(switches: usize, seed: u64, cfg: ChannelConfig) -> Result<Self, FlymonError> {
        cfg.validate().map_err(FlymonError::InvalidPolicy)?;
        Ok(ControlChannel {
            cfg,
            rng: SplitMix64::new(seed),
            now_ms: 0.0,
            term: 0,
            next_txn: 1,
            links: (0..switches).map(|_| SwitchLink::new()).collect(),
            pending: Vec::new(),
            script: VecDeque::new(),
            stats: ChannelStats::default(),
            log: Vec::new(),
        })
    }

    /// The virtual clock, in modeled milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Advances the virtual clock, delivering any duplicate copies that
    /// come due.
    pub fn advance(&mut self, ms: f64) {
        self.now_ms += ms.max(0.0);
        self.flush_late_copies();
    }

    /// Everything counted so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The controller's current fencing term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Mints the next fencing term (monotonic). Called by standby
    /// promotion; every subsequent command carries the new term and
    /// teaches it to each switch it reaches.
    pub fn mint_term(&mut self) -> u64 {
        self.term += 1;
        self.log(self.now_ms, EventKind::TermMinted(self.term));
        self.term
    }

    /// Overrides the *controller-side* term — the split-brain
    /// simulation hook, impersonating a partitioned stale primary that
    /// still believes in an old term. Switch-side accepted terms are
    /// never rewound.
    pub fn force_term(&mut self, term: u64) {
        self.term = term;
    }

    /// Partitions or heals the link to `switch`. While partitioned,
    /// nothing is delivered in either direction. A switch the channel
    /// has no link to is refused, with nothing logged.
    pub fn set_partitioned(&mut self, switch: usize, partitioned: bool) -> Result<(), FlymonError> {
        self.require_link(switch)?;
        self.log(self.now_ms, EventKind::Link { switch, partitioned });
        self.links[switch].partitioned = partitioned;
        Ok(())
    }

    /// Refuses a switch index past the channel's links, naming it.
    fn require_link(&self, switch: usize) -> Result<(), FlymonError> {
        let n = self.links.len();
        if switch < n {
            return Ok(());
        }
        Err(FlymonError::BadTask(format!(
            "switch {switch} has no control link ({n} links)"
        )))
    }

    /// Heals every partition, returning how many links were down.
    pub fn heal_all(&mut self) -> usize {
        let mut healed = 0;
        for i in 0..self.links.len() {
            if self.links[i].partitioned {
                self.log(self.now_ms, EventKind::Link { switch: i, partitioned: false });
                self.links[i].partitioned = false;
                healed += 1;
            }
        }
        healed
    }

    /// Replaces the fault rates (drop, duplicate, reorder) — the
    /// dup-storm / flap scheduling hook. Rates must be valid fractions.
    pub fn set_rates(&mut self, drop: f64, dup: f64, reorder: f64) -> Result<(), FlymonError> {
        let mut cfg = self.cfg;
        cfg.drop_rate = drop;
        cfg.dup_rate = dup;
        cfg.reorder_rate = reorder;
        cfg.validate().map_err(FlymonError::InvalidPolicy)?;
        self.cfg = cfg;
        Ok(())
    }

    /// The active configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Queues scripted attempt fates (see [`ScriptStep`]); subsequent
    /// attempts consume them in order before falling back to the
    /// seeded dice.
    pub fn push_script<I: IntoIterator<Item = ScriptStep>>(&mut self, steps: I) {
        self.script.extend(steps);
    }

    /// The deterministic event log, oldest line first, rendered from
    /// the structured events the channel keeps.
    pub fn event_log(&self) -> Vec<String> {
        self.log.iter().map(Event::to_string).collect()
    }

    /// Drops accumulated event-log lines (counters are unaffected).
    pub fn clear_event_log(&mut self) {
        self.log.clear();
    }

    fn log(&mut self, t_ms: f64, kind: EventKind) {
        self.log.push(Event { t_ms, kind });
    }

    /// Delivers every pending duplicate copy that has come due. Copies
    /// only exist for *applied* txns, so delivery is always a dedup
    /// suppression (or a fencing reject / partition loss) — never an
    /// application.
    fn flush_late_copies(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let now = self.now_ms;
        let mut due: Vec<LateCopy> = Vec::new();
        self.pending.retain(|c| {
            if c.due_ms <= now {
                due.push(*c);
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| {
            a.due_ms
                .partial_cmp(&b.due_ms)
                .expect("virtual times are finite")
                .then(a.txn.cmp(&b.txn))
        });
        for c in due {
            let cmd = Cmd {
                txn: c.txn,
                op: c.op,
                switch: c.switch,
            };
            let link = &self.links[c.switch];
            let kind = if link.partitioned {
                self.stats.late_dropped += 1;
                EventKind::Note {
                    cmd,
                    what: "late copy lost to partition",
                }
            } else if c.term < link.term {
                self.stats.stale_rejects += 1;
                EventKind::LateCopyFenced {
                    cmd,
                    term: c.term,
                    current: link.term,
                }
            } else {
                debug_assert!(link.seen(c.txn), "late copies exist only for applied txns");
                self.stats.dup_suppressed += 1;
                EventKind::Note {
                    cmd,
                    what: "late duplicate suppressed by dedup window",
                }
            };
            self.log(c.due_ms, kind);
        }
    }

    fn flight_ms(&mut self) -> f64 {
        BASE_DELAY_MS + self.rng.next_f64() * DELAY_JITTER_MS
    }

    /// Routes one controller→switch command through the channel: up to
    /// `retry.max_attempts` attempts with jittered backoff, seeded (or
    /// scripted) drop / duplicate / reorder faults, fencing-term
    /// enforcement and exactly-once application of `apply`.
    ///
    /// `apply` performs the switch-side mutation; it runs **at most
    /// once** regardless of how many copies of the command are
    /// delivered. `Err(ChannelTimeout)` guarantees it never ran; any
    /// other return value (including logical apply errors, which are
    /// cached and replayed to retransmissions like results) is the
    /// outcome of its single run. A switch the channel has no link to
    /// is refused before anything is sent, counted or logged.
    pub fn invoke<F>(
        &mut self,
        switch: usize,
        op: &'static str,
        apply: F,
    ) -> Result<TxnResult, FlymonError>
    where
        F: FnOnce() -> Result<TxnResult, FlymonError>,
    {
        self.require_link(switch)?;
        let txn = self.next_txn;
        self.next_txn += 1;
        let term = self.term;
        self.stats.commands += 1;
        let max = self.cfg.retry.max_attempts.max(1);
        let cmd = Cmd { txn, op, switch };
        let mut apply = Some(apply);
        // The outcome lives in the link's dedup window from the moment
        // the command applies; this only remembers that it did.
        let mut applied = false;
        for attempt in 1..=max {
            if attempt > 1 {
                self.stats.retries += 1;
                let retry = self.cfg.retry;
                let backoff = retry.backoff_before_jittered(attempt, &mut self.rng);
                self.stats.backoff_ms += backoff;
                self.now_ms += backoff;
            }
            self.stats.attempts += 1;
            let step = self.script.pop_front();
            // Request leg.
            let mut flight = self.flight_ms();
            let overtaken = step.is_none() && self.cfg.reorder_rate > 0.0 && self.rng.chance(self.cfg.reorder_rate);
            if overtaken {
                self.stats.reordered += 1;
                flight += 2.0 * BASE_DELAY_MS + self.flight_ms();
            }
            self.now_ms += flight;
            self.flush_late_copies();
            let req_lost = self.links[switch].partitioned
                || match step {
                    Some(s) => s == ScriptStep::DropRequest,
                    None => self.cfg.drop_rate > 0.0 && self.rng.chance(self.cfg.drop_rate),
                };
            if req_lost {
                self.stats.request_drops += 1;
                self.now_ms += TIMEOUT_MS;
                self.log(self.now_ms, EventKind::Attempt { cmd, how: "request lost", attempt, max });
                continue;
            }
            // Delivered: fencing first.
            let current = self.links[switch].term;
            if term < current {
                self.stats.stale_rejects += 1;
                self.log(self.now_ms, EventKind::Rejected { cmd, term, current });
                return Err(FlymonError::Fenced {
                    op,
                    stale_term: term,
                    current_term: current,
                });
            }
            self.links[switch].term = term;
            // Exactly-once application.
            let ok = if self.links[switch].seen(txn) {
                self.stats.dup_suppressed += 1;
                self.log(
                    self.now_ms,
                    EventKind::Note {
                        cmd,
                        what: "retransmission suppressed, cached outcome",
                    },
                );
                self.cached(switch, txn).is_ok()
            } else {
                let r = (apply.take().expect("exactly-once violated: apply ran twice"))();
                let ok = r.is_ok();
                let window = self.cfg.dedup_window;
                self.links[switch].record(txn, r, window);
                ok
            };
            applied = true;
            // In-flight duplication of the (delivered) request.
            let duplicated = match step {
                Some(s) => s == ScriptStep::DuplicateDeliver,
                None => self.cfg.dup_rate > 0.0 && self.rng.chance(self.cfg.dup_rate),
            };
            if duplicated {
                self.stats.duplicates += 1;
                let due_ms = self.now_ms + 2.0 * BASE_DELAY_MS + self.flight_ms();
                self.pending.push(LateCopy {
                    due_ms,
                    switch,
                    txn,
                    term,
                    op,
                });
                self.log(
                    due_ms,
                    EventKind::Note {
                        cmd,
                        what: "duplicate copy scheduled",
                    },
                );
            }
            // Reply leg.
            self.now_ms += self.flight_ms();
            let reply_lost = self.links[switch].partitioned
                || match step {
                    Some(s) => s == ScriptStep::DropReply,
                    None => self.cfg.drop_rate > 0.0 && self.rng.chance(self.cfg.drop_rate),
                };
            if reply_lost {
                self.stats.reply_drops += 1;
                self.now_ms += TIMEOUT_MS;
                self.log(self.now_ms, EventKind::Attempt { cmd, how: "reply lost", attempt, max });
                continue;
            }
            let how = if ok { "ok" } else { "apply-error" };
            self.log(self.now_ms, EventKind::Attempt { cmd, how, attempt, max });
            return self.cached(switch, txn).clone();
        }
        if applied {
            // Applied, but every reply was lost: the controller's
            // out-of-band outcome probe recovers the cached result
            // (see module docs — outcome determinacy).
            self.stats.reconciled += 1;
            self.log(
                self.now_ms,
                EventKind::Note {
                    cmd,
                    what: "reconciled via outcome probe",
                },
            );
            return self.cached(switch, txn).clone();
        }
        self.stats.timeouts += 1;
        self.log(self.now_ms, EventKind::Timeout { cmd, max });
        Err(FlymonError::ChannelTimeout {
            op,
            switch,
            attempts: max,
        })
    }

    /// The outcome `switch` cached for the in-flight `txn`.
    fn cached(&self, switch: usize, txn: u64) -> &Result<TxnResult, FlymonError> {
        self.links[switch]
            .cached(txn)
            .expect("in-flight txn cannot be evicted from its own window")
    }

    /// Broadcasts the controller's current term to every switch with a
    /// no-op command per link, so fencing takes effect fleet-wide after
    /// a promotion rather than lazily on each link's next real command.
    /// Returns how many links acknowledged; partitioned or fully lossy
    /// links simply miss the update (they learn the term whenever the
    /// next command reaches them).
    pub fn broadcast_term(&mut self) -> usize {
        let mut acked = 0;
        for i in 0..self.links.len() {
            if self.invoke(i, "term-sync", || Ok(TxnResult::Unit)).is_ok() {
                acked += 1;
            }
        }
        acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> ControlChannel {
        ControlChannel::new(2, 1, ChannelConfig::default()).unwrap()
    }

    #[test]
    fn lossless_channel_applies_exactly_once() {
        let mut ch = lossless();
        let mut applied = 0;
        let r = ch
            .invoke(0, "noop", || {
                applied += 1;
                Ok(TxnResult::Unit)
            })
            .unwrap();
        assert_eq!(r, TxnResult::Unit);
        assert_eq!(applied, 1);
        assert_eq!(ch.stats().commands, 1);
        assert_eq!(ch.stats().attempts, 1);
        assert!(ch.now_ms() > 0.0, "flight time advances the virtual clock");
    }

    #[test]
    fn partition_times_out_without_applying() {
        let mut ch = lossless();
        ch.set_partitioned(0, true).unwrap();
        let mut applied = 0;
        let err = ch
            .invoke(0, "noop", || {
                applied += 1;
                Ok(TxnResult::Unit)
            })
            .unwrap_err();
        assert!(matches!(err, FlymonError::ChannelTimeout { switch: 0, .. }));
        assert_eq!(applied, 0, "outcome determinacy: timeout => never applied");
        // The other link is unaffected.
        assert!(ch.invoke(1, "noop", || Ok(TxnResult::Unit)).is_ok());
        ch.set_partitioned(0, false).unwrap();
        assert!(ch.invoke(0, "noop", || Ok(TxnResult::Unit)).is_ok());
    }

    #[test]
    fn invoke_refuses_a_switch_without_a_link() {
        // Regression: this used to panic on an `assert!`.
        let mut ch = lossless();
        let mut applied = 0;
        let err = ch
            .invoke(2, "noop", || {
                applied += 1;
                Ok(TxnResult::Unit)
            })
            .unwrap_err();
        assert!(matches!(&err, FlymonError::BadTask(why) if why.contains("switch 2")), "{err:?}");
        assert_eq!(applied, 0);
        assert_eq!(*ch.stats(), ChannelStats::default(), "nothing was sent or counted");
        assert!(ch.event_log().is_empty());
        assert_eq!(ch.now_ms(), 0.0);
        // The refusal burned no transaction id: the next command is txn 1.
        assert!(ch.invoke(1, "noop", || Ok(TxnResult::Unit)).is_ok());
        assert!(ch.event_log()[0].contains("txn=1 noop->sw1"), "{:?}", ch.event_log());
    }

    #[test]
    fn set_partitioned_refuses_a_switch_without_a_link() {
        // Regression: this logged a `Link` event for the missing switch,
        // then panicked indexing its link.
        let mut ch = lossless();
        let err = ch.set_partitioned(5, true).unwrap_err();
        assert!(matches!(&err, FlymonError::BadTask(why) if why.contains("switch 5")), "{err:?}");
        assert!(ch.event_log().is_empty(), "a refusal logs nothing");
        assert_eq!(ch.heal_all(), 0, "no link went down");
        ch.set_partitioned(1, true).unwrap();
        assert_eq!(ch.event_log(), ["t=0.000 sw1 partitioned"]);
    }

    #[test]
    fn dropped_replies_are_absorbed_by_dedup() {
        let mut ch = lossless();
        ch.push_script([ScriptStep::DropReply, ScriptStep::DropReply, ScriptStep::Deliver]);
        let mut applied = 0;
        let r = ch
            .invoke(0, "noop", || {
                applied += 1;
                Ok(TxnResult::Handle(TaskHandle(flymon::task::TaskId(7))))
            })
            .unwrap();
        assert_eq!(applied, 1, "retransmissions must not re-apply");
        assert_eq!(r.handle().0 .0, 7);
        assert_eq!(ch.stats().reply_drops, 2);
        assert_eq!(ch.stats().dup_suppressed, 2);
        assert_eq!(ch.stats().retries, 2);
    }

    #[test]
    fn all_replies_lost_reconciles_instead_of_lying() {
        let cfg = ChannelConfig {
            retry: RetryPolicy::with_attempts(3),
            ..ChannelConfig::default()
        };
        let mut ch = ControlChannel::new(1, 1, cfg).unwrap();
        ch.push_script([ScriptStep::DropReply, ScriptStep::DropReply, ScriptStep::DropReply]);
        let mut applied = 0;
        let r = ch.invoke(0, "noop", || {
            applied += 1;
            Ok(TxnResult::Unit)
        });
        assert_eq!(r, Ok(TxnResult::Unit), "applied => controller learns the outcome");
        assert_eq!(applied, 1);
        assert_eq!(ch.stats().reconciled, 1);
        assert_eq!(ch.stats().timeouts, 0);
    }

    #[test]
    fn stale_term_is_fenced_and_counted() {
        let mut ch = lossless();
        assert!(ch.invoke(0, "noop", || Ok(TxnResult::Unit)).is_ok());
        let new_term = ch.mint_term();
        assert_eq!(ch.broadcast_term(), 2);
        ch.force_term(new_term - 1);
        let mut applied = 0;
        let err = ch
            .invoke(0, "stale-op", || {
                applied += 1;
                Ok(TxnResult::Unit)
            })
            .unwrap_err();
        assert!(
            matches!(err, FlymonError::Fenced { stale_term: 0, current_term: 1, .. }),
            "{err:?}"
        );
        assert_eq!(applied, 0, "fenced commands never touch the switch");
        assert_eq!(ch.stats().stale_rejects, 1);
        assert!(
            ch.event_log().iter().any(|l| l.contains("REJECTED")),
            "stale rejects are audited, never silent"
        );
        // The restored (current) term works again.
        ch.force_term(new_term);
        assert!(ch.invoke(0, "noop", || Ok(TxnResult::Unit)).is_ok());
    }

    #[test]
    fn late_duplicate_copies_are_suppressed_across_commands() {
        let mut ch = lossless();
        ch.push_script([ScriptStep::DuplicateDeliver]);
        assert!(ch.invoke(0, "first", || Ok(TxnResult::Unit)).is_ok());
        assert_eq!(ch.stats().duplicates, 1);
        // The copy is still pending; later traffic (or time) delivers it.
        ch.advance(10.0);
        assert_eq!(ch.stats().dup_suppressed, 1, "late copy deduped, not re-applied");
    }

    #[test]
    fn dedup_window_is_a_ring_backstopped_by_the_watermark() {
        let mut link = SwitchLink::new();
        let handle = |id| Ok(TxnResult::Handle(TaskHandle(flymon::task::TaskId(id))));
        for txn in [3u64, 5, 9] {
            link.record(txn, handle(txn as u32), 2);
        }
        // Two slots: the oldest outcome is gone, its txn still counts
        // as applied; the two newest answer from the cache.
        assert_eq!(link.window.len(), 2);
        assert!(link.seen(3) && link.cached(3).is_none());
        assert_eq!(link.cached(5), Some(&handle(5)));
        assert_eq!(link.cached(9), Some(&handle(9)));
        assert!(!link.seen(10));
        link.record(12, Err(FlymonError::NoSuchTask), 2);
        assert!(link.cached(5).is_none());
        assert_eq!(link.cached(9), Some(&handle(9)));
        assert_eq!(link.cached(12), Some(&Err(FlymonError::NoSuchTask)));
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let run = |seed: u64| {
            let cfg = ChannelConfig {
                drop_rate: 0.3,
                dup_rate: 0.2,
                reorder_rate: 0.2,
                ..ChannelConfig::default()
            };
            let mut ch = ControlChannel::new(3, seed, cfg).unwrap();
            for i in 0..50usize {
                let _ = ch.invoke(i % 3, "noop", || Ok(TxnResult::Unit));
            }
            (*ch.stats(), ch.event_log().to_vec())
        };
        assert_eq!(run(9), run(9), "same seed, same stats and event log");
        assert_ne!(run(9).1, run(10).1, "different seed, different schedule");
    }

    #[test]
    fn config_validation_rejects_degenerate_channels() {
        assert!(ChannelConfig::default().validate().is_ok());
        assert!(ChannelConfig { drop_rate: 1.5, ..ChannelConfig::default() }.validate().is_err());
        assert!(ChannelConfig { dedup_window: 0, ..ChannelConfig::default() }.validate().is_err());
        assert!(ChannelConfig {
            retry: RetryPolicy::with_attempts(3).with_jitter(2.0),
            ..ChannelConfig::default()
        }
        .validate()
        .is_err());
        assert!(matches!(
            ControlChannel::new(1, 0, ChannelConfig { dedup_window: 0, ..ChannelConfig::default() }),
            Err(FlymonError::InvalidPolicy(_))
        ));
    }
}
