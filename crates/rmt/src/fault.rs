//! Deterministic fault injection for install-time operations.
//!
//! FlyMon's reconfiguration story only holds if a deployment that fails
//! halfway — a rejected rule install, a dead CMU group, a flaky
//! southbound channel — leaves the pipeline exactly as it was. This
//! module supplies the *failures*: a seedable [`FaultPlan`] that judges
//! every install-time operation (rule installs, buddy-descriptor writes,
//! register writes) and can be armed to fail the Nth op, a whole class of
//! ops, every op touching a dead group, a random fraction of attempts, or
//! the first k attempts of every op (transient faults).
//!
//! The control plane executes each op through [`FaultPlan::execute`],
//! which also applies a [`RetryPolicy`]: bounded attempts with modeled
//! exponential backoff. The backoff is *modeled* time — it is returned in
//! [`OpCost`] and folded into the install-latency accounting, never
//! slept.
//!
//! Everything is deterministic given the seed: the same plan over the
//! same op sequence produces the same verdicts, so rollback tests can
//! sweep "fail exactly the Nth op" exhaustively.

use crate::rules::RuleKind;
use flymon_packet::SplitMix64;

/// The classes of install-time operations a [`FaultPlan`] can interdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstallOpKind {
    /// Installing (or deleting) a runtime rule of the given kind.
    Rule(RuleKind),
    /// Writing a partition descriptor (buddy-allocator commit).
    BuddyWrite,
    /// Writing register buckets (partition clear / restore).
    RegisterWrite,
}

impl std::fmt::Display for InstallOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallOpKind::Rule(RuleKind::TableEntry) => write!(f, "table-entry rule"),
            InstallOpKind::Rule(RuleKind::HashMask) => write!(f, "hash-mask rule"),
            InstallOpKind::BuddyWrite => write!(f, "buddy write"),
            InstallOpKind::RegisterWrite => write!(f, "register write"),
        }
    }
}

/// A failed install-time operation: which op, where, and after how many
/// attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallError {
    /// 1-based global index of the op in the plan's op sequence.
    pub op_index: u64,
    /// What class of operation failed.
    pub kind: InstallOpKind,
    /// The CMU group the op touched.
    pub group: usize,
    /// Attempts made (≥ 1; > 1 means retries were exhausted too).
    pub attempts: u32,
    /// Human-readable cause.
    pub reason: &'static str,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "install op #{} ({} on group {}) failed after {} attempt(s): {}",
            self.op_index, self.kind, self.group, self.attempts, self.reason
        )
    }
}

impl std::error::Error for InstallError {}

/// Bounded retry-with-backoff for install ops.
///
/// `max_attempts` includes the first try; the k-th retry waits
/// `backoff_ms * multiplier^(k-1)` of *modeled* time, optionally spread
/// by seeded `jitter` (see [`RetryPolicy::backoff_before_jittered`]) so
/// that many ops failing together do not retry in lockstep. The default
/// is one attempt and no backoff — faults surface immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per op (≥ 1).
    pub max_attempts: u32,
    /// Modeled backoff before the first retry, in milliseconds.
    pub backoff_ms: f64,
    /// Exponential growth factor for successive backoffs.
    pub multiplier: f64,
    /// Jitter fraction in `0.0..=1.0`: each backoff is scaled by a
    /// seeded uniform factor in `[1 - jitter, 1]`. `0.0` (the default)
    /// reproduces the pure exponential schedule bit-for-bit and draws
    /// nothing from the generator.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0.0,
            multiplier: 2.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Builds a policy after checking it, rejecting configurations that
    /// would otherwise fail (or spin) deep inside an install sequence:
    /// zero attempts, and non-finite or negative backoff parameters.
    pub fn checked(max_attempts: u32, backoff_ms: f64, multiplier: f64) -> Result<Self, &'static str> {
        let policy = RetryPolicy {
            max_attempts,
            backoff_ms,
            multiplier,
            jitter: 0.0,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Returns the policy with the given jitter fraction. The result
    /// still has to pass [`RetryPolicy::validate`] (called by every
    /// consumer that accepts a policy), which rejects jitter outside
    /// `0.0..=1.0`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Checks an already-constructed policy (the fields are public, so a
    /// literal can bypass [`RetryPolicy::checked`]). The control plane
    /// calls this before accepting a policy, turning a latent
    /// mid-transaction failure into an immediate configuration error.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1 (it counts the first try)");
        }
        if !self.backoff_ms.is_finite() || self.backoff_ms < 0.0 {
            return Err("backoff_ms must be finite and non-negative");
        }
        if !self.multiplier.is_finite() || self.multiplier < 0.0 {
            return Err("multiplier must be finite and non-negative");
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err("jitter must be a finite fraction in 0.0..=1.0");
        }
        Ok(())
    }

    /// A policy with `max_attempts` tries and 1 ms initial backoff
    /// doubling per retry.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_ms: 1.0,
            multiplier: 2.0,
            jitter: 0.0,
        }
    }

    /// Modeled backoff before attempt `attempt` (1-based; attempt 1 is
    /// free).
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.backoff_ms * self.multiplier.powi(attempt as i32 - 2)
        }
    }

    /// Like [`RetryPolicy::backoff_before`], scaled by a seeded uniform
    /// factor in `[1 - jitter, 1]` drawn from `rng`. The returned value
    /// is the *exact* modeled wait — callers fold it into their latency
    /// accounting as-is, so the books stay balanced to the bit. With
    /// `jitter == 0.0` (or a zero base backoff) nothing is drawn and the
    /// deterministic schedule is returned unchanged, so pre-jitter seeds
    /// reproduce identical fault streams.
    pub fn backoff_before_jittered(&self, attempt: u32, rng: &mut SplitMix64) -> f64 {
        let base = self.backoff_before(attempt);
        if base == 0.0 || self.jitter == 0.0 {
            return base;
        }
        base * (1.0 - self.jitter * rng.next_f64())
    }
}

/// What one successfully executed op cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Attempts used (1 = no retry).
    pub attempts: u32,
    /// Total modeled backoff spent on retries, in milliseconds.
    pub backoff_ms: f64,
}

/// A deterministic, seedable schedule of install-op faults.
///
/// All knobs compose: an op fails an attempt if *any* armed condition
/// matches it. `fail_nth`, `fail_kind` and `kill_group` are *permanent*
/// (every attempt fails); `transient` fails only the first k attempts of
/// each op; `fail_probability` is an independent per-attempt coin from
/// the seeded generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    fail_nth: Option<u64>,
    fail_kinds: Vec<InstallOpKind>,
    dead_groups: Vec<usize>,
    fail_probability: f64,
    transient_failures: u32,
    rng: SplitMix64,
    ops_seen: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (nothing fails) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            fail_nth: None,
            fail_kinds: Vec::new(),
            dead_groups: Vec::new(),
            fail_probability: 0.0,
            transient_failures: 0,
            rng: SplitMix64::new(seed),
            ops_seen: 0,
        }
    }

    /// Permanently fail the `n`-th op (1-based) seen by this plan.
    pub fn fail_nth(mut self, n: u64) -> Self {
        self.fail_nth = Some(n);
        self
    }

    /// Permanently fail every op of `kind`.
    pub fn fail_kind(mut self, kind: InstallOpKind) -> Self {
        self.fail_kinds.push(kind);
        self
    }

    /// Mark a CMU group dead: every op touching it fails.
    pub fn kill_group(mut self, group: usize) -> Self {
        self.dead_groups.push(group);
        self
    }

    /// Fail each attempt independently with probability `p`.
    pub fn fail_probability(mut self, p: f64) -> Self {
        self.fail_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Fail the first `k` attempts of every op, then let it succeed —
    /// the flaky-channel model a retry policy is meant to absorb.
    pub fn transient(mut self, k: u32) -> Self {
        self.transient_failures = k;
        self
    }

    /// Revive a previously killed group (fleet repair).
    pub fn revive_group(&mut self, group: usize) {
        self.dead_groups.retain(|&g| g != group);
    }

    /// Ops judged so far (the op counter persists while the plan is
    /// armed, across deploy/remove calls).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Judges one attempt. `op_index` is 1-based and assigned once per
    /// op; retries re-ask with the same index and a higher `attempt`.
    fn judge(
        &mut self,
        op_index: u64,
        attempt: u32,
        kind: InstallOpKind,
        group: usize,
    ) -> Result<(), &'static str> {
        if self.fail_nth == Some(op_index) {
            return Err("fault plan: scheduled Nth-op failure");
        }
        if self.fail_kinds.contains(&kind) {
            return Err("fault plan: op kind is failed");
        }
        if self.dead_groups.contains(&group) {
            return Err("fault plan: CMU group is dead");
        }
        if attempt <= self.transient_failures {
            return Err("fault plan: transient fault");
        }
        if self.fail_probability > 0.0 && self.rng.chance(self.fail_probability) {
            return Err("fault plan: random fault");
        }
        Ok(())
    }

    /// Executes one modeled install op under `policy`: assigns the next
    /// op index, judges up to `policy.max_attempts` attempts, and
    /// returns the cost on success or the exhausted [`InstallError`].
    pub fn execute(
        &mut self,
        kind: InstallOpKind,
        group: usize,
        policy: &RetryPolicy,
    ) -> Result<OpCost, InstallError> {
        self.ops_seen += 1;
        let op_index = self.ops_seen;
        let max = policy.max_attempts.max(1);
        let mut backoff_ms = 0.0;
        let mut last_reason = "unreachable";
        for attempt in 1..=max {
            backoff_ms += policy.backoff_before_jittered(attempt, &mut self.rng);
            match self.judge(op_index, attempt, kind, group) {
                Ok(()) => {
                    return Ok(OpCost {
                        attempts: attempt,
                        backoff_ms,
                    })
                }
                Err(reason) => last_reason = reason,
            }
        }
        Err(InstallError {
            op_index,
            kind,
            group,
            attempts: max,
            reason: last_reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OP: InstallOpKind = InstallOpKind::Rule(RuleKind::TableEntry);

    #[test]
    fn empty_plan_permits_everything() {
        let mut plan = FaultPlan::new(1);
        for _ in 0..100 {
            let cost = plan.execute(OP, 0, &RetryPolicy::default()).unwrap();
            assert_eq!(cost.attempts, 1);
            assert_eq!(cost.backoff_ms, 0.0);
        }
        assert_eq!(plan.ops_seen(), 100);
    }

    #[test]
    fn nth_op_fails_permanently() {
        let mut plan = FaultPlan::new(1).fail_nth(3);
        let policy = RetryPolicy::with_attempts(4);
        assert!(plan.execute(OP, 0, &policy).is_ok());
        assert!(plan.execute(OP, 0, &policy).is_ok());
        let err = plan.execute(OP, 0, &policy).unwrap_err();
        assert_eq!(err.op_index, 3);
        assert_eq!(err.attempts, 4, "retries cannot save a permanent fault");
        // Ops after the Nth succeed again.
        assert!(plan.execute(OP, 0, &policy).is_ok());
    }

    #[test]
    fn kind_and_group_faults() {
        let mut plan = FaultPlan::new(1)
            .fail_kind(InstallOpKind::Rule(RuleKind::HashMask))
            .kill_group(2);
        let p = RetryPolicy::default();
        assert!(plan.execute(OP, 0, &p).is_ok());
        assert!(plan
            .execute(InstallOpKind::Rule(RuleKind::HashMask), 0, &p)
            .is_err());
        assert!(plan.execute(OP, 2, &p).is_err());
        assert!(plan.execute(InstallOpKind::BuddyWrite, 2, &p).is_err());
        plan.revive_group(2);
        assert!(plan.execute(OP, 2, &p).is_ok());
    }

    #[test]
    fn transient_fault_is_absorbed_by_retries() {
        let mut plan = FaultPlan::new(1).transient(2);
        // One attempt: fails.
        assert!(plan.execute(OP, 0, &RetryPolicy::default()).is_err());
        // Three attempts: third succeeds, with backoff 1 + 2 ms.
        let cost = plan.execute(OP, 0, &RetryPolicy::with_attempts(3)).unwrap();
        assert_eq!(cost.attempts, 3);
        assert!((cost.backoff_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_ms: 2.0,
            multiplier: 3.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_before(1), 0.0);
        assert_eq!(p.backoff_before(2), 2.0);
        assert_eq!(p.backoff_before(3), 6.0);
        assert_eq!(p.backoff_before(4), 18.0);
    }

    #[test]
    fn jittered_backoff_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy::with_attempts(6).with_jitter(0.5);
        let draws = |seed: u64| -> Vec<f64> {
            let mut rng = SplitMix64::new(seed);
            (1..=6).map(|a| p.backoff_before_jittered(a, &mut rng)).collect()
        };
        let a = draws(42);
        assert_eq!(a[0], 0.0, "attempt 1 is free, jitter or not");
        for (i, &b) in a.iter().enumerate().skip(1) {
            let base = p.backoff_before(i as u32 + 1);
            assert!(b <= base && b >= base * 0.5, "attempt {}: {b} not in [{}, {base}]", i + 1, base * 0.5);
        }
        assert_eq!(a, draws(42), "same seed, same jittered schedule");
        assert_ne!(a, draws(43), "different seed, spread-out retries");
        // jitter = 0 draws nothing: a shared rng stream is unperturbed.
        let mut rng = SplitMix64::new(7);
        let before = rng;
        let plain = RetryPolicy::with_attempts(4);
        assert_eq!(plain.backoff_before_jittered(3, &mut rng), plain.backoff_before(3));
        assert_eq!(rng, before, "zero jitter must not consume randomness");
    }

    #[test]
    fn jitter_validation_and_exact_cost_accounting() {
        assert!(RetryPolicy::checked(3, 1.0, 2.0).unwrap().with_jitter(0.25).validate().is_ok());
        assert!(RetryPolicy::with_attempts(3).with_jitter(1.5).validate().is_err());
        assert!(RetryPolicy::with_attempts(3).with_jitter(-0.1).validate().is_err());
        assert!(RetryPolicy::with_attempts(3).with_jitter(f64::NAN).validate().is_err());
        // The OpCost books record the actual jittered waits: replaying
        // the same seed reproduces the sum exactly, and it is bounded by
        // the unjittered schedule from above and its halved form below.
        let policy = RetryPolicy::with_attempts(3).with_jitter(0.5);
        let cost = FaultPlan::new(9)
            .transient(2)
            .execute(OP, 0, &policy)
            .unwrap();
        let replay = FaultPlan::new(9)
            .transient(2)
            .execute(OP, 0, &policy)
            .unwrap();
        assert_eq!(cost.attempts, 3);
        assert_eq!(cost.backoff_ms, replay.backoff_ms, "modeled latency is seed-exact");
        assert!(cost.backoff_ms <= 3.0 && cost.backoff_ms >= 1.5, "got {}", cost.backoff_ms);
    }

    #[test]
    fn checked_policy_rejects_degenerate_configurations() {
        assert!(RetryPolicy::checked(3, 1.0, 2.0).is_ok());
        assert!(RetryPolicy::checked(1, 0.0, 0.0).is_ok(), "no-retry, no-backoff is valid");
        assert!(RetryPolicy::checked(0, 1.0, 2.0).is_err(), "zero attempts never executes");
        assert!(RetryPolicy::checked(3, f64::NAN, 2.0).is_err());
        assert!(RetryPolicy::checked(3, f64::INFINITY, 2.0).is_err());
        assert!(RetryPolicy::checked(3, -1.0, 2.0).is_err());
        assert!(RetryPolicy::checked(3, 1.0, f64::NAN).is_err());
        assert!(RetryPolicy::checked(3, 1.0, -2.0).is_err());
        // validate() catches a hand-built literal too.
        let bad = RetryPolicy {
            max_attempts: 0,
            backoff_ms: 1.0,
            multiplier: 2.0,
            ..RetryPolicy::default()
        };
        assert!(bad.validate().is_err());
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::with_attempts(5).validate().is_ok());
    }

    #[test]
    fn probabilistic_faults_are_deterministic_given_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::new(seed).fail_probability(0.3);
            (0..200)
                .map(|_| plan.execute(OP, 0, &RetryPolicy::default()).is_ok())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same verdicts");
        assert_ne!(run(7), run(8), "different seed, different verdicts");
        let ok = run(7).iter().filter(|&&b| b).count();
        assert!((100..180).contains(&ok), "~70% should pass, got {ok}");
    }

    #[test]
    fn error_display_names_the_op() {
        let mut plan = FaultPlan::new(1).kill_group(4);
        let err = plan
            .execute(InstallOpKind::RegisterWrite, 4, &RetryPolicy::default())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("register write"), "{msg}");
        assert!(msg.contains("group 4"), "{msg}");
    }
}
