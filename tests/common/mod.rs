//! What the seeded op-sequence generators share — `sequences.rs` over one
//! switch, `fleet_sequences.rs` over a fleet and a streaming runtime: the
//! coverage counter, the per-step `check!`, the run that shrinks a failing
//! script one op at a time and prints it, and what they read of a switch.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use flymon::prelude::*;
use flymon::task::TaskId;
use flymon_rmt::register::Buckets;

/// What a script exercised: per op kind (and per path a seed set must
/// also take), how often it ran and how often it was refused.
pub type Coverage = BTreeMap<String, [usize; 2]>;

/// Counts a run (`n[0]`) and a refusal (`n[1]`) of `kind`, each where true.
pub fn count(coverage: &mut Coverage, kind: &str, n: [bool; 2]) {
    let at = coverage.entry(kind.to_string()).or_default();
    *at = [at[0] + usize::from(n[0]), at[1] + usize::from(n[1])];
}

/// Adds one script's coverage to a seed set's.
pub fn merge(total: &mut Coverage, coverage: Coverage) {
    for (kind, [ran, refused]) in coverage {
        let at = total.entry(kind).or_default();
        *at = [at[0] + ran, at[1] + refused];
    }
}

/// Fails the running script with a formatted reason unless `$cond` holds.
macro_rules! check {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// Drops one element at a time while `fails` still holds, until no
/// single drop keeps it failing.
pub fn shrink<T: Clone>(mut script: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    loop {
        let len = script.len();
        let mut i = 0;
        while i < script.len() {
            let mut candidate = script.clone();
            candidate.remove(i);
            if fails(&candidate) {
                script = candidate;
            } else {
                i += 1;
            }
        }
        if script.len() == len {
            return script;
        }
    }
}

thread_local! {
    /// Set while this thread runs a script whose panic it catches.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per test binary, a panic hook that is silent on a
/// thread while it catches a script's panic and otherwise defers to the
/// hook it wraps, so other tests' panics still print.
fn quiet_while_catching() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(Cell::get) {
                hook(info);
            }
        }));
    });
}

/// Runs `script`, a panic anywhere counting as a failure, and returns
/// what it covered. A failing script is shrunk, then reported as a panic
/// naming `label`, the failure and the shrunk script as `print` renders
/// it. The runs' own panics print nothing: each is a failure the report
/// names, so a failing seed prints one panic, the report.
pub fn run_or_shrink<T: Clone>(
    label: &str,
    script: Vec<T>,
    run: impl Fn(&[T]) -> Result<Coverage, String>,
    print: impl Fn(&[T]) -> String,
) -> Coverage {
    quiet_while_catching();
    let try_run = |s: &[T]| {
        CATCHING.with(|c| c.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| run(s)));
        CATCHING.with(|c| c.set(false));
        result.unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
            Err(format!("panicked: {:?}", text.or_else(|| panic.downcast_ref::<String>().cloned())))
        })
    };
    try_run(&script).unwrap_or_else(|first| {
        let shrunk = shrink(script, |s| try_run(s).is_err());
        let why = try_run(&shrunk).err().unwrap_or(first);
        panic!("{label}: {why}\n{}", print(&shrunk))
    })
}

/// An op's kind: its variant's name.
pub fn kind(op: &impl Debug) -> String {
    format!("{op:?}").split(['(', ' ']).next().unwrap_or_default().to_string()
}

/// Live tasks in id order, found through the installed bindings (the
/// audit holds bindings and task records to each other).
pub fn live(fm: &FlyMon) -> Vec<TaskHandle> {
    let cmus = fm.groups().iter().flat_map(|g| g.cmus());
    let mut ids: Vec<TaskId> = cmus.flat_map(|c| c.bindings().iter().map(|b| b.task)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(TaskHandle).collect()
}

/// Every register's buckets, in its own cells.
pub fn registers(fm: &FlyMon) -> Vec<Buckets<'_>> {
    let cmus = fm.groups().iter().flat_map(|g| g.cmus());
    cmus.map(|c| c.register().read_range(0, c.register().len()).unwrap()).collect()
}
