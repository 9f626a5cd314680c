//! `repeat`: the benchmark's own repeatability check. Two sets of runs
//! of the same code must agree within the bounds the benchmark fixes
//! for everyone else.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

pub struct Options {
    /// Runs per set (at least two, for the quartiles).
    pub runs: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// One untraced run in a child process (one workload, one process, as
/// everywhere else); returns its metrics by name.
fn child_run(
    exe: &Path,
    out: &Path,
    workload: &str,
    seed: u64,
    opts: &Options,
) -> Result<Vec<(String, f64)>, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = Json::parse(stdout.lines().last().unwrap_or(""))?;
    if line.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} reported an incorrect run"));
    }
    let metrics = line.get("metrics").ok_or("no metrics in the result line")?;
    metrics
        .entries()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or(format!("{name} has no value"))
        })
        .collect()
}

/// Runs both sets and prints the table; `Ok(false)` when some gap lies
/// outside its bound.
pub fn repeat(opts: &Options, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for (set, of_set) in values.iter_mut().enumerate() {
        for (workload, of_workload) in WORKLOADS.iter().zip(of_set) {
            for seed in 1..=opts.runs {
                eprintln!("set {} {} seed {seed}", set + 1, workload.name);
                let metrics = child_run(&exe, out, workload.name, seed, opts)?;
                for (def, of_metric) in END_TO_END.iter().zip(of_workload.iter_mut()) {
                    let value = metrics.iter().find(|(name, _)| name == def.name);
                    let value = value.ok_or(format!("{} missing from the run", def.name))?.1;
                    of_metric.push(value);
                }
            }
        }
    }
    println!(
        "| workload | metric | unit | set 1 median (q1..q3) | set 2 median (q1..q3) | spreads | gap | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let cell = |set: usize| {
                let v = &values[set][w][m];
                let (q1, q3) = quartiles(v);
                (median(v), format!("{:.4} ({q1:.4}..{q3:.4})", median(v)))
            };
            let ((first, first_cell), (second, second_cell)) = (cell(0), cell(1));
            let gap = (second - first).abs() / first;
            let verdict = if gap > def.bound { " OUTSIDE" } else { "" };
            within &= gap <= def.bound;
            println!(
                "| {} | {} | {} | {first_cell} | {second_cell} | {:.2}% {:.2}% | {:.2}%{verdict} | {:.0}% |",
                workload.name,
                def.name,
                def.unit,
                spread(&values[0][w][m]) * 100.0,
                spread(&values[1][w][m]) * 100.0,
                gap * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(within)
}
