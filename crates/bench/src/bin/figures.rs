//! Regenerates the paper's tables and figures and checks their shapes.
//!
//! ```sh
//! figures --list                  # scenario names
//! figures fig14a tab03            # print some (a unique prefix is enough)
//! figures --all --out results     # rewrite results/*.txt
//! ```
//!
//! Exits 1 if a claim is violated, 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use flymon_bench::{run, Scale, Scenario, SCENARIOS};

const USAGE: &str = "usage: figures --list | [--all | <name>...] [--out <dir>]";

fn main() -> ExitCode {
    let mut selected: Vec<&Scenario> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for s in SCENARIOS {
                    println!("{}", s.name);
                }
                return ExitCode::SUCCESS;
            }
            "--all" => selected = SCENARIOS.iter().collect(),
            "--out" => match args.next() {
                Some(dir) => out = Some(dir.into()),
                None => return usage("--out needs a directory"),
            },
            name => {
                let mut matches = SCENARIOS.iter().filter(|s| s.name.starts_with(name));
                match (matches.next(), matches.next()) {
                    (Some(s), None) => selected.push(s),
                    (None, _) => return usage(&format!("no scenario starts with `{name}`")),
                    (Some(_), Some(_)) => return usage(&format!("`{name}` is ambiguous")),
                }
            }
        }
    }
    if selected.is_empty() {
        return usage("nothing selected");
    }
    match run(&selected, Scale::Full, out.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("figures: a claim is violated");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("figures: {problem}\n{USAGE}");
    ExitCode::from(2)
}
