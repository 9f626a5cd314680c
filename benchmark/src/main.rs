//! The repository benchmark.
//!
//! ```text
//! flymon-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! flymon-benchmark repeat [--runs <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! flymon-benchmark golden [--golden-path <file>]
//! flymon-benchmark manifest
//! ```
//!
//! `run` executes one workload from this one process and prints, as the
//! last line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; any failed check exits non-zero
//! without that line. See `benchmark/README.md`.

mod alloc;
mod checks;
mod json;
mod ladder;
mod repeat;
mod run;
mod spec;
mod stats;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::obj;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_OUT: &str = "benchmark/out";
const DEFAULT_GOLDEN_PATH: &str = "benchmark/golden.json";

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} cannot be '{v}'")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(stray) => Err(format!("unexpected argument '{stray}'")),
            None => Ok(()),
        }
    }
}

fn run_command(mut args: Args) -> Result<(), String> {
    let trace = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace cannot be '{other}'")),
    };
    let opts = run::Options {
        workload: args.value("--workload")?.ok_or("--workload is required")?,
        seed: args.parsed("--seed")?.unwrap_or(checks::DEFAULT_SEED),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64),
        trace,
        smoke: args.flag("--smoke"),
        out: PathBuf::from(args.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into())),
    };
    args.done()?;
    let line = run::execute(&opts, checks::GOLDEN)?;
    println!("{}", line.compact());
    Ok(())
}

fn repeat_command(mut args: Args) -> Result<bool, String> {
    let opts = repeat::Options {
        runs: args.parsed("--runs")?.unwrap_or(3),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64),
        smoke: args.flag("--smoke"),
    };
    let out = PathBuf::from(args.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into()));
    args.done()?;
    if opts.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    repeat::repeat(&opts, &out)
}

/// Regenerates the golden file; a (workload, seed) where the batch path
/// and the 1-switch fleet path disagree stops it before anything is
/// written.
fn golden_command(mut args: Args) -> Result<(), String> {
    let path = args
        .value("--golden-path")?
        .unwrap_or_else(|| DEFAULT_GOLDEN_PATH.into());
    args.done()?;
    let mut file = Vec::new();
    for name in spec::WORKLOADS.map(|w| w.name) {
        let mut entries = Vec::new();
        for smoke in [false, true] {
            let spec = workloads::spec(name, smoke).expect("a listed workload");
            for seed in checks::GOLDEN_SEEDS {
                let key = checks::golden_key(seed, smoke);
                eprintln!("{name} {key}");
                entries.push((key, run::digests_for(&spec, seed)?.to_json()));
            }
        }
        file.push((name, obj(entries)));
    }
    std::fs::write(&path, obj(file).pretty()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}; rebuild to compile it in");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run_command(args).map(|()| true),
        "repeat" => repeat_command(args),
        "golden" => golden_command(args).map(|()| true),
        "manifest" => args.done().map(|()| {
            print!("{}", spec::manifest().pretty());
            true
        }),
        other => Err(format!(
            "unknown command '{other}'; expected run, repeat, golden or manifest"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_in_any_order() {
        let mut args = Args(
            [
                "--seed",
                "7",
                "--smoke",
                "--workload",
                "replay_mix",
                "--trace",
                "1",
            ]
            .map(String::from)
            .to_vec(),
        );
        assert!(args.flag("--smoke") && !args.flag("--smoke"));
        assert_eq!(args.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.value("--workload"), Ok(Some("replay_mix".into())));
        assert_eq!(args.parsed::<f64>("--seconds"), Ok(None));
        assert_eq!(args.value("--trace"), Ok(Some("1".into())));
        assert!(args.done().is_ok());
        assert!(Args(vec!["--seed".into()]).value("--seed").is_err());
        assert!(Args(vec!["--seed".into(), "x".into()])
            .parsed::<u64>("--seed")
            .is_err());
        assert!(Args(vec!["stray".into()]).done().is_err());
    }
}
