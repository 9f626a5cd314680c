//! The interactive FlyMon control plane.
//!
//! The paper's artifact ships "an interactive control plane framework";
//! this crate is its equivalent for the simulated switch: a small
//! command language to deploy, feed, query, reconfigure and retire
//! measurement tasks. The REPL in `main.rs` is a thin loop over
//! [`Session::execute`], which makes every command unit-testable.
//!
//! `deploy` takes a task in the one task grammar, `TaskDefinition`'s
//! `FromStr` (`flymon::task`), and `list` prints each task in it, so the
//! text before a `list` line's ` | ` deploys again as it stands.
//!
//! ```text
//! flymon> deploy hh key=SrcIP attr=frequency mem=16384 alg=cms d=3
//! deployed 'hh' as CMS (d=3) (task #1, 21.3 ms modeled install, 16384 buckets/row x 3 rows)
//! flymon> list
//! hh key=SrcIP attr=frequency mem=16384 alg=cms d=3 | CMS (d=3), 3 rows x 16384 buckets
//! flymon> gen flows=10000 packets=200000 seed=7
//! flymon> run
//! flymon> query hh 10.1.2.3
//! flymon> remove hh
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;

use flymon::prelude::*;
use flymon_packet::{parse_ipv4, KeySpec, Packet};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::GroundTruth;

/// An interactive session: one switch, named tasks, a loaded trace.
pub struct Session {
    switch: FlyMon,
    tasks: HashMap<String, TaskHandle>,
    trace: Vec<Packet>,
}

/// Outcome of one command.
pub enum Outcome {
    /// Text to print.
    Text(String),
    /// Terminate the session.
    Quit,
}

impl Default for Session {
    fn default() -> Self {
        Self::new(FlyMonConfig {
            groups: 4,
            buckets_per_cmu: 65536,
            ..FlyMonConfig::default()
        })
    }
}

impl Session {
    /// Creates a session over a switch with the given geometry.
    pub fn new(config: FlyMonConfig) -> Self {
        Session {
            switch: FlyMon::new(config),
            tasks: HashMap::new(),
            trace: Vec::new(),
        }
    }

    /// Executes one command line; returns printable output or `Quit`.
    pub fn execute(&mut self, line: &str) -> Outcome {
        match self.dispatch(line) {
            Ok(Some(text)) => Outcome::Text(text),
            Ok(None) => Outcome::Quit,
            Err(msg) => Outcome::Text(format!("error: {msg}")),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<Option<String>, String> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(Some(String::new()));
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => Ok(Some(HELP.to_string())),
            "quit" | "exit" => Ok(None),
            "deploy" => self.cmd_deploy(&args).map(Some),
            "remove" => self.cmd_remove(&args).map(Some),
            "realloc" => self.cmd_realloc(&args).map(Some),
            "list" => Ok(Some(self.cmd_list())),
            "stats" => Ok(Some(self.cmd_stats())),
            "map" => Ok(Some(self.cmd_map())),
            "gen" => self.cmd_gen(&args).map(Some),
            "load" => self.cmd_load(&args).map(Some),
            "run" => self.cmd_run().map(Some),
            "reset" => self.cmd_reset(&args).map(Some),
            "query" => self.cmd_query(&args).map(Some),
            "topk" => self.cmd_topk(&args).map(Some),
            "cardinality" => self.cmd_cardinality(&args).map(Some),
            "entropy" => self.cmd_entropy(&args).map(Some),
            "similarity" => self.cmd_similarity(&args).map(Some),
            "save" => self.cmd_save(&args).map(Some),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        }
    }

    fn handle(&self, name: &str) -> Result<TaskHandle, String> {
        self.tasks
            .get(name)
            .copied()
            .ok_or_else(|| format!("no task named '{name}'"))
    }

    fn cmd_deploy(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args
            .first()
            .ok_or("usage: deploy <name> key=<key> attr=<attr> ... (see 'help')")?;
        if self.tasks.contains_key(*name) {
            return Err(format!("task '{name}' already exists"));
        }
        let def: TaskDefinition = args
            .join(" ")
            .parse()
            .map_err(|e: FlymonError| e.to_string())?;
        let h = self.switch.deploy(&def).map_err(|e| e.to_string())?;
        let task = self.switch.task(h).map_err(|e| e.to_string())?;
        let out = format!(
            "deployed '{name}' as {} (task #{}, {:.1} ms modeled install, {} buckets/row x {} rows)",
            task.algorithm.name(),
            h.0 .0,
            task.install.latency_ms(),
            task.rows[0].size,
            task.rows.len(),
        );
        self.tasks.insert(def.name, h);
        Ok(out)
    }

    fn cmd_remove(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args.first().ok_or("usage: remove <name>")?;
        let h = self.handle(name)?;
        self.switch.remove(h).map_err(|e| e.to_string())?;
        self.tasks.remove(*name);
        Ok(format!("removed '{name}'"))
    }

    fn cmd_realloc(&mut self, args: &[&str]) -> Result<String, String> {
        let (name, mem) = match args {
            [n, m] => (*n, m.parse::<usize>().map_err(|_| "bad bucket count")?),
            _ => return Err("usage: realloc <name> <buckets>".into()),
        };
        let h = self.handle(name)?;
        let new_h = self
            .switch
            .reallocate_memory(h, mem)
            .map_err(|e| e.to_string())?;
        self.tasks.insert(name.to_string(), new_h);
        let size = self.switch.task(new_h).map_err(|e| e.to_string())?.rows[0].size;
        Ok(format!(
            "'{name}' reallocated to {size} buckets/row (fresh instance)"
        ))
    }

    fn cmd_list(&self) -> String {
        if self.tasks.is_empty() {
            return "no tasks deployed".to_string();
        }
        let mut names: Vec<&String> = self.tasks.keys().collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            if let Ok(t) = self.switch.task(self.tasks[name]) {
                let (alg, rows, size) = (t.algorithm.name(), t.rows.len(), t.rows[0].size);
                let _ = writeln!(out, "{} | {alg}, {rows} rows x {size} buckets", t.def);
            }
        }
        out.trim_end().to_string()
    }

    fn cmd_stats(&self) -> String {
        let mut out = format!(
            "switch: {} groups, {} free CMUs, {} free buckets; {} tasks; \
             {} packets processed; {:.1} ms cumulative install latency\n\
             hardware footprint (Tofino model):",
            self.switch.config().groups,
            self.switch.free_cmus(),
            self.switch.free_buckets(),
            self.tasks.len(),
            self.switch.packets_processed(),
            self.switch.total_install_ms(),
        );
        let model = flymon_rmt::resources::TofinoModel::default();
        for (kind, frac) in self.switch.resource_utilization(&model) {
            let _ = write!(out, " {}={:.1}%", kind.name(), frac * 100.0);
        }
        out
    }

    /// Renders the data-plane occupancy map: per group, the hash-unit
    /// masks and each CMU's partitions.
    fn cmd_map(&self) -> String {
        // Reverse map: (group, cmu) -> [(name, offset, size)].
        type PartitionMap = HashMap<(usize, usize), Vec<(String, usize, usize)>>;
        let mut partitions: PartitionMap = HashMap::new();
        for (name, &h) in &self.tasks {
            if let Ok(t) = self.switch.task(h) {
                for row in &t.rows {
                    partitions.entry((row.group, row.cmu)).or_default().push((
                        name.clone(),
                        row.offset,
                        row.size,
                    ));
                }
            }
        }
        let mut out = String::new();
        for (g, group) in self.switch.groups().iter().enumerate() {
            let units: Vec<String> = group
                .units()
                .iter()
                .map(|u| u.mask().map_or("-".to_string(), KeySpec::to_string))
                .collect();
            let _ = writeln!(out, "group {g}: hash units [{}]", units.join(", "));
            for c in 0..group.cmus().len() {
                let mut spans = partitions.remove(&(g, c)).unwrap_or_default();
                spans.sort_by_key(|&(_, off, _)| off);
                let rendered: Vec<String> = spans
                    .iter()
                    .map(|(n, off, size)| format!("{n}@{off}+{size}"))
                    .collect();
                let used: usize = spans.iter().map(|&(_, _, s)| s).sum();
                let _ = writeln!(
                    out,
                    "  cmu {c}: [{}] free {}",
                    rendered.join(" "),
                    self.switch.config().buckets_per_cmu - used
                );
            }
        }
        out.trim_end().to_string()
    }

    fn cmd_gen(&mut self, args: &[&str]) -> Result<String, String> {
        let kv = parse_kv(args)?;
        if let Some(k) = kv.keys().find(|k| !GEN_OPTIONS.contains(k)) {
            return Err(format!(
                "unknown gen option '{k}' (have {})",
                GEN_OPTIONS.join(", ")
            ));
        }
        // Every number is checked here: the generator asserts on an
        // empty flow set or time span, and allocates what it is told.
        let get = |k: &str, default: u64, min: u64, max: u64| -> Result<u64, String> {
            let v = match kv.get(k) {
                Some(v) => v.parse().map_err(|_| format!("bad {k}"))?,
                None => default,
            };
            if (min..=max).contains(&v) {
                Ok(v)
            } else {
                Err(format!("{k} must be between {min} and {max}"))
            }
        };
        let duration_ns = get("duration_ms", 1_000, 1, u64::MAX)?
            .checked_mul(1_000_000)
            .ok_or("duration_ms overflows 64-bit nanoseconds")?;
        let cfg = TraceConfig {
            flows: get("flows", 10_000, 1, MAX_GEN_FLOWS)? as usize,
            packets: get("packets", 200_000, 0, MAX_GEN_PACKETS)?,
            zipf_alpha: 1.1,
            duration_ns,
            seed: get("seed", 1, 0, u64::MAX)?,
        };
        self.trace = TraceGenerator::new(cfg.seed).wide_like(&cfg);
        Ok(format!(
            "generated {} packets over {} flows",
            self.trace.len(),
            cfg.flows
        ))
    }

    fn cmd_load(&mut self, args: &[&str]) -> Result<String, String> {
        let path = args.first().ok_or("usage: load <trace.csv>")?;
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        self.trace = flymon_traffic::io::read_trace(std::io::BufReader::new(file))
            .map_err(|e| e.to_string())?;
        Ok(format!("loaded {} packets from {path}", self.trace.len()))
    }

    fn cmd_run(&mut self) -> Result<String, String> {
        if self.trace.is_empty() {
            return Err("no trace loaded (use 'gen' or 'load')".into());
        }
        self.switch.process_batch(&self.trace);
        Ok(format!("processed {} packets", self.trace.len()))
    }

    fn cmd_reset(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args.first().ok_or("usage: reset <name>")?;
        let h = self.handle(name)?;
        self.switch.reset_task(h).map_err(|e| e.to_string())?;
        Ok(format!("'{name}' buckets cleared"))
    }

    /// Builds a probe packet from `src [dst [sport dport]]`, 0 where absent.
    fn probe(args: &[&str]) -> Result<Packet, String> {
        let bad = |i: usize, what: &str| format!("bad {what} '{}'", args[i]);
        let ip = |i: usize| args.get(i).map_or(Some(0), |s| parse_ipv4(s));
        let port = |i: usize| args.get(i).map_or(Some(0), |s| s.parse().ok());
        let src = ip(0).ok_or_else(|| bad(0, "source IP"))?;
        let dst = ip(1).ok_or_else(|| bad(1, "destination IP"))?;
        let sport = port(2).ok_or_else(|| bad(2, "source port"))?;
        let dport = port(3).ok_or_else(|| bad(3, "destination port"))?;
        Ok(Packet::tcp(src, dst, sport, dport))
    }

    fn cmd_query(&mut self, args: &[&str]) -> Result<String, String> {
        let [name, _, ..] = args else {
            return Err("usage: query <name> <src> [dst sport dport]".into());
        };
        let h = self.handle(name)?;
        let pkt = Self::probe(&args[1..])?;
        let task = self.switch.task(h).map_err(|e| e.to_string())?;
        let answer = match task.def.attribute {
            Attribute::Frequency(_) => {
                format!("frequency ~ {}", self.switch.query_frequency(h, &pkt))
            }
            Attribute::Distinct(_) => match task.algorithm {
                Algorithm::Hll | Algorithm::LinearCounting => {
                    format!("cardinality ~ {:.0}", self.switch.cardinality(h))
                }
                _ => format!(
                    "distinct ~ {:.0} (reports: {})",
                    self.switch.query_distinct(h, &pkt),
                    self.switch.beaucoup_reports(h, &pkt)
                ),
            },
            Attribute::Existence(_) => format!("exists: {}", self.switch.query_exists(h, &pkt)),
            Attribute::Max(_) => format!("max ~ {}", self.switch.query_max(h, &pkt)),
        };
        Ok(answer)
    }

    fn cmd_topk(&mut self, args: &[&str]) -> Result<String, String> {
        let (name, threshold) = match args {
            [n, t] => (*n, t.parse::<u64>().map_err(|_| "bad threshold")?),
            _ => return Err("usage: topk <name> <threshold>".into()),
        };
        let h = self.handle(name)?;
        let key = self.switch.task(h).map_err(|e| e.to_string())?.def.key;
        if self.trace.is_empty() {
            return Err("no trace loaded to enumerate candidates".into());
        }
        // Candidate keys come from the loaded trace (sketches are not
        // invertible; the paper's control plane does the same).
        let truth = GroundTruth::packet_counts(&self.trace, key);
        let mut reps = HashMap::new();
        for p in &self.trace {
            reps.entry(key.extract(p)).or_insert(*p);
        }
        let mut heavy: Vec<(String, u64)> = truth
            .frequency
            .keys()
            .filter_map(|k| {
                let est = self.switch.query_frequency(h, &reps[k]);
                (est >= threshold).then(|| (key.render(&reps[k]), est))
            })
            .collect();
        heavy.sort_by_key(|&(_, est)| std::cmp::Reverse(est));
        let mut out = format!("{} flows over {threshold}:\n", heavy.len());
        for (flow, est) in heavy.iter().take(20) {
            let _ = writeln!(out, "  {flow}  ~{est}");
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_cardinality(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args.first().ok_or("usage: cardinality <name>")?;
        let h = self.handle(name)?;
        Ok(format!("cardinality ~ {:.0}", self.switch.cardinality(h)))
    }

    fn cmd_entropy(&mut self, args: &[&str]) -> Result<String, String> {
        let name = args.first().ok_or("usage: entropy <name>")?;
        let h = self.handle(name)?;
        Ok(format!(
            "flow entropy ~ {:.4} nats",
            self.switch.entropy(h, 10)
        ))
    }

    fn cmd_similarity(&mut self, args: &[&str]) -> Result<String, String> {
        let (a, b) = match args {
            [a, b] => (*a, *b),
            _ => return Err("usage: similarity <task-a> <task-b> (two oddsketch tasks)".into()),
        };
        let (ha, hb) = (self.handle(a)?, self.handle(b)?);
        let j = self
            .switch
            .jaccard_similarity(ha, hb)
            .map_err(|e| e.to_string())?;
        Ok(format!("Jaccard('{a}', '{b}') ~ {j:.3}"))
    }

    fn cmd_save(&mut self, args: &[&str]) -> Result<String, String> {
        let path = args.first().ok_or("usage: save <trace.csv>")?;
        if self.trace.is_empty() {
            return Err("no trace to save".into());
        }
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        flymon_traffic::io::write_trace(std::io::BufWriter::new(file), &self.trace)
            .map_err(|e| e.to_string())?;
        Ok(format!("saved {} packets to {path}", self.trace.len()))
    }
}

/// What `gen` accepts; anything else is a typo, not a default.
const GEN_OPTIONS: [&str; 4] = ["flows", "packets", "seed", "duration_ms"];

/// Ceilings on what one `gen` may allocate: the generator holds about
/// 32 bytes per flow while it draws and 32 per packet afterwards.
const MAX_GEN_FLOWS: u64 = 1_000_000;
const MAX_GEN_PACKETS: u64 = 10_000_000;

fn parse_kv<'a>(args: &[&'a str]) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut out = HashMap::new();
    for a in args {
        let (k, v) = a
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{a}'"))?;
        out.insert(k, v);
    }
    Ok(out)
}

const HELP: &str = "\
commands:
  deploy <name> key=<key> attr=<attr> [param=<key>] [mem=N] [alg=<alg> [d=N]]
         [filter=CIDR[->CIDR]] [prob=1/2^k] [threshold=N], e.g. 'deploy ddos key=DstIP
         attr=distinct param=SrcIP alg=beaucoup d=3 mem=8192'; mem defaults to 1024 buckets,
         an error names the bad token and lists the good ones, and a 'list' line's text
         before ' | ' deploys as it stands
  remove <name>              retire a task (runtime rules only)
  realloc <name> <buckets>   move a task to a new memory partition
  reset <name>               clear a task's buckets (epoch boundary)
  list | stats | map         deployed tasks / resources / occupancy map
  gen flows=N packets=N seed=N [duration_ms=N]
  load <trace.csv>           load a CSV trace (flymon-traffic format)
  run                        feed the loaded trace to the switch
  query <name> <src> [dst sport dport]
  topk <name> <threshold>    heavy flows from the loaded trace's keys
  cardinality <name>         HLL / Linear Counting readout
  entropy <name>             MRAC readout
  similarity <a> <b>         Jaccard of two oddsketch tasks' traffic sets
  save <trace.csv>           persist the loaded/generated trace
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn text(o: Outcome) -> String {
        match o {
            Outcome::Text(t) => t,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn deploy_run_query_lifecycle() {
        let mut s = Session::default();
        let out = text(s.execute("deploy hh key=SrcIP attr=frequency mem=8192 alg=cms d=3"));
        assert!(out.contains("deployed 'hh'"), "{out}");
        assert!(out.contains("CMS (d=3)"), "{out}");

        let out = text(s.execute("gen flows=500 packets=20000 seed=3"));
        assert!(out.contains("generated"), "{out}");
        let out = text(s.execute("run"));
        assert!(out.contains("processed"), "{out}");

        // The top flows exist; topk prints something plausible.
        let out = text(s.execute("topk hh 64"));
        assert!(out.contains("flows over 64"), "{out}");

        let out = text(s.execute("list"));
        assert!(
            out.starts_with("hh key=SrcIP attr=frequency mem=8192 alg=cms d=3 | "),
            "{out}"
        );
        let out = text(s.execute("remove hh"));
        assert!(out.contains("removed"), "{out}");
        let out = text(s.execute("list"));
        assert!(out.contains("no tasks"), "{out}");
    }

    /// A session on a small switch with one task of each readout kind,
    /// a generated trace, and that trace fed through.
    fn primed() -> Session {
        let mut s = Session::new(FlyMonConfig {
            groups: 4,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        for line in [
            "deploy hh key=SrcIP attr=frequency mem=256 alg=cms d=2",
            "deploy card key=none attr=distinct param=SrcIP alg=hll mem=256",
            "deploy fsd key=5tuple attr=frequency alg=mrac mem=256",
            "deploy a key=none attr=distinct param=SrcIP alg=oddsketch mem=256 filter=10.0.0.0/8",
            "deploy b key=none attr=distinct param=SrcIP alg=oddsketch mem=256 filter=47.0.0.0/8",
            "gen packets=300 flows=20 seed=3 duration_ms=10",
            "run",
        ] {
            let out = text(s.execute(line));
            assert!(!out.starts_with("error:"), "{line}: {out}");
        }
        s
    }

    #[test]
    fn every_line_yields_text_never_a_panic() {
        // The lines that used to kill the REPL: a task with no rows
        // (`rows[0]`), an empty flow set, an empty or overflowing time
        // span, an allocation as large as the number typed.
        for line in [
            "deploy z key=srcip attr=frequency alg=cms d=0",
            "deploy z key=srcip attr=frequency alg=sumax d=0",
            "deploy z key=srcip attr=frequency alg=tower d=0",
            "deploy z key=dstip attr=distinct param=srcip alg=beaucoup d=0",
            "deploy z key=none attr=existence alg=bloom d=0",
            "deploy z key=dstip attr=maxqueue alg=sumaxmax d=0",
            "deploy z key=5tuple attr=maxinterval alg=maxinterval d=0",
            "gen flows=0 packets=10",
            "gen flows=10 packets=10 duration_ms=0",
            "gen duration_ms=18446744073709551615",
            "gen flows=18446744073709551615",
            "gen packets=18446744073709551615",
            "gen flow=5",
        ] {
            let out = text(primed().execute(line));
            assert!(out.starts_with("error:"), "{line}: {out}");
        }

        // One valid line per command, every truncation of it and every
        // byte of it replaced by a digit, a separator or a non-UTF-8
        // byte (as the REPL's lossy decode would hand it over).
        let valid = [
            "help",
            "quit",
            "deploy x key=SrcIP/24 attr=distinct mem=256 alg=beaucoup d=2 param=DstIP \
             filter=10.0.0.0/8->47.0.0.0/8 threshold=5 prob=1/2^1",
            // `b`'s line as `list` prints it, under a fresh name.
            "deploy c key=N/A attr=distinct param=SrcIP mem=256 alg=oddsketch filter=47.0.0.0/8->*",
            "remove hh",
            "realloc hh 512",
            "reset hh",
            "list",
            "stats",
            "map",
            "gen packets=300 flows=20 seed=3 duration_ms=10",
            "load /no-such-dir/trace.csv",
            "save /no-such-dir/trace.csv",
            "run",
            "query hh 10.0.0.1 47.0.0.1 80 443",
            "topk hh 5",
            "cardinality card",
            "entropy fsd",
            "similarity a b",
        ];
        let mut lines = 0;
        for line in valid {
            // `save` creates whatever path it is handed: its variants
            // run where there is no trace to save, so none reaches the
            // file system.
            let fresh = || {
                if line.starts_with("save") {
                    Session::default()
                } else {
                    primed()
                }
            };
            let mut s = fresh();
            let tasks = text(s.execute("list"));
            let bytes = line.as_bytes();
            let truncations = (0..=bytes.len()).map(|n| bytes[..n].to_vec());
            let replacements = (0..bytes.len()).flat_map(|i| {
                [b'0', b'=', b'/', b'9', 0xff].map(|b| {
                    let mut mutated = bytes.to_vec();
                    mutated[i] = b;
                    mutated
                })
            });
            for mutated in truncations.chain(replacements) {
                let mutated = String::from_utf8_lossy(&mutated);
                match s.execute(&mutated) {
                    Outcome::Text(_) => {}
                    Outcome::Quit => assert!(
                        matches!(mutated.trim(), "quit" | "exit"),
                        "'{mutated}' quit the session"
                    ),
                }
                lines += 1;
                // A variant that deployed, removed or moved a task would
                // shadow the ones after it ("already exists").
                if text(s.execute("list")) != tasks {
                    s = fresh();
                }
            }
        }
        assert!(lines > 2_000, "{lines} lines");
    }

    #[test]
    fn list_lines_deploy_back_to_equal_definitions() {
        let mut s = primed();
        for line in [
            "deploy ddos key=DstIP attr=distinct param=SrcIP/24 alg=beaucoup d=2 mem=128 \
             threshold=9",
            "deploy bl key=N/A attr=existence param=SrcIP+DstPort alg=bloom-plain d=1 mem=128",
            "deploy web key=SrcIP/16 attr=bytes alg=cms d=1 mem=128 filter=*->47.0.0.0/8",
            "deploy coin key=5tuple attr=frequency alg=cms d=1 mem=128 prob=1/2^3",
        ] {
            let out = text(s.execute(line));
            assert!(out.starts_with("deployed"), "{line}: {out}");
        }
        let listed = text(s.execute("list"));
        assert_eq!(listed.lines().count(), 9, "{listed}");
        for line in listed.lines() {
            let (spec, _placement) = line.split_once(" | ").expect("a spec and a placement");
            let name = spec.split_whitespace().next().unwrap();
            let before = s.switch.task(s.tasks[name]).unwrap().def.clone();
            text(s.execute(&format!("remove {name}")));
            let out = text(s.execute(&format!("deploy {spec}")));
            assert!(out.starts_with("deployed"), "{spec}: {out}");
            assert_eq!(s.switch.task(s.tasks[name]).unwrap().def, before, "{spec}");
            assert!(text(s.execute("list")).lines().any(|l| l == line), "{line}");
        }
    }

    #[test]
    fn cardinality_and_entropy_paths() {
        let mut s = Session::default();
        text(s.execute("deploy card key=none attr=distinct param=5tuple alg=hll mem=4096"));
        text(s.execute("deploy ent key=5tuple attr=frequency alg=mrac mem=16384"));
        text(s.execute("gen flows=2000 packets=40000 seed=9"));
        text(s.execute("run"));
        let card = text(s.execute("cardinality card"));
        let n: f64 = card
            .trim_start_matches("cardinality ~ ")
            .parse()
            .expect("numeric cardinality");
        assert!((n - 2_000.0).abs() / 2_000.0 < 0.2, "{card}");
        let ent = text(s.execute("entropy ent"));
        assert!(ent.contains("nats"), "{ent}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = Session::default();
        for bad in [
            "bogus",
            "deploy",
            "query nothere 1.2.3.4",
            "remove nothere",
            "run",
            "realloc nothere 128",
        ] {
            let out = text(s.execute(bad));
            assert!(out.starts_with("error:"), "'{bad}' gave: {out}");
        }
        // A deploy line is taken whole or refused naming the token it
        // could not place; nothing is dropped or overwritten silently.
        for (bad, token) in [
            ("deploy t key=wat", "'wat'"),
            ("deploy t alg=wat", "'wat'"),
            ("deploy t key=SrcIP prob=0.5", "'prob=0.5'"),
            ("deploy t key=SrcIP memory=8192", "'memory=8192'"),
            ("deploy t key=SrcIP algo=hll", "'algo=hll'"),
            ("deploy x key=SrcIP bogus=1", "'bogus=1'"),
            ("deploy t key=SrcIP key=DstIP", "'key=DstIP'"),
            ("deploy t key=SrcIP d=2", "'d=2'"),
            ("deploy t alg=hll attr=distinct d=2", "'d=2'"),
            // Sized the deploy's per-row vectors, and aborted the REPL.
            (
                "deploy t alg=sumax d=18446744073709551615",
                "'d=18446744073709551615'",
            ),
            ("deploy t attr=frequency param=SrcIP", "'param=SrcIP'"),
            ("deploy t key=DstIP/33", "'DstIP/33'"),
            ("deploy t filter=10.0.0.0/40", "'10.0.0.0/40'"),
            ("deploy t key=SrcIP mem", "'mem'"),
            ("deploy key=SrcIP", "'key=SrcIP'"),
        ] {
            let out = text(s.execute(bad));
            assert!(
                out.starts_with("error:") && out.contains(token),
                "'{bad}' gave: {out}"
            );
        }
        assert_eq!(text(s.execute("list")), "no tasks deployed");
        // Duplicate names rejected.
        text(s.execute("deploy t key=SrcIP attr=frequency"));
        let out = text(s.execute("deploy t key=SrcIP attr=frequency"));
        assert!(out.contains("already exists"), "{out}");
    }

    #[test]
    fn query_refuses_a_malformed_probe_field_by_name() {
        // A malformed field used to be taken as 0 without a word.
        let mut s = Session::default();
        text(s.execute("deploy hh key=SrcIP attr=frequency"));
        for (bad, token) in [
            ("query hh 1.2.3.4 5.6.7.8 99999 1", "source port '99999'"),
            ("query hh 1.2.3.4 5.6.7.8 1 -1", "destination port '-1'"),
            ("query hh 1.2.3.4 5.6.7", "destination IP '5.6.7'"),
            ("query hh 1.2.3", "source IP '1.2.3'"),
            ("query hh", "usage: query"),
        ] {
            let out = text(s.execute(bad));
            assert!(
                out.starts_with("error:") && out.contains(token),
                "'{bad}' gave: {out}"
            );
        }
        for good in ["query hh 1.2.3.4", "query hh 1.2.3.4 5.6.7.8 65535 0"] {
            let out = text(s.execute(good));
            assert!(out.starts_with("frequency"), "'{good}' gave: {out}");
        }
    }

    #[test]
    fn filters_thresholds_and_probability_parse() {
        let mut s = Session::default();
        let out = text(s.execute(
            "deploy ddos key=DstIP attr=distinct param=SrcIP alg=beaucoup d=3 \
             threshold=512 mem=8192 filter=10.0.0.0/8->192.168.0.0/16",
        ));
        assert!(out.contains("BeauCoup"), "{out}");
        let out = text(s.execute(
            "deploy sampled key=SrcIP/24 attr=frequency alg=cms d=1 prob=1/2^2 filter=20.0.0.0/8",
        ));
        assert!(out.contains("deployed 'sampled'"), "{out}");
        let listed = text(s.execute("list"));
        assert!(listed.contains("SrcIP/24"), "{listed}");
        assert!(listed.contains("10.0.0.0/8->192.168.0.0/16"), "{listed}");
    }

    #[test]
    fn load_reads_csv_traces() {
        let mut s = Session::default();
        let dir = std::env::temp_dir().join("flymon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, "1.2.3.4,5.6.7.8,1,2,6,64,100\n").unwrap();
        let out = text(s.execute(&format!("load {}", path.display())));
        assert!(out.contains("loaded 1 packets"), "{out}");
        text(s.execute("deploy t key=SrcIP attr=frequency alg=cms d=1"));
        let out = text(s.execute("run"));
        assert!(out.contains("processed 1"), "{out}");
        let out = text(s.execute("query t 1.2.3.4"));
        assert!(out.contains("frequency ~ 1"), "{out}");
    }

    #[test]
    fn similarity_between_oddsketch_tasks() {
        let mut s = Session::default();
        text(s.execute(
            "deploy a key=none attr=distinct param=SrcIP alg=oddsketch mem=4096 filter=10.0.0.0/8",
        ));
        text(s.execute(
            "deploy b key=none attr=distinct param=SrcIP alg=oddsketch mem=4096 filter=20.0.0.0/8",
        ));
        // Identical source sets on both links.
        let feed: Vec<Packet> = (0..500u32)
            .flat_map(|i| {
                [
                    Packet::tcp(i, 0x0a000001, 1, 1),
                    Packet::tcp(i, 0x14000001, 1, 1),
                ]
            })
            .collect();
        s.switch.process_batch(&feed);
        let out = text(s.execute("similarity a b"));
        assert!(out.contains("Jaccard"), "{out}");
        let j: f64 = out
            .rsplit('~')
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("numeric jaccard");
        assert!(j > 0.85, "identical sets scored {j}");
        // Mismatched usage errors cleanly.
        text(s.execute("deploy freq key=SrcIP attr=frequency"));
        let out = text(s.execute("similarity a freq"));
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn save_round_trips_through_load() {
        let mut s = Session::default();
        text(s.execute("gen flows=50 packets=500 seed=2"));
        let dir = std::env::temp_dir().join("flymon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saved.csv");
        let out = text(s.execute(&format!("save {}", path.display())));
        assert!(out.contains("saved"), "{out}");
        let before = s.trace.len();
        let out = text(s.execute(&format!("load {}", path.display())));
        assert!(out.contains(&format!("loaded {before} packets")), "{out}");
    }

    #[test]
    fn quit_quits() {
        let mut s = Session::default();
        assert!(matches!(s.execute("quit"), Outcome::Quit));
        assert!(matches!(s.execute("exit"), Outcome::Quit));
    }

    #[test]
    fn map_shows_partitions_and_masks() {
        let mut s = Session::default();
        text(s.execute("deploy a key=SrcIP attr=frequency alg=cms d=1 mem=8192 filter=10.0.0.0/8"));
        text(s.execute("deploy b key=SrcIP attr=frequency alg=cms d=1 mem=8192 filter=20.0.0.0/8"));
        let map = text(s.execute("map"));
        assert!(map.contains("group 0"), "{map}");
        assert!(map.contains("SrcIP"), "{map}");
        assert!(map.contains("a@"), "{map}");
        assert!(map.contains("b@"), "{map}");
        // Both partitions on the same CMU, disjoint offsets.
        assert!(
            map.contains("a@0+8192") || map.contains("a@8192+8192"),
            "{map}"
        );
    }

    #[test]
    fn stats_reflect_activity() {
        let mut s = Session::default();
        let before = text(s.execute("stats"));
        assert!(before.contains("0 tasks"), "{before}");
        text(s.execute("deploy t key=SrcIP attr=frequency"));
        let after = text(s.execute("stats"));
        assert!(after.contains("1 tasks"), "{after}");
    }
}
