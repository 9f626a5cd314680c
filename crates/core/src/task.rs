//! The task algebra: attributes, algorithms and task definitions.
//!
//! §2.1/§3.4: a task is a *filter*, a *key*, an *attribute with
//! parameters* and a *memory size*. The attribute names *what* to measure;
//! the compiler picks (or the user pins) a built-in *algorithm* naming
//! *how*.
//!
//! A [`TaskDefinition`] prints as, and parses from, one line whose
//! options come in any order, a missing one keeping the builder's default:
//! `<name> key=<key> attr=<attr> [param=<key>] mem=<n> [alg=<alg> [d=<n>]]
//! [filter=<cidr>[-><cidr>]] [prob=1/2^k] [threshold=<n>]`.

use std::{fmt, str::FromStr};

use flymon_packet::{KeySpec, TaskFilter};

use crate::FlymonError::{self, BadTask};

/// Identifier of a deployed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Parameter of a `Frequency` attribute: what gets accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqParam {
    /// `Const(1)` — count packets.
    Packets,
    /// Packet length — count bytes.
    Bytes,
}

/// Parameter of a `Max` attribute: which metadata's maximum to track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxParam {
    /// Egress queue occupancy (congestion detection \[55\]).
    QueueLen,
    /// Queuing delay in µs (HOL-blocking detection \[47\]).
    QueueDelayUs,
    /// Packet inter-arrival time in µs (the combinatorial task of §4).
    PacketIntervalUs,
}

/// A flow attribute with its parameters — the four frequently used
/// attributes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribute {
    /// `Frequency(param)`: accumulate the parameter per key.
    Frequency(FreqParam),
    /// `Distinct(param)`: count distinct parameter values per key
    /// (`param` is itself a partial key, e.g. `Distinct(SrcIP)`).
    Distinct(KeySpec),
    /// `Existence(param)`: is the parameter in the recorded set?
    /// (`param` is a partial key; for blacklists it equals the task key).
    Existence(KeySpec),
    /// `Max(param)`: track the maximum parameter per key.
    Max(MaxParam),
}

impl Attribute {
    /// `Frequency(Const(1))` — per-flow packet counts.
    pub fn frequency_packets() -> Self {
        Attribute::Frequency(FreqParam::Packets)
    }

    /// `Frequency(PktBytes)` — per-flow byte counts.
    pub fn frequency_bytes() -> Self {
        Attribute::Frequency(FreqParam::Bytes)
    }

    /// Short name matching Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Attribute::Frequency(_) => "Frequency",
            Attribute::Distinct(_) => "Distinct",
            Attribute::Existence(_) => "Existence",
            Attribute::Max(_) => "Max",
        }
    }

    /// The `attr=` token, and the `param=` key for the attributes that
    /// take one.
    fn token(&self) -> (&'static str, Option<KeySpec>) {
        match *self {
            Attribute::Frequency(FreqParam::Packets) => ("frequency", None),
            Attribute::Frequency(FreqParam::Bytes) => ("bytes", None),
            Attribute::Distinct(param) => ("distinct", Some(param)),
            Attribute::Existence(param) => ("existence", Some(param)),
            Attribute::Max(MaxParam::QueueLen) => ("maxqueue", None),
            Attribute::Max(MaxParam::QueueDelayUs) => ("maxdelay", None),
            Attribute::Max(MaxParam::PacketIntervalUs) => ("maxinterval", None),
        }
    }
}

/// The built-in algorithms of Figure 6 / Table 3.
///
/// `d` is the number of bucket rows (CMUs) used. Variants that need CMUs
/// in *different* groups (because they chain results through the packet)
/// say so in their docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Count-Min Sketch: `d` CMUs in one group, unconditional ADD.
    Cms {
        /// Number of rows (CMUs).
        d: usize,
    },
    /// SuMax(Sum): `d` CMUs across `d` *different* groups (approximate
    /// conservative update chains the running minimum through the PHV).
    SuMaxSum {
        /// Number of rows (one per group).
        d: usize,
    },
    /// MRAC: one CMU; identical to CMS(d=1) in the data plane, EM-based
    /// flow-size-distribution analysis in the control plane.
    Mrac,
    /// TowerSketch (Appendix D): `d` CMUs in one group acting as counter
    /// levels of widths 4/8/16 bits carved from 16-bit buckets.
    Tower {
        /// Number of levels (at most 3 with 16-bit buckets).
        d: usize,
    },
    /// Counter Braids (Appendix D): 2 CMUs in *different* groups; the
    /// low layer's saturation carries into the high layer.
    CounterBraids,
    /// HyperLogLog: one CMU, MAX op over ρ values.
    Hll,
    /// Linear Counting: same data plane as the bit-optimized Bloom
    /// filter; control plane estimates `m·ln(m/z)`.
    LinearCounting,
    /// FlyMon-BeauCoup (§4): `d` CMUs in one group, coupon one-hot in the
    /// preparation stage, OR in the operation stage; a key reports only
    /// when *every* row collected enough coupons.
    BeauCoup {
        /// Number of coupon tables (CMUs).
        d: usize,
    },
    /// Bloom filter: `d` CMUs in one group.
    Bloom {
        /// Number of hash rows (CMUs).
        d: usize,
        /// Bit-level optimization (§4 Existence Check): use each of the
        /// 16 bucket bits as a filter bit (16× the bits per byte).
        bit_optimized: bool,
    },
    /// SuMax(Max): `d` CMUs in one group, MAX op; query is the row-wise
    /// minimum.
    SuMaxMax {
        /// Number of rows (CMUs).
        d: usize,
    },
    /// Odd Sketch (§6 expansion, using the reserved XOR operation):
    /// 2 CMUs across 2 groups — a Bloom-filter gate for first occurrence
    /// plus a parity bitmap. Two such tasks' readouts yield the Jaccard
    /// similarity of their traffic sets.
    OddSketch,
    /// Maximum inter-arrival time (§4): 3 CMUs across 3 groups —
    /// a Bloom-filter CMU (new-flow detection), an arrival-time recorder
    /// (MAX, forwarding the old value), and the interval maximizer.
    /// `d` parallel instances reduce hash-collision error (Fig. 14f).
    MaxInterval {
        /// Number of parallel instances (each 3 CMUs).
        d: usize,
    },
}

impl Algorithm {
    /// The default algorithm the compiler picks for an attribute
    /// (Table 3's "built-in algorithms", one per attribute).
    pub fn default_for(attr: &Attribute, key: &KeySpec) -> Algorithm {
        match attr {
            Attribute::Frequency(_) => Algorithm::Cms { d: 3 },
            // Single-key distinct counting (cardinality) -> HLL;
            // multi-key -> BeauCoup (§4).
            Attribute::Distinct(_) if key.is_empty() => Algorithm::Hll,
            Attribute::Distinct(_) => Algorithm::BeauCoup { d: 3 },
            Attribute::Existence(_) => Algorithm::Bloom {
                d: 3,
                bit_optimized: true,
            },
            Attribute::Max(MaxParam::PacketIntervalUs) => Algorithm::MaxInterval { d: 1 },
            Attribute::Max(_) => Algorithm::SuMaxMax { d: 3 },
        }
    }

    /// Number of CMUs consumed per instance.
    pub fn cmus_used(&self) -> usize {
        match self {
            Algorithm::Cms { d }
            | Algorithm::SuMaxSum { d }
            | Algorithm::Tower { d }
            | Algorithm::BeauCoup { d }
            | Algorithm::Bloom { d, .. }
            | Algorithm::SuMaxMax { d } => *d,
            Algorithm::Mrac | Algorithm::Hll | Algorithm::LinearCounting => 1,
            Algorithm::CounterBraids | Algorithm::OddSketch => 2,
            Algorithm::MaxInterval { d } => 3 * d,
        }
    }

    /// Number of *distinct CMU Groups* required (Table 3's "CMUG Usage").
    /// Algorithms that chain per-packet results need one group per
    /// chained CMU; the rest pack into a single group.
    pub fn groups_used(&self) -> usize {
        match self {
            Algorithm::SuMaxSum { d } => *d,
            Algorithm::CounterBraids | Algorithm::OddSketch => 2,
            Algorithm::MaxInterval { .. } => 3,
            _ => 1,
        }
    }

    /// Display name matching Table 3.
    pub fn name(&self) -> String {
        match self {
            Algorithm::Cms { d } => format!("CMS (d={d})"),
            Algorithm::SuMaxSum { d } => format!("SuMax(Sum) (d={d})"),
            Algorithm::Mrac => "MRAC".to_string(),
            Algorithm::Tower { d } => format!("TowerSketch (d={d})"),
            Algorithm::CounterBraids => "Counter Braids (L=2)".to_string(),
            Algorithm::Hll => "HyperLogLog".to_string(),
            Algorithm::LinearCounting => "Linear Counting".to_string(),
            Algorithm::BeauCoup { d } => format!("BeauCoup (d={d})"),
            Algorithm::Bloom { d, bit_optimized } => {
                if *bit_optimized {
                    format!("Bloom Filter (d={d})")
                } else {
                    format!("Bloom Filter (d={d}, no bit-opt)")
                }
            }
            Algorithm::SuMaxMax { d } => format!("SuMax(Max) (d={d})"),
            Algorithm::OddSketch => "Odd Sketch".to_string(),
            Algorithm::MaxInterval { d } => format!("Max Interval (d={d})"),
        }
    }

    /// Every variant, at `d` rows where it takes them.
    pub(crate) fn all(d: usize) -> [Algorithm; 13] {
        use Algorithm::*;
        [
            Cms { d }, SuMaxSum { d }, Mrac, Tower { d }, CounterBraids, Hll, LinearCounting,
            BeauCoup { d }, Bloom { d, bit_optimized: true }, Bloom { d, bit_optimized: false },
            SuMaxMax { d }, OddSketch, MaxInterval { d },
        ]
    }

    /// The `alg=` token, and `d` for the variants that take it.
    fn token(&self) -> (&'static str, Option<usize>) {
        use Algorithm::*;
        match *self {
            Cms { d } => ("cms", Some(d)),
            SuMaxSum { d } => ("sumax", Some(d)),
            Mrac => ("mrac", None),
            Tower { d } => ("tower", Some(d)),
            CounterBraids => ("braids", None),
            Hll => ("hll", None),
            LinearCounting => ("lc", None),
            BeauCoup { d } => ("beaucoup", Some(d)),
            Bloom { d, bit_optimized: true } => ("bloom", Some(d)),
            Bloom { d, bit_optimized: false } => ("bloom-plain", Some(d)),
            SuMaxMax { d } => ("sumaxmax", Some(d)),
            OddSketch => ("oddsketch", None),
            MaxInterval { d } => ("maxinterval", Some(d)),
        }
    }
}

/// A complete measurement task definition (§3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDefinition {
    /// Human-readable task name (reports, error messages).
    pub name: String,
    /// Which packets feed the task.
    pub filter: TaskFilter,
    /// How packets group into flows.
    pub key: KeySpec,
    /// What to measure.
    pub attribute: Attribute,
    /// Requested buckets **per row** (rounded per the allocation mode).
    pub memory: usize,
    /// Pinned algorithm; `None` lets the compiler pick the default.
    pub algorithm: Option<Algorithm>,
    /// Probabilistic execution (§5.3, Fig. 14b): process a packet with
    /// probability `2^-prob_log2` (0 = always). Lets intersecting tasks
    /// time-share a CMU.
    pub prob_log2: u8,
    /// Detection threshold for Distinct tasks (calibrates BeauCoup's
    /// coupon probability at deploy time; ignored by other attributes).
    pub distinct_threshold: u64,
}

impl TaskDefinition {
    /// Starts a builder with mandatory name.
    pub fn builder(name: impl Into<String>) -> TaskBuilder {
        TaskBuilder {
            def: TaskDefinition {
                name: name.into(),
                filter: TaskFilter::ANY,
                key: KeySpec::FIVE_TUPLE,
                attribute: Attribute::frequency_packets(),
                memory: 1024,
                algorithm: None,
                prob_log2: 0,
                distinct_threshold: 512,
            },
        }
    }

    /// The algorithm that will actually run (pinned or default).
    pub fn effective_algorithm(&self) -> Algorithm {
        self.algorithm
            .unwrap_or_else(|| Algorithm::default_for(&self.attribute, &self.key))
    }

    /// Validates internal consistency. The name must be one token: not
    /// empty, no whitespace, no `=`; and every address prefix — in the
    /// key, the attribute's key and the filter — at most 32 bits, or the
    /// line the definition prints would not parse back.
    pub fn validate(&self) -> Result<(), crate::FlymonError> {
        if self.name.is_empty() || self.name.contains(|c: char| c.is_whitespace() || c == '=') {
            return Err(BadTask(format!("task name '{}' is not one token without '='", self.name)));
        }
        let param = match self.attribute {
            Attribute::Distinct(k) | Attribute::Existence(k) => k,
            _ => KeySpec::NONE,
        };
        let prefixes = [
            ("key", self.key.src_ip_prefix.max(self.key.dst_ip_prefix)),
            ("param", param.src_ip_prefix.max(param.dst_ip_prefix)),
            ("filter", self.filter.src.bits.max(self.filter.dst.bits)),
        ];
        if let Some((what, bits)) = prefixes.into_iter().find(|&(_, bits)| bits > 32) {
            return Err(BadTask(format!("{what} prefix /{bits} is longer than 32 bits")));
        }
        if self.memory == 0 {
            return Err(crate::FlymonError::BadMemory("zero buckets".into()));
        }
        if self.prob_log2 > crate::group::MAX_PROB_LOG2 {
            return Err(BadTask(format!(
                "prob_log2 = {} exceeds the 32-bit sampling coin (max {})",
                self.prob_log2,
                crate::group::MAX_PROB_LOG2
            )));
        }
        let algorithm = self.effective_algorithm();
        if algorithm.cmus_used() == 0 {
            return Err(BadTask(format!(
                "{}: d = 0 places no rows (d must be at least 1)",
                algorithm.name()
            )));
        }
        match (&self.attribute, algorithm) {
            (Attribute::Frequency(_), a)
                if !matches!(
                    a,
                    Algorithm::Cms { .. }
                        | Algorithm::SuMaxSum { .. }
                        | Algorithm::Mrac
                        | Algorithm::Tower { .. }
                        | Algorithm::CounterBraids
                        | Algorithm::BeauCoup { .. }
                ) =>
            {
                Err(BadTask(format!(
                    "{} cannot implement Frequency",
                    a.name()
                )))
            }
            (Attribute::Distinct(param), a) => {
                if param.is_empty()
                    && self.key.is_empty()
                    && !matches!(
                        a,
                        Algorithm::Hll
                            | Algorithm::LinearCounting
                            | Algorithm::BeauCoup { .. }
                            | Algorithm::OddSketch
                    )
                {
                    return Err(BadTask("cardinality needs HLL/LC/BeauCoup".into()));
                }
                match a {
                    Algorithm::Hll
                    | Algorithm::LinearCounting
                    | Algorithm::BeauCoup { .. }
                    | Algorithm::OddSketch => Ok(()),
                    other => Err(BadTask(format!("{} cannot implement Distinct", other.name()))),
                }
            }
            (Attribute::Existence(_), a)
                if !matches!(a, Algorithm::Bloom { .. }) =>
            {
                Err(BadTask(format!("{} cannot implement Existence", a.name())))
            }
            (Attribute::Max(MaxParam::PacketIntervalUs), a)
                if !matches!(a, Algorithm::MaxInterval { .. }) =>
            {
                Err(BadTask("packet-interval Max needs the 3-CMU recipe".into()))
            }
            (Attribute::Max(p), a)
                if !matches!(p, MaxParam::PacketIntervalUs)
                    && !matches!(a, Algorithm::SuMaxMax { .. }) =>
            {
                Err(BadTask(format!("{} cannot implement Max", a.name())))
            }
            _ => Ok(()),
        }
    }
}

/// The line of the module doc: `mem=` always, `param=` for the attributes
/// that take one, any other option only where it is not the default.
impl fmt::Display for TaskDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (attr, param) = self.attribute.token();
        write!(f, "{} key={} attr={attr}", self.name, self.key)?;
        if let Some(param) = param {
            write!(f, " param={param}")?;
        }
        write!(f, " mem={}", self.memory)?;
        if let Some((alg, d)) = self.algorithm.as_ref().map(Algorithm::token) {
            write!(f, " alg={alg}")?;
            if let Some(d) = d {
                write!(f, " d={d}")?;
            }
        }
        let default = TaskDefinition::builder(String::new()).def;
        if self.filter != default.filter {
            write!(f, " filter={}", self.filter)?;
        }
        if self.prob_log2 != default.prob_log2 {
            write!(f, " prob=1/2^{}", self.prob_log2)?;
        }
        if self.distinct_threshold != default.distinct_threshold {
            write!(f, " threshold={}", self.distinct_threshold)?;
        }
        Ok(())
    }
}

/// Parses the line of the module doc over the builder's defaults (`d=3`;
/// `param=SrcIP` for `distinct`, `5tuple` for `existence`; `freq` and
/// `exists` are aliases). A token that is unknown, repeated, inapplicable
/// or malformed is a `BadTask` naming it; deploy does the validation.
impl FromStr for TaskDefinition {
    type Err = FlymonError;

    fn from_str(line: &str) -> Result<Self, FlymonError> {
        const OPTIONS: [&str; 9] =
            ["key", "attr", "param", "mem", "alg", "d", "filter", "prob", "threshold"];
        let mut tokens = line.split_whitespace();
        let name = tokens.next().filter(|name| !name.contains('='));
        let name = name.ok_or_else(|| BadTask(format!("'{line}' does not start with a name")))?;
        let mut values = [None; OPTIONS.len()];
        for token in tokens {
            let option = token.split_once('=');
            let option = option.and_then(|(o, v)| Some((OPTIONS.iter().position(|&p| p == o)?, v)));
            let (i, value) = option.ok_or_else(|| {
                BadTask(format!("unknown option '{token}' (have {}=...)", OPTIONS.join("=..., ")))
            })?;
            if values[i].replace(value).is_some() {
                return Err(BadTask(format!("repeated option '{token}'")));
            }
        }
        let [key, attr, param, mem, alg, d, filter, prob, threshold] = values;
        let mut def = TaskDefinition::builder(name).def;
        def.key = key.map_or(Ok(def.key), str::parse).map_err(BadTask)?;
        let param_key = param.map(str::parse::<KeySpec>).transpose().map_err(BadTask)?;
        if let Some(attr) = attr {
            let attr = match attr {
                "freq" => "frequency",
                "exists" => "existence",
                attr => attr,
            };
            let attributes = [
                Attribute::frequency_packets(),
                Attribute::frequency_bytes(),
                Attribute::Distinct(param_key.unwrap_or(KeySpec::SRC_IP)),
                Attribute::Existence(param_key.unwrap_or(KeySpec::FIVE_TUPLE)),
                Attribute::Max(MaxParam::QueueLen),
                Attribute::Max(MaxParam::QueueDelayUs),
                Attribute::Max(MaxParam::PacketIntervalUs),
            ];
            let have = attributes.map(|a| a.token().0).join(", ");
            let unknown = BadTask(format!("unknown attr '{attr}' (have {have})"));
            def.attribute = attributes.into_iter().find(|a| a.token().0 == attr).ok_or(unknown)?;
        }
        if let (Some(param), (attr, None)) = (param, def.attribute.token()) {
            return Err(BadTask(format!("'param={param}' does not apply to attr={attr}")));
        }
        // No switch has 256 CMUs: a wider `d` is refused here, before the
        // deploy sizes its per-row vectors by it.
        let rows = number::<u8>("d", d)?.map_or(3, usize::from);
        if let Some(alg) = alg {
            let algorithms = Algorithm::all(rows);
            let have = algorithms.map(|a| a.token().0).join(", ");
            let unknown = BadTask(format!("unknown alg '{alg}' (have {have})"));
            let found = algorithms.into_iter().find(|a| a.token().0 == alg);
            def.algorithm = Some(found.ok_or(unknown)?);
        }
        if let (Some(d), None) = (d, def.algorithm.and_then(|a| a.token().1)) {
            return Err(BadTask(format!("'d={d}' needs an alg= that takes rows")));
        }
        def.memory = number("mem", mem)?.unwrap_or(def.memory);
        def.filter = filter.map_or(Ok(def.filter), str::parse).map_err(BadTask)?;
        if let Some(prob) = prob {
            let log2 = prob.strip_prefix("1/2^").and_then(|k| k.parse().ok());
            def.prob_log2 = log2.ok_or_else(|| BadTask(format!("'prob={prob}' is not 1/2^k")))?;
        }
        def.distinct_threshold = number("threshold", threshold)?.unwrap_or(def.distinct_threshold);
        Ok(def)
    }
}

/// The number an `option=value` token carries, if the option was given.
fn number<T: FromStr>(option: &str, value: Option<&str>) -> Result<Option<T>, FlymonError> {
    let bad = |v| BadTask(format!("'{option}={v}' is not a number in range"));
    value.map(|v| v.parse().map_err(|_| bad(v))).transpose()
}

/// Builder for [`TaskDefinition`].
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    def: TaskDefinition,
}

impl TaskBuilder {
    /// Sets the traffic filter (default: all traffic).
    pub fn filter(mut self, f: TaskFilter) -> Self {
        self.def.filter = f;
        self
    }

    /// Sets the flow key (default: 5-tuple).
    pub fn key(mut self, k: KeySpec) -> Self {
        self.def.key = k;
        self
    }

    /// Sets the attribute (default: Frequency(packets)).
    pub fn attribute(mut self, a: Attribute) -> Self {
        self.def.attribute = a;
        self
    }

    /// Sets the requested buckets per row (default: 1024).
    pub fn memory(mut self, buckets: usize) -> Self {
        self.def.memory = buckets;
        self
    }

    /// Pins a specific algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.def.algorithm = Some(a);
        self
    }

    /// Enables probabilistic execution with probability `2^-log2`.
    pub fn probability_log2(mut self, log2: u8) -> Self {
        self.def.prob_log2 = log2;
        self
    }

    /// Sets the Distinct detection threshold (BeauCoup calibration;
    /// default 512, the paper's DDoS setting).
    pub fn distinct_threshold(mut self, n: u64) -> Self {
        self.def.distinct_threshold = n;
        self
    }

    /// Finishes the definition.
    pub fn build(self) -> TaskDefinition {
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let freq = Attribute::frequency_packets();
        assert_eq!(
            Algorithm::default_for(&freq, &KeySpec::SRC_IP),
            Algorithm::Cms { d: 3 }
        );
        let card = Attribute::Distinct(KeySpec::FIVE_TUPLE);
        assert_eq!(
            Algorithm::default_for(&card, &KeySpec::NONE),
            Algorithm::Hll
        );
        let ddos = Attribute::Distinct(KeySpec::SRC_IP);
        assert_eq!(
            Algorithm::default_for(&ddos, &KeySpec::DST_IP),
            Algorithm::BeauCoup { d: 3 }
        );
        let exist = Attribute::Existence(KeySpec::FIVE_TUPLE);
        assert!(matches!(
            Algorithm::default_for(&exist, &KeySpec::FIVE_TUPLE),
            Algorithm::Bloom { d: 3, bit_optimized: true }
        ));
        let cong = Attribute::Max(MaxParam::QueueLen);
        assert_eq!(
            Algorithm::default_for(&cong, &KeySpec::FIVE_TUPLE),
            Algorithm::SuMaxMax { d: 3 }
        );
    }

    #[test]
    fn group_usage_matches_table3() {
        // Table 3 "CMUG Usage" column.
        assert_eq!(Algorithm::Cms { d: 3 }.groups_used(), 1);
        assert_eq!(Algorithm::BeauCoup { d: 3 }.groups_used(), 1);
        assert_eq!(Algorithm::Bloom { d: 3, bit_optimized: true }.groups_used(), 1);
        assert_eq!(Algorithm::SuMaxMax { d: 3 }.groups_used(), 1);
        assert_eq!(Algorithm::Hll.groups_used(), 1);
        assert_eq!(Algorithm::SuMaxSum { d: 3 }.groups_used(), 3);
        assert_eq!(Algorithm::Mrac.groups_used(), 1);
        // §4: the combinatorial interval task needs 3 CMUs from 3 groups.
        assert_eq!(Algorithm::MaxInterval { d: 1 }.groups_used(), 3);
    }

    #[test]
    fn cmu_counts() {
        assert_eq!(Algorithm::Cms { d: 3 }.cmus_used(), 3);
        assert_eq!(Algorithm::Hll.cmus_used(), 1);
        assert_eq!(Algorithm::CounterBraids.cmus_used(), 2);
        assert_eq!(Algorithm::MaxInterval { d: 2 }.cmus_used(), 6);
    }

    #[test]
    fn builder_round_trip() {
        let t = TaskDefinition::builder("hh")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_bytes())
            .memory(4096)
            .algorithm(Algorithm::SuMaxSum { d: 3 })
            .probability_log2(2)
            .build();
        assert_eq!(t.name, "hh");
        assert_eq!(t.memory, 4096);
        assert_eq!(t.prob_log2, 2);
        assert_eq!(t.effective_algorithm(), Algorithm::SuMaxSum { d: 3 });
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validation_rejects_mismatches() {
        let bad = TaskDefinition::builder("bad")
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Hll)
            .build();
        assert!(bad.validate().is_err());

        let bad2 = TaskDefinition::builder("bad2")
            .attribute(Attribute::Existence(KeySpec::SRC_IP))
            .algorithm(Algorithm::Cms { d: 3 })
            .build();
        assert!(bad2.validate().is_err());

        let zero = TaskDefinition::builder("zero").memory(0).build();
        assert!(zero.validate().is_err());

        // A name is one token of the task grammar.
        for name in ["", "a b", "a=b", "tab\there"] {
            assert!(
                TaskDefinition::builder(name).build().validate().is_err(),
                "{name:?}"
            );
        }
    }

    #[test]
    fn prefixes_past_32_bits_are_rejected() {
        // Such a definition used to validate and deploy, and then print a
        // line (`key=SrcIP/40`) its own parser refuses.
        use flymon_packet::PrefixFilter;
        let defs = |bits: u8| {
            let src = KeySpec { src_ip_prefix: bits, ..KeySpec::NONE };
            let dst = KeySpec { dst_ip_prefix: bits, ..KeySpec::SRC_IP };
            let wide = PrefixFilter { net: 0, bits };
            let def = |key, attribute, filter| {
                TaskDefinition::builder("t").key(key).attribute(attribute).filter(filter).build()
            };
            let count = Attribute::frequency_packets();
            let any = TaskFilter::ANY;
            [
                ("key", def(src, count, any)),
                ("key", def(dst, count, any)),
                ("param", def(KeySpec::DST_IP, Attribute::Distinct(src), any)),
                ("param", def(KeySpec::SRC_IP, Attribute::Existence(dst), any)),
                ("filter", def(KeySpec::SRC_IP, count, TaskFilter { src: wide, ..any })),
                ("filter", def(KeySpec::SRC_IP, count, TaskFilter { dst: wide, ..any })),
            ]
        };
        for (what, def) in defs(32) {
            assert!(def.validate().is_ok(), "{what}: {def}");
            assert_eq!(def.to_string().parse::<TaskDefinition>().ok().as_ref(), Some(&def), "{what}");
        }
        for bits in [33, 40, u8::MAX] {
            for (what, def) in defs(bits) {
                match def.validate() {
                    Err(BadTask(why)) => {
                        assert!(why.starts_with(what) && why.contains(&format!("/{bits} ")), "{why}")
                    }
                    other => panic!("{what} /{bits}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_row_algorithms_are_rejected() {
        // Every `{d}` variant under an attribute it implements: d = 1
        // validates, d = 0 — which used to deploy as a task with no
        // rows — is a `BadTask` that names `d`.
        let frequency = Attribute::frequency_packets;
        type WithD = fn(usize) -> Algorithm;
        let cases: [(Attribute, WithD); 7] = [
            (frequency(), |d| Algorithm::Cms { d }),
            (frequency(), |d| Algorithm::SuMaxSum { d }),
            (frequency(), |d| Algorithm::Tower { d }),
            (Attribute::Distinct(KeySpec::SRC_IP), |d| Algorithm::BeauCoup { d }),
            (Attribute::Existence(KeySpec::SRC_IP), |d| Algorithm::Bloom {
                d,
                bit_optimized: true,
            }),
            (Attribute::Max(MaxParam::QueueLen), |d| Algorithm::SuMaxMax { d }),
            (Attribute::Max(MaxParam::PacketIntervalUs), |d| Algorithm::MaxInterval { d }),
        ];
        for (attribute, with_d) in cases {
            let def = |d| {
                TaskDefinition::builder("t")
                    .key(KeySpec::DST_IP)
                    .attribute(attribute)
                    .algorithm(with_d(d))
                    .build()
            };
            assert!(def(1).validate().is_ok(), "{}", with_d(1).name());
            match def(0).validate() {
                Err(crate::FlymonError::BadTask(why)) => assert!(why.contains("d = 0"), "{why}"),
                other => panic!("{}: {other:?}", with_d(0).name()),
            }
        }
    }

    #[test]
    fn beaucoup_can_serve_frequency_via_distinct_timestamps() {
        // §5.3 Fig. 14a evaluates BeauCoup-based heavy-hitter detection by
        // counting distinct timestamps; the task algebra must allow it.
        let t = TaskDefinition::builder("hh-beaucoup")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Distinct(KeySpec {
                timestamp: true,
                ..KeySpec::NONE
            }))
            .algorithm(Algorithm::BeauCoup { d: 3 })
            .build();
        assert!(t.validate().is_ok());
    }
}
