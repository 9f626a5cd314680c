//! Traffic filters used for task isolation and task splitting.

use std::{fmt, str::FromStr};

use crate::key::mask_prefix;
use crate::{fmt_ipv4, parse_ipv4, Ipv4, Packet};

/// An IPv4 prefix filter, e.g. `10.0.0.0/8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixFilter {
    /// Network address (host bits must be zero; enforced by constructor).
    pub net: Ipv4,
    /// Prefix length in bits, `0..=32`. Zero matches everything.
    pub bits: u8,
}

impl PrefixFilter {
    /// Matches all addresses.
    pub const ANY: PrefixFilter = PrefixFilter { net: 0, bits: 0 };

    /// Creates a prefix filter; host bits of `net` are masked off.
    ///
    /// # Panics
    /// Panics if `bits > 32`.
    pub fn new(net: Ipv4, bits: u8) -> Self {
        assert!(bits <= 32, "prefix length {bits} out of range");
        PrefixFilter {
            net: mask_prefix(net, bits),
            bits,
        }
    }

    /// True when `ip` falls inside the prefix.
    pub fn matches(&self, ip: Ipv4) -> bool {
        mask_prefix(ip, self.bits) == self.net
    }

    /// True when the two prefixes share any address: for prefixes this is
    /// exactly "one contains the other".
    pub fn intersects(&self, other: &PrefixFilter) -> bool {
        let bits = self.bits.min(other.bits);
        mask_prefix(self.net, bits) == mask_prefix(other.net, bits)
    }

    /// Splits `self` into its two child half-prefixes, if any remain
    /// (§3.1.1: "separate a task with filter [SrcIP:10.0.0.0/8] to subtask
    /// 1 with [10.0.0.0/9] and subtask 2 with [10.128.0.0/9]").
    pub fn split(&self) -> Option<(PrefixFilter, PrefixFilter)> {
        if self.bits >= 32 {
            return None;
        }
        let child_bits = self.bits + 1;
        let lo = PrefixFilter::new(self.net, child_bits);
        let hi = PrefixFilter::new(self.net | (1u32 << (32 - child_bits)), child_bits);
        Some((lo, hi))
    }
}

/// CIDR notation, or `*` for the prefix that matches everything.
impl fmt::Display for PrefixFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bits {
            0 => f.write_str("*"),
            bits => write!(f, "{}/{bits}", fmt_ipv4(self.net)),
        }
    }
}

/// Parses `*` or `a.b.c.d/n` with `n <= 32` (host bits are masked off);
/// the error names the prefix.
impl FromStr for PrefixFilter {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "*" {
            return Ok(PrefixFilter::ANY);
        }
        s.split_once('/')
            .and_then(|(ip, bits)| Some((parse_ipv4(ip)?, bits.parse().ok().filter(|&b| b <= 32)?)))
            .map(|(net, bits)| PrefixFilter::new(net, bits))
            .ok_or_else(|| format!("bad prefix '{s}' (want a.b.c.d/n or *)"))
    }
}

/// A task's traffic filter (§3.4: "The task definition in FlyMon includes a
/// filter, a key, an attribute, and a memory size").
///
/// The filter selects which packets feed the task; two tasks with
/// intersecting filters cannot share a CMU (§3.3, Limitation of Address
/// Translation), which [`TaskFilter::intersects`] lets the control plane
/// check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskFilter {
    /// Source-address prefix; `PrefixFilter::ANY` for no constraint.
    pub src: PrefixFilter,
    /// Destination-address prefix; `PrefixFilter::ANY` for no constraint.
    pub dst: PrefixFilter,
}

impl TaskFilter {
    /// Matches all traffic.
    pub const ANY: TaskFilter = TaskFilter {
        src: PrefixFilter::ANY,
        dst: PrefixFilter::ANY,
    };

    /// Filter on a source prefix only.
    pub fn src(net: Ipv4, bits: u8) -> Self {
        TaskFilter {
            src: PrefixFilter::new(net, bits),
            dst: PrefixFilter::ANY,
        }
    }

    /// Filter on a destination prefix only.
    pub fn dst(net: Ipv4, bits: u8) -> Self {
        TaskFilter {
            src: PrefixFilter::ANY,
            dst: PrefixFilter::new(net, bits),
        }
    }

    /// True when the packet passes both prefix constraints.
    pub fn matches(&self, pkt: &Packet) -> bool {
        self.src.matches(pkt.src_ip) && self.dst.matches(pkt.dst_ip)
    }

    /// True when some packet could match both filters.
    pub fn intersects(&self, other: &TaskFilter) -> bool {
        self.src.intersects(&other.src) && self.dst.intersects(&other.dst)
    }

    /// Splits along the source prefix into two disjoint sub-filters, the
    /// paper's task-splitting mechanism for reducing per-subtask collision
    /// rates. Falls back to splitting the destination prefix when the
    /// source prefix is already a /32.
    pub fn split(&self) -> Option<(TaskFilter, TaskFilter)> {
        if let Some((lo, hi)) = self.src.split() {
            return Some((
                TaskFilter { src: lo, ..*self },
                TaskFilter { src: hi, ..*self },
            ));
        }
        let (lo, hi) = self.dst.split()?;
        Some((
            TaskFilter { dst: lo, ..*self },
            TaskFilter { dst: hi, ..*self },
        ))
    }
}

/// `src->dst`, each side a [`PrefixFilter`].
impl fmt::Display for TaskFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// Parses `src->dst`, or a lone `src` prefix with any destination.
impl FromStr for TaskFilter {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (src, dst) = s.split_once("->").unwrap_or((s, "*"));
        Ok(TaskFilter {
            src: src.parse()?,
            dst: dst.parse()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching() {
        let f = PrefixFilter::new(parse_ipv4("10.0.0.0").unwrap(), 8);
        assert!(f.matches(parse_ipv4("10.1.2.3").unwrap()));
        assert!(!f.matches(parse_ipv4("11.0.0.0").unwrap()));
        assert!(PrefixFilter::ANY.matches(0xdead_beef));
    }

    #[test]
    fn constructor_masks_host_bits() {
        let f = PrefixFilter::new(parse_ipv4("10.1.2.3").unwrap(), 8);
        assert_eq!(f.net, parse_ipv4("10.0.0.0").unwrap());
    }

    #[test]
    fn prefix_intersection_is_containment() {
        let p8 = PrefixFilter::new(parse_ipv4("10.0.0.0").unwrap(), 8);
        let p16 = PrefixFilter::new(parse_ipv4("10.5.0.0").unwrap(), 16);
        let other = PrefixFilter::new(parse_ipv4("20.0.0.0").unwrap(), 8);
        assert!(p8.intersects(&p16));
        assert!(p16.intersects(&p8));
        assert!(!p8.intersects(&other));
        assert!(PrefixFilter::ANY.intersects(&p8));
    }

    #[test]
    fn split_matches_paper_example() {
        // filter[SrcIP:10.0.0.0/8] -> [10.0.0.0/9] and [10.128.0.0/9]
        let f = PrefixFilter::new(parse_ipv4("10.0.0.0").unwrap(), 8);
        let (lo, hi) = f.split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        // The halves are disjoint and cover the parent.
        assert!(!lo.intersects(&hi));
        assert!(f.intersects(&lo) && f.intersects(&hi));
    }

    #[test]
    fn split_exhausts_at_32_bits() {
        let f = PrefixFilter::new(1, 32);
        assert!(f.split().is_none());
    }

    #[test]
    fn task_filter_matching_and_intersection() {
        let a = TaskFilter::src(parse_ipv4("10.0.0.0").unwrap(), 24);
        let b = TaskFilter::src(parse_ipv4("10.0.0.0").unwrap(), 16);
        let c = TaskFilter::src(parse_ipv4("20.0.0.0").unwrap(), 8);
        // Paper §3.3: 10.0.0.0/24 and 10.0.0.0/16 intersect -> cannot
        // coexist on one CMU.
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));

        let pkt = Packet::tcp(parse_ipv4("10.0.0.7").unwrap(), 1, 2, 3);
        assert!(a.matches(&pkt));
        assert!(!c.matches(&pkt));
    }

    #[test]
    fn task_filter_split_prefers_src_then_dst() {
        let t = TaskFilter::src(parse_ipv4("10.0.0.0").unwrap(), 8);
        let (lo, hi) = t.split().unwrap();
        assert!(!lo.intersects(&hi));

        let full_src = TaskFilter {
            src: PrefixFilter::new(1, 32),
            dst: PrefixFilter::new(parse_ipv4("192.168.0.0").unwrap(), 16),
        };
        let (dlo, dhi) = full_src.split().unwrap();
        assert_eq!(dlo.src, full_src.src);
        assert!(!dlo.intersects(&dhi));
    }

    #[test]
    fn describe_forms() {
        assert_eq!(TaskFilter::ANY.to_string(), "*->*");
        let t = TaskFilter::dst(parse_ipv4("192.168.0.0").unwrap(), 24);
        assert_eq!(t.to_string(), "*->192.168.0.0/24");
        assert_eq!("*->192.168.0.0/24".parse(), Ok(t));
        assert_eq!(
            "10.1.0.0/8".parse(),
            Ok(TaskFilter::src(parse_ipv4("10.0.0.0").unwrap(), 8))
        );
        for bad in ["10.0.0.0/33", "10.0.0/8", "10.0.0.0", "*->**"] {
            let why = bad.parse::<TaskFilter>().unwrap_err();
            assert!(
                why.contains(&format!("'{}'", bad.rsplit("->").next().unwrap())),
                "{why}"
            );
        }
    }
}
