//! Flow keys: any partial key of the candidate key set.

use std::{fmt, str::FromStr};

use crate::{fmt_ipv4, HeaderField, Packet};

/// Maximum serialized key length in bytes: SrcIP(4) + DstIP(4) + ports(2+2)
/// + protocol(1) + timestamp(4) = 17, rounded up for alignment headroom.
pub const MAX_KEY_BYTES: usize = 20;

/// Canonical byte serialization of an extracted flow key.
///
/// Inline, fixed-capacity buffer: extraction never allocates. Fields are
/// serialized big-endian in the canonical order of [`HeaderField::ALL`];
/// masked-out prefix bits are zeroed *and* the serialization length is
/// fixed per `KeySpec`, so two packets collide on bytes iff they agree on
/// the selected key bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKeyBytes {
    buf: [u8; MAX_KEY_BYTES],
    len: u8,
}

impl FlowKeyBytes {
    /// Empty key (matches the paper's `N/A` key for single-key tasks such
    /// as cardinality, where every packet maps to the same logical flow).
    pub const EMPTY: FlowKeyBytes = FlowKeyBytes {
        buf: [0; MAX_KEY_BYTES],
        len: 0,
    };

    fn push_u32(&mut self, v: u32) {
        let l = self.len as usize;
        self.buf[l..l + 4].copy_from_slice(&v.to_be_bytes());
        self.len += 4;
    }

    fn push_u16(&mut self, v: u16) {
        let l = self.len as usize;
        self.buf[l..l + 2].copy_from_slice(&v.to_be_bytes());
        self.len += 2;
    }

    fn push_u8(&mut self, v: u8) {
        self.buf[self.len as usize] = v;
        self.len += 1;
    }

    /// The serialized key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// True when no field is selected.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl AsRef<[u8]> for FlowKeyBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A *partial key* over the candidate key set (§2.1, §3.1.1).
///
/// A `KeySpec` selects which header fields participate in the flow key.
/// Address fields carry a prefix length so `SrcIP/24`-style keys are first
/// class. A `KeySpec` with all fields deselected is the `N/A` key used by
/// single-key tasks (flow cardinality): every packet belongs to one flow.
///
/// ```
/// use flymon_packet::{KeySpec, Packet};
/// let k = KeySpec::IP_PAIR;
/// let a = k.extract(&Packet::tcp(0x0a000001, 0x0a000002, 5, 6));
/// let b = k.extract(&Packet::tcp(0x0a000001, 0x0a000002, 7, 8));
/// assert_eq!(a, b); // ports are not part of the IP-pair key
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySpec {
    /// Number of SrcIP prefix bits included (0 = field absent, 32 = full).
    pub src_ip_prefix: u8,
    /// Number of DstIP prefix bits included (0 = field absent, 32 = full).
    pub dst_ip_prefix: u8,
    /// Include the source port.
    pub src_port: bool,
    /// Include the destination port.
    pub dst_port: bool,
    /// Include the protocol number.
    pub protocol: bool,
    /// Include the (µs-quantized) ingress timestamp.
    pub timestamp: bool,
}

impl KeySpec {
    /// The empty (`N/A`) key: all packets fall into a single flow.
    pub const NONE: KeySpec = KeySpec {
        src_ip_prefix: 0,
        dst_ip_prefix: 0,
        src_port: false,
        dst_port: false,
        protocol: false,
        timestamp: false,
    };

    /// Full 32-bit source address.
    pub const SRC_IP: KeySpec = KeySpec {
        src_ip_prefix: 32,
        ..KeySpec::NONE
    };

    /// Full 32-bit destination address.
    pub const DST_IP: KeySpec = KeySpec {
        dst_ip_prefix: 32,
        ..KeySpec::NONE
    };

    /// Source–destination address pair.
    pub const IP_PAIR: KeySpec = KeySpec {
        src_ip_prefix: 32,
        dst_ip_prefix: 32,
        ..KeySpec::NONE
    };

    /// SrcIP + SrcPort (e.g. per-endpoint tasks).
    pub const SRC_IP_SRC_PORT: KeySpec = KeySpec {
        src_ip_prefix: 32,
        src_port: true,
        ..KeySpec::NONE
    };

    /// The classic 5-tuple.
    pub const FIVE_TUPLE: KeySpec = KeySpec {
        src_ip_prefix: 32,
        dst_ip_prefix: 32,
        src_port: true,
        dst_port: true,
        protocol: true,
        timestamp: false,
    };

    /// Source prefix key, e.g. `KeySpec::src_ip_slash(24)` for `SrcIP/24`.
    ///
    /// # Panics
    /// Panics if `bits > 32`.
    pub const fn src_ip_slash(bits: u8) -> KeySpec {
        assert!(bits <= 32);
        KeySpec {
            src_ip_prefix: bits,
            ..KeySpec::NONE
        }
    }

    /// Width of the selected key in bits (prefix bits count as their
    /// prefix length, exactly the "PHV copy" cost of the naive strategy in
    /// §3.1.1).
    pub fn width_bits(&self) -> u32 {
        let mut bits = u32::from(self.src_ip_prefix) + u32::from(self.dst_ip_prefix);
        if self.src_port {
            bits += 16;
        }
        if self.dst_port {
            bits += 16;
        }
        if self.protocol {
            bits += 8;
        }
        if self.timestamp {
            bits += 32;
        }
        bits
    }

    /// True when no field is selected (the `N/A` key).
    pub fn is_empty(&self) -> bool {
        self.width_bits() == 0
    }

    /// True when every field selected by `other` is also selected by
    /// `self` with at least the same prefix length. A CMU whose hash units
    /// are configured for `self`'s fields can derive `other` by masking.
    pub fn covers(&self, other: &KeySpec) -> bool {
        self.src_ip_prefix >= other.src_ip_prefix
            && self.dst_ip_prefix >= other.dst_ip_prefix
            && (self.src_port || !other.src_port)
            && (self.dst_port || !other.dst_port)
            && (self.protocol || !other.protocol)
            && (self.timestamp || !other.timestamp)
    }

    /// Merges two keys whose field sets are disjoint; `None` if any field
    /// overlaps. This is the key algebra behind XOR composition of
    /// compressed keys (§3.1.1: `C(SrcIP) ⊕ C(DstIP)` realizes the
    /// IP-pair key).
    pub fn merge_disjoint(&self, other: &KeySpec) -> Option<KeySpec> {
        let overlap = (self.src_ip_prefix > 0 && other.src_ip_prefix > 0)
            || (self.dst_ip_prefix > 0 && other.dst_ip_prefix > 0)
            || (self.src_port && other.src_port)
            || (self.dst_port && other.dst_port)
            || (self.protocol && other.protocol)
            || (self.timestamp && other.timestamp);
        if overlap {
            return None;
        }
        Some(KeySpec {
            src_ip_prefix: self.src_ip_prefix.max(other.src_ip_prefix),
            dst_ip_prefix: self.dst_ip_prefix.max(other.dst_ip_prefix),
            src_port: self.src_port || other.src_port,
            dst_port: self.dst_port || other.dst_port,
            protocol: self.protocol || other.protocol,
            timestamp: self.timestamp || other.timestamp,
        })
    }

    /// Serializes the selected key bits of `pkt` into canonical bytes.
    ///
    /// Prefix-masked addresses zero their host bits, so `SrcIP/24` keys of
    /// `10.0.0.1` and `10.0.0.2` serialize identically.
    pub fn extract(&self, pkt: &Packet) -> FlowKeyBytes {
        let mut out = FlowKeyBytes::EMPTY;
        if self.src_ip_prefix > 0 {
            out.push_u32(mask_prefix(pkt.src_ip, self.src_ip_prefix));
        }
        if self.dst_ip_prefix > 0 {
            out.push_u32(mask_prefix(pkt.dst_ip, self.dst_ip_prefix));
        }
        if self.src_port {
            out.push_u16(pkt.src_port);
        }
        if self.dst_port {
            out.push_u16(pkt.dst_port);
        }
        if self.protocol {
            out.push_u8(pkt.protocol);
        }
        if self.timestamp {
            out.push_u32(HeaderField::Timestamp.read(pkt));
        }
        out
    }

    /// The prefix each field of [`HeaderField::ALL`] keeps: 0 = absent,
    /// 32 = the whole field (what a port, protocol or timestamp always is).
    fn widths(&self) -> [u8; 6] {
        let flag = |on: bool| if on { 32 } else { 0 };
        let (sp, dp) = (flag(self.src_port), flag(self.dst_port));
        [
            self.src_ip_prefix,
            self.dst_ip_prefix,
            sp,
            dp,
            flag(self.protocol),
            flag(self.timestamp),
        ]
    }

    /// Renders the concrete key value of a packet for reports
    /// (e.g. `10.0.0.0/8` or `10.0.0.1->192.168.0.1`).
    pub fn render(&self, pkt: &Packet) -> String {
        if self.is_empty() {
            return "*".to_string();
        }
        let mut parts = Vec::new();
        if self.src_ip_prefix > 0 {
            let ip = fmt_ipv4(mask_prefix(pkt.src_ip, self.src_ip_prefix));
            if self.src_ip_prefix == 32 {
                parts.push(ip);
            } else {
                parts.push(format!("{ip}/{}", self.src_ip_prefix));
            }
        }
        if self.dst_ip_prefix > 0 {
            let ip = fmt_ipv4(mask_prefix(pkt.dst_ip, self.dst_ip_prefix));
            if self.dst_ip_prefix == 32 {
                parts.push(format!("->{ip}"));
            } else {
                parts.push(format!("->{ip}/{}", self.dst_ip_prefix));
            }
        }
        if self.src_port {
            parts.push(format!(":{}", pkt.src_port));
        }
        if self.dst_port {
            parts.push(format!(":{}", pkt.dst_port));
        }
        if self.protocol {
            parts.push(format!("p{}", pkt.protocol));
        }
        if self.timestamp {
            parts.push(format!("t{}", HeaderField::Timestamp.read(pkt)));
        }
        parts.concat()
    }
}

/// `SrcIP/24+DstPort`, `SrcIP+DstIP`, or `N/A` for the empty key.
impl fmt::Display for KeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("N/A");
        }
        let mut sep = "";
        for (field, bits) in HeaderField::ALL.into_iter().zip(self.widths()) {
            match bits {
                0 => continue,
                32 => write!(f, "{sep}{}", field.name())?,
                n => write!(f, "{sep}{}/{n}", field.name())?,
            }
            sep = "+";
        }
        Ok(())
    }
}

/// Parses what `Display` prints, in any letter case, and the aliases
/// `none`, `ippair`, `5tuple` and `flowid`. The error names the field
/// that is unknown, repeated, or has a prefix outside `1..=32`.
impl FromStr for KeySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "n/a" | "none" => return Ok(KeySpec::NONE),
            "ippair" => return Ok(KeySpec::IP_PAIR),
            "5tuple" | "flowid" => return Ok(KeySpec::FIVE_TUPLE),
            _ => {}
        }
        let mut widths = [0u8; 6];
        for part in s.split('+') {
            let (name, bits) = part
                .split_once('/')
                .map_or((part, None), |(n, b)| (n, Some(b)));
            let field = HeaderField::ALL
                .iter()
                .position(|f| f.name().eq_ignore_ascii_case(name));
            let width = match (field, bits) {
                (Some(0 | 1), Some(b)) => b.parse().ok().filter(|b| (1..=32).contains(b)),
                (_, None) => Some(32),
                _ => None,
            };
            match field.zip(width) {
                Some((i, w)) if widths[i] == 0 => widths[i] = w,
                _ => {
                    let have = "SrcIP[/n], DstIP[/n], SrcPort, DstPort, Proto, Ts";
                    return Err(format!("bad key field '{part}' (have {have})"));
                }
            }
        }
        let [_, _, src_port, dst_port, protocol, timestamp] = widths.map(|w| w > 0);
        Ok(KeySpec {
            src_ip_prefix: widths[0],
            dst_ip_prefix: widths[1],
            src_port,
            dst_port,
            protocol,
            timestamp,
        })
    }
}

/// A [`KeySpec`] compiled for the compression stage: the address masks
/// are worked out once, when a hash mask is installed, instead of per
/// packet.
///
/// [`KeyPlan::fold`] hands a CRC exactly the bytes of
/// [`KeySpec::extract`] (which stays the reference), field by field and
/// straight from the packet — no key buffer, no memo lookup. Its steps
/// depend on the plan alone, never on the packet, which is what lets a
/// whole lane group of packets be folded in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPlan {
    /// Prefix mask of the source address; 0 = field absent (a present
    /// field has at least one prefix bit, so its mask is never 0).
    src_mask: u32,
    /// Prefix mask of the destination address; 0 = field absent.
    dst_mask: u32,
    src_port: bool,
    dst_port: bool,
    protocol: bool,
    timestamp: bool,
}

impl KeyPlan {
    /// Folds the key of each packet in `pkts` (one lane each) into
    /// `state`, field by field in the order [`KeySpec::extract`]
    /// serializes them. `word` absorbs four key bytes per lane, given as
    /// the word `u32::from_le_bytes` reads from them: a masked address,
    /// the two ports together, the timestamp. `byte` absorbs one: each
    /// half of a lone port (high byte first) and the protocol.
    #[inline(always)]
    pub fn fold<S, const N: usize>(
        &self,
        pkts: [&Packet; N],
        mut state: S,
        mut word: impl FnMut(S, [u32; N]) -> S,
        mut byte: impl FnMut(S, [u8; N]) -> S,
    ) -> S {
        if self.src_mask != 0 {
            state = word(state, pkts.map(|p| (p.src_ip & self.src_mask).swap_bytes()));
        }
        if self.dst_mask != 0 {
            state = word(state, pkts.map(|p| (p.dst_ip & self.dst_mask).swap_bytes()));
        }
        let mut port = |state, port: [u16; N]| {
            let state = byte(state, port.map(|v| (v >> 8) as u8));
            byte(state, port.map(|v| v as u8))
        };
        state = match (self.src_port, self.dst_port) {
            (true, true) => word(
                state,
                pkts.map(|p| ((u32::from(p.src_port) << 16) | u32::from(p.dst_port)).swap_bytes()),
            ),
            (true, false) => port(state, pkts.map(|p| p.src_port)),
            (false, true) => port(state, pkts.map(|p| p.dst_port)),
            (false, false) => state,
        };
        if self.protocol {
            state = byte(state, pkts.map(|p| p.protocol));
        }
        if self.timestamp {
            state = word(
                state,
                pkts.map(|p| HeaderField::Timestamp.read(p).swap_bytes()),
            );
        }
        state
    }
}

impl KeySpec {
    /// Compiles this key to its [`KeyPlan`].
    pub fn plan(&self) -> KeyPlan {
        KeyPlan {
            src_mask: mask_prefix(u32::MAX, self.src_ip_prefix),
            dst_mask: mask_prefix(u32::MAX, self.dst_ip_prefix),
            src_port: self.src_port,
            dst_port: self.dst_port,
            protocol: self.protocol,
            timestamp: self.timestamp,
        }
    }
}

/// Keeps the top `bits` bits of `v`, zeroing the rest.
pub(crate) fn mask_prefix(v: u32, bits: u8) -> u32 {
    match bits {
        0 => 0,
        b if b >= 32 => v,
        b => v & (u32::MAX << (32 - b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuilder;

    fn pkt() -> Packet {
        PacketBuilder::new()
            .src_ip(0x0a010203) // 10.1.2.3
            .dst_ip(0xc0a80001) // 192.168.0.1
            .src_port(1000)
            .dst_port(80)
            .protocol(6)
            .ts_ns(5_000)
            .build()
    }

    #[test]
    fn mask_prefix_edges() {
        assert_eq!(mask_prefix(0xffff_ffff, 0), 0);
        assert_eq!(mask_prefix(0xffff_ffff, 32), 0xffff_ffff);
        assert_eq!(mask_prefix(0xffff_ffff, 8), 0xff00_0000);
        assert_eq!(mask_prefix(0x0a010203, 24), 0x0a010200);
    }

    #[test]
    fn five_tuple_width_is_104_bits() {
        assert_eq!(KeySpec::FIVE_TUPLE.width_bits(), 104);
    }

    #[test]
    fn empty_key_maps_everything_together() {
        let k = KeySpec::NONE;
        assert!(k.is_empty());
        let a = k.extract(&pkt());
        let b = k.extract(&Packet::udp(9, 9, 9, 9));
        assert_eq!(a, b);
        assert!(a.is_empty());
    }

    #[test]
    fn prefix_key_groups_subnets() {
        let k = KeySpec::src_ip_slash(24);
        let a = k.extract(&Packet::tcp(0x0a010203, 1, 1, 1));
        let b = k.extract(&Packet::tcp(0x0a0102ff, 2, 2, 2));
        let c = k.extract(&Packet::tcp(0x0a010303, 1, 1, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn extraction_is_canonical_and_injective_on_selected_bits() {
        let k = KeySpec::FIVE_TUPLE;
        let a = k.extract(&pkt());
        assert_eq!(a.as_bytes().len(), 13); // 4+4+2+2+1
        let mut other = pkt();
        other.src_port += 1;
        assert_ne!(a, k.extract(&other));
        // Unselected fields must not perturb the key.
        let mut len_changed = pkt();
        len_changed.len = 1500;
        assert_eq!(a, k.extract(&len_changed));
    }

    #[test]
    fn covers_relation() {
        assert!(KeySpec::FIVE_TUPLE.covers(&KeySpec::SRC_IP));
        assert!(KeySpec::SRC_IP.covers(&KeySpec::src_ip_slash(24)));
        assert!(!KeySpec::src_ip_slash(24).covers(&KeySpec::SRC_IP));
        assert!(!KeySpec::DST_IP.covers(&KeySpec::SRC_IP));
        assert!(KeySpec::IP_PAIR.covers(&KeySpec::IP_PAIR));
    }

    #[test]
    fn describe_and_render() {
        assert_eq!(KeySpec::NONE.to_string(), "N/A");
        assert_eq!(KeySpec::IP_PAIR.to_string(), "SrcIP+DstIP");
        assert_eq!(KeySpec::src_ip_slash(24).to_string(), "SrcIP/24");
        assert_eq!(
            KeySpec::FIVE_TUPLE.to_string(),
            "SrcIP+DstIP+SrcPort+DstPort+Proto"
        );
        assert_eq!("5tuple".parse(), Ok(KeySpec::FIVE_TUPLE));
        assert_eq!("srcip/24".parse(), Ok(KeySpec::src_ip_slash(24)));
        for bad in [
            "SrcIP/33",
            "SrcIP/0",
            "SrcPort/8",
            "SrcIP+SrcIP",
            "Port",
            "",
        ] {
            let why = bad.parse::<KeySpec>().unwrap_err();
            assert!(
                why.contains(&format!("'{}'", bad.rsplit('+').next().unwrap())),
                "{why}"
            );
        }
        assert_eq!(KeySpec::src_ip_slash(24).render(&pkt()), "10.1.2.0/24");
        assert_eq!(KeySpec::IP_PAIR.render(&pkt()), "10.1.2.3->192.168.0.1");
    }

    #[test]
    fn merge_disjoint_composes_ip_pair() {
        let merged = KeySpec::SRC_IP.merge_disjoint(&KeySpec::DST_IP).unwrap();
        assert_eq!(merged, KeySpec::IP_PAIR);
        // Overlapping fields refuse to merge.
        assert!(KeySpec::SRC_IP.merge_disjoint(&KeySpec::SRC_IP).is_none());
        assert!(KeySpec::IP_PAIR.merge_disjoint(&KeySpec::DST_IP).is_none());
        // Prefixes count as the field being present.
        assert!(KeySpec::src_ip_slash(8)
            .merge_disjoint(&KeySpec::src_ip_slash(24))
            .is_none());
        // Empty key is the identity.
        assert_eq!(
            KeySpec::NONE.merge_disjoint(&KeySpec::FIVE_TUPLE),
            Some(KeySpec::FIVE_TUPLE)
        );
    }

    #[test]
    fn key_plan_folds_exactly_what_extract_serializes() {
        // Every field subset x every interesting prefix length, eight
        // packets folded as one lane group by closures that collect each
        // lane's bytes, against the untouched reference serialization.
        let prefixes = [0u8, 1, 8, 24, 31, 32];
        let mut rng = crate::SplitMix64::new(0x6b65_7970);
        let mut specs = 0;
        for src_ip_prefix in prefixes {
            for dst_ip_prefix in prefixes {
                for flags in 0..16u8 {
                    let spec = KeySpec {
                        src_ip_prefix,
                        dst_ip_prefix,
                        src_port: flags & 1 != 0,
                        dst_port: flags & 2 != 0,
                        protocol: flags & 4 != 0,
                        timestamp: flags & 8 != 0,
                    };
                    specs += 1;
                    let pkts: [Packet; 8] = std::array::from_fn(|_| {
                        PacketBuilder::new()
                            .src_ip(rng.next_u32())
                            .dst_ip(rng.next_u32())
                            .src_port(rng.next_u32() as u16)
                            .dst_port(rng.next_u32() as u16)
                            .protocol(rng.next_u32() as u8)
                            .ts_ns(rng.next_u64() >> 20)
                            .build()
                    });
                    let lanes: [Vec<u8>; 8] = spec.plan().fold(
                        pkts.each_ref(),
                        std::array::from_fn(|_| Vec::new()),
                        |mut lanes, w| {
                            lanes
                                .iter_mut()
                                .zip(w)
                                .for_each(|(k, w)| k.extend(w.to_le_bytes()));
                            lanes
                        },
                        |mut lanes, b| {
                            lanes.iter_mut().zip(b).for_each(|(k, b)| k.push(b));
                            lanes
                        },
                    );
                    for (key, p) in lanes.iter().zip(&pkts) {
                        assert_eq!(key.as_slice(), spec.extract(p).as_bytes(), "{spec:?}");
                    }
                }
            }
        }
        assert_eq!(specs, 6 * 6 * 16);
    }

    #[test]
    fn timestamp_key_quantizes_to_microseconds() {
        let k = KeySpec {
            timestamp: true,
            ..KeySpec::NONE
        };
        let mut a = pkt();
        a.ts_ns = 1_000;
        let mut b = pkt();
        b.ts_ns = 1_999;
        let mut c = pkt();
        c.ts_ns = 2_000;
        assert_eq!(k.extract(&a), k.extract(&b));
        assert_ne!(k.extract(&a), k.extract(&c));
    }
}
