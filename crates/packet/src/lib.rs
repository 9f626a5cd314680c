//! Packet model and flow-key algebra for the FlyMon reproduction.
//!
//! A measurement task in FlyMon (§2.1 of the paper) is the combination of a
//! *flow key* and a *flow attribute with parameters*. This crate provides the
//! vocabulary both sides of that definition are written in:
//!
//! - [`Packet`]: an IPv4 packet header plus the standard metadata the data
//!   plane exposes (packet length, arrival timestamp, queue length, queue
//!   delay). These metadata are what attribute *parameters* can refer to.
//! - [`HeaderField`]: the individual protocol fields of the candidate key
//!   set (SrcIP, DstIP, SrcPort, DstPort, Protocol, plus the ingress
//!   timestamp used by the paper's evaluation setting).
//! - [`KeySpec`]: a *partial key* of the candidate key set — any combination
//!   of fields, with per-address prefix lengths (SrcIP/24, IP-pair, 5-tuple,
//!   ...). [`KeySpec::extract`] serializes the selected bits of a packet
//!   into canonical bytes for hashing; [`KeySpec::plan`] compiles it to a
//!   [`KeyPlan`] that folds the same bytes straight into a hash.
//! - [`TaskFilter`]: prefix-based traffic filters used to isolate tasks and
//!   to split heavy tasks into sub-tasks (§3.1.1, §3.3).
//!
//! The crate is intentionally dependency-free and allocation-free on the hot
//! path: key extraction writes into a fixed-size inline buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fields;
mod filter;
mod key;
mod packet;
pub mod rng;

pub use fields::HeaderField;
pub use filter::{PrefixFilter, TaskFilter};
pub use key::{FlowKeyBytes, KeyPlan, KeySpec, MAX_KEY_BYTES};
pub use packet::{Packet, PacketBuilder};
pub use rng::SplitMix64;

/// Convenience alias for an IPv4 address in host byte order.
///
/// We deliberately use a plain `u32` (rather than `std::net::Ipv4Addr`) so
/// that prefix masking, hashing and arithmetic on addresses stay explicit
/// and cheap; [`fmt_ipv4`] renders the dotted form for human output.
pub type Ipv4 = u32;

/// Formats a host-byte-order IPv4 address in dotted-decimal notation.
pub fn fmt_ipv4(ip: Ipv4) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xff,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// Parses dotted-decimal IPv4 notation into a host-byte-order `u32`.
///
/// Returns `None` on malformed input. Used by examples and tests; the hot
/// path never parses strings.
pub fn parse_ipv4(s: &str) -> Option<Ipv4> {
    let mut parts = s.split('.');
    let mut ip: u32 = 0;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        ip = (ip << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_round_trip() {
        for s in ["0.0.0.0", "10.0.0.1", "192.168.69.100", "255.255.255.255"] {
            let ip = parse_ipv4(s).unwrap();
            assert_eq!(fmt_ipv4(ip), s);
        }
    }

    #[test]
    fn ipv4_rejects_malformed() {
        for s in ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3"] {
            assert_eq!(parse_ipv4(s), None, "{s:?} should not parse");
        }
    }

    #[test]
    fn ipv4_byte_order_is_big_endian_semantics() {
        assert_eq!(parse_ipv4("1.2.3.4"), Some(0x0102_0304));
    }
}
