//! The candidate key set: individual protocol fields a key can draw from.

use crate::Packet;

/// A header field in the candidate key set.
///
/// The paper's evaluation (§5, "Setting") uses the IPv4 5-tuple plus the
/// ingress timestamp as the candidate key set; `Timestamp` is what lets a
/// BeauCoup CMU count "distinct timestamps" as a frequency proxy (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeaderField {
    /// IPv4 source address (32 bits).
    SrcIp,
    /// IPv4 destination address (32 bits).
    DstIp,
    /// Transport source port (16 bits).
    SrcPort,
    /// Transport destination port (16 bits).
    DstPort,
    /// IP protocol number (8 bits).
    Protocol,
    /// Ingress timestamp, quantized to microseconds (32 bits on the wire
    /// model; Tofino exposes a 48-bit ingress timestamp of which sketches
    /// use a 32-bit slice).
    Timestamp,
}

impl HeaderField {
    /// All fields of the candidate key set, in canonical order.
    pub const ALL: [HeaderField; 6] = [
        HeaderField::SrcIp,
        HeaderField::DstIp,
        HeaderField::SrcPort,
        HeaderField::DstPort,
        HeaderField::Protocol,
        HeaderField::Timestamp,
    ];

    /// Width of the field in bits.
    pub fn width_bits(self) -> u32 {
        match self {
            HeaderField::SrcIp | HeaderField::DstIp | HeaderField::Timestamp => 32,
            HeaderField::SrcPort | HeaderField::DstPort => 16,
            HeaderField::Protocol => 8,
        }
    }

    /// Reads the field's value from a packet, zero-extended to 32 bits.
    ///
    /// `Timestamp` is quantized to microseconds so that "distinct
    /// timestamps" has the granularity the paper's BeauCoup-for-frequency
    /// trick relies on.
    pub fn read(self, pkt: &Packet) -> u32 {
        match self {
            HeaderField::SrcIp => pkt.src_ip,
            HeaderField::DstIp => pkt.dst_ip,
            HeaderField::SrcPort => u32::from(pkt.src_port),
            HeaderField::DstPort => u32::from(pkt.dst_port),
            HeaderField::Protocol => u32::from(pkt.protocol),
            HeaderField::Timestamp => (pkt.ts_ns / 1_000) as u32,
        }
    }

    /// The field's name in the key grammar (`KeySpec`'s `Display` and
    /// `FromStr`).
    pub fn name(self) -> &'static str {
        match self {
            HeaderField::SrcIp => "SrcIP",
            HeaderField::DstIp => "DstIP",
            HeaderField::SrcPort => "SrcPort",
            HeaderField::DstPort => "DstPort",
            HeaderField::Protocol => "Proto",
            HeaderField::Timestamp => "Ts",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuilder;

    #[test]
    fn widths_sum_to_candidate_key_size() {
        // 5-tuple = 104 bits (§3.1.1); plus the 32-bit timestamp = 136.
        let five_tuple: u32 = HeaderField::ALL
            .iter()
            .filter(|f| !matches!(f, HeaderField::Timestamp))
            .map(|f| f.width_bits())
            .sum();
        assert_eq!(five_tuple, 104);
        let total: u32 = HeaderField::ALL.iter().map(|f| f.width_bits()).sum();
        assert_eq!(total, 136);
    }

    #[test]
    fn read_extracts_each_field() {
        let p = PacketBuilder::new()
            .src_ip(0x01020304)
            .dst_ip(0x05060708)
            .src_port(9)
            .dst_port(10)
            .protocol(11)
            .ts_ns(12_345_678)
            .build();
        assert_eq!(HeaderField::SrcIp.read(&p), 0x01020304);
        assert_eq!(HeaderField::DstIp.read(&p), 0x05060708);
        assert_eq!(HeaderField::SrcPort.read(&p), 9);
        assert_eq!(HeaderField::DstPort.read(&p), 10);
        assert_eq!(HeaderField::Protocol.read(&p), 11);
        assert_eq!(HeaderField::Timestamp.read(&p), 12_345); // µs
    }
}
