//! Minimal libpcap reader/writer (classic `tcpdump` format, no
//! dependencies).
//!
//! The paper evaluates on a WIDE backbone capture; this module lets real
//! captures drive the simulator. It understands the classic pcap global
//! header (magic `0xa1b2c3d4`, microsecond timestamps, both endiannesses,
//! plus the nanosecond `0xa1b23c4d` variant), Ethernet II framing, IPv4,
//! and TCP/UDP ports. Non-IPv4 records are skipped. Writing emits
//! little-endian microsecond pcap with synthesized Ethernet headers, so
//! generated traces open in Wireshark.

use std::io::{Read, Write};

use flymon_packet::{Packet, PacketBuilder};

/// Errors from pcap parsing.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a pcap file (bad magic).
    BadMagic(u32),
    /// Truncated record or header.
    Truncated,
    /// A record claims more captured bytes than the capture's snaplen
    /// allows; refused before anything is allocated for it.
    RecordTooLong {
        /// The record header's `incl_len`.
        incl_len: u32,
        /// The most a record of this capture may hold.
        limit: u32,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::Truncated => write!(f, "truncated pcap record"),
            PcapError::RecordTooLong { incl_len, limit } => {
                write!(
                    f,
                    "pcap record of {incl_len} bytes exceeds the {limit}-byte snaplen"
                )
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_NS: u32 = 0xa1b2_3c4d;

/// The most bytes one record may claim when the global header's snaplen
/// is 0 ("unlimited") or larger: `tcpdump`'s own maximum, 256 KiB.
const MAX_SNAPLEN: u32 = 256 * 1024;

struct Endian {
    swap: bool,
    nanos: bool,
}

impl Endian {
    fn u32(&self, b: [u8; 4]) -> u32 {
        if self.swap {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, PcapError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(false)
            } else {
                Err(PcapError::Truncated)
            };
        }
        filled += n;
    }
    Ok(true)
}

/// Reads a pcap capture, returning the IPv4 packets it contains (other
/// link-layer payloads are skipped). Timestamps are normalized so the
/// first record is at t = 0; a record stamped earlier than the first
/// (captures are not always in order) reads t = 0 too. A record longer
/// than the capture's snaplen is an error, not an allocation.
pub fn read_pcap<R: Read>(mut r: R) -> Result<Vec<Packet>, PcapError> {
    let mut header = [0u8; 24];
    if !read_exact_or_eof(&mut r, &mut header)? {
        return Ok(Vec::new());
    }
    let raw_magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let endian = match raw_magic {
        MAGIC_US => Endian {
            swap: false,
            nanos: false,
        },
        MAGIC_NS => Endian {
            swap: false,
            nanos: true,
        },
        m if m.swap_bytes() == MAGIC_US => Endian {
            swap: true,
            nanos: false,
        },
        m if m.swap_bytes() == MAGIC_NS => Endian {
            swap: true,
            nanos: true,
        },
        m => return Err(PcapError::BadMagic(m)),
    };
    let limit = match endian.u32([header[16], header[17], header[18], header[19]]) {
        0 => MAX_SNAPLEN,
        snaplen => snaplen.min(MAX_SNAPLEN),
    };

    let mut out = Vec::new();
    let mut first_ts: Option<u64> = None;
    loop {
        let mut rec = [0u8; 16];
        if !read_exact_or_eof(&mut r, &mut rec)? {
            break;
        }
        let ts_sec = endian.u32([rec[0], rec[1], rec[2], rec[3]]) as u64;
        let ts_frac = endian.u32([rec[4], rec[5], rec[6], rec[7]]) as u64;
        let incl_len = endian.u32([rec[8], rec[9], rec[10], rec[11]]);
        let orig_len = endian.u32([rec[12], rec[13], rec[14], rec[15]]);
        if incl_len > limit {
            return Err(PcapError::RecordTooLong { incl_len, limit });
        }
        let mut frame = vec![0u8; incl_len as usize];
        if !read_exact_or_eof(&mut r, &mut frame)? {
            return Err(PcapError::Truncated);
        }
        let ts_ns = ts_sec * 1_000_000_000
            + if endian.nanos {
                ts_frac
            } else {
                ts_frac * 1_000
            };
        let base = *first_ts.get_or_insert(ts_ns);

        if let Some(pkt) = parse_ethernet_ipv4(&frame, ts_ns.saturating_sub(base), orig_len) {
            out.push(pkt);
        }
    }
    Ok(out)
}

/// Parses Ethernet II + IPv4 (+ TCP/UDP ports where present).
fn parse_ethernet_ipv4(frame: &[u8], ts_ns: u64, orig_len: u32) -> Option<Packet> {
    if frame.len() < 14 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None; // not IPv4
    }
    let ip = &frame[14..];
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    // A header shorter than five words would put the "L4 ports" inside
    // the IP header itself.
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let protocol = ip[9];
    let src_ip = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst_ip = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    let l4 = &ip[ihl..];
    let (src_port, dst_port) = match protocol {
        6 | 17 if l4.len() >= 4 => (
            u16::from_be_bytes([l4[0], l4[1]]),
            u16::from_be_bytes([l4[2], l4[3]]),
        ),
        _ => (0, 0),
    };
    Some(
        PacketBuilder::new()
            .src_ip(src_ip)
            .dst_ip(dst_ip)
            .src_port(src_port)
            .dst_port(dst_port)
            .protocol(protocol)
            .len(orig_len.min(u32::from(u16::MAX)) as u16)
            .ts_ns(ts_ns)
            .build(),
    )
}

/// Writes packets as a classic little-endian microsecond pcap with
/// synthesized Ethernet/IPv4/TCP-UDP headers (queue metadata is not
/// representable in pcap and is dropped).
pub fn write_pcap<W: Write>(mut w: W, trace: &[Packet]) -> Result<(), PcapError> {
    // Global header: magic, version 2.4, tz 0, sigfigs 0, snaplen,
    // linktype 1 (Ethernet).
    w.write_all(&MAGIC_US.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?;
    w.write_all(&4u16.to_le_bytes())?;
    w.write_all(&0i32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&65535u32.to_le_bytes())?;
    w.write_all(&1u32.to_le_bytes())?;

    for p in trace {
        let mut frame = Vec::with_capacity(54);
        // Ethernet II: synthetic MACs, IPv4 ethertype.
        frame.extend_from_slice(&[2, 0, 0, 0, 0, 1]);
        frame.extend_from_slice(&[2, 0, 0, 0, 0, 2]);
        frame.extend_from_slice(&0x0800u16.to_be_bytes());
        // IPv4 header (20 bytes, no options).
        let total_len = u16::max(p.len, 28); // at least IP + L4 ports
        frame.push(0x45);
        frame.push(0);
        frame.extend_from_slice(&total_len.to_be_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
        frame.push(64); // ttl
        frame.push(p.protocol);
        frame.extend_from_slice(&[0, 0]); // checksum (not validated here)
        frame.extend_from_slice(&p.src_ip.to_be_bytes());
        frame.extend_from_slice(&p.dst_ip.to_be_bytes());
        // L4 ports (first 4 bytes of TCP/UDP).
        frame.extend_from_slice(&p.src_port.to_be_bytes());
        frame.extend_from_slice(&p.dst_port.to_be_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]); // rest of L4 stub

        let ts_sec = (p.ts_ns / 1_000_000_000) as u32;
        let ts_us = ((p.ts_ns % 1_000_000_000) / 1_000) as u32;
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_us.to_le_bytes())?;
        w.write_all(&(frame.len() as u32).to_le_bytes())?;
        w.write_all(&u32::from(total_len).to_le_bytes())?;
        w.write_all(&frame)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TraceConfig, TraceGenerator};

    #[test]
    fn round_trip_preserves_headers() {
        let trace = TraceGenerator::new(6).wide_like(&TraceConfig {
            flows: 50,
            packets: 1_000,
            ..TraceConfig::default()
        });
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let back = read_pcap(buf.as_slice()).unwrap();
        assert_eq!(back.len(), trace.len());
        let t0 = trace[0].ts_ns;
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.src_ip, b.src_ip);
            assert_eq!(a.dst_ip, b.dst_ip);
            assert_eq!(a.src_port, b.src_port);
            assert_eq!(a.dst_port, b.dst_port);
            assert_eq!(a.protocol, b.protocol);
            // Timestamps round to µs and are normalized to the first
            // packet by the reader.
            assert!((a.ts_ns - t0).abs_diff(b.ts_ns) < 2_000);
        }
    }

    #[test]
    fn big_endian_captures_parse() {
        // Hand-build a 1-packet big-endian µs capture.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        // Frame: reuse the writer's format for the payload.
        let pkt = flymon_packet::Packet::tcp(0x01020304, 0x05060708, 80, 443);
        let mut one = Vec::new();
        write_pcap(&mut one, &[pkt]).unwrap();
        let frame = &one[40..]; // skip its global+record header
                                // Record header (BE): t=1s, 500µs.
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&500u32.to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&60u32.to_be_bytes());
        buf.extend_from_slice(frame);
        let parsed = read_pcap(buf.as_slice()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].src_ip, 0x01020304);
        assert_eq!(parsed[0].dst_port, 443);
        assert_eq!(parsed[0].len, 60);
    }

    #[test]
    fn non_ipv4_frames_are_skipped() {
        let mut buf = Vec::new();
        let pkt = flymon_packet::Packet::udp(1, 2, 3, 4);
        write_pcap(&mut buf, &[pkt]).unwrap();
        // Corrupt the ethertype to ARP (0x0806).
        let ethertype_off = 24 + 16 + 12;
        buf[ethertype_off] = 0x08;
        buf[ethertype_off + 1] = 0x06;
        assert!(read_pcap(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadMagic(_))));
    }

    #[test]
    fn truncated_record_is_detected() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[flymon_packet::Packet::tcp(1, 2, 3, 4)]).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_pcap(buf.as_slice()),
            Err(PcapError::Truncated)
        ));
    }

    #[test]
    fn empty_capture_is_empty() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        assert!(read_pcap(buf.as_slice()).unwrap().is_empty());
        // Zero bytes entirely -> empty, not an error.
        assert!(read_pcap(&[][..]).unwrap().is_empty());
    }

    #[test]
    fn timestamps_are_normalized_to_first_packet() {
        let mut a = flymon_packet::Packet::tcp(1, 2, 3, 4);
        a.ts_ns = 5_000_000_000;
        let mut b = a;
        b.ts_ns = 5_000_500_000;
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[a, b]).unwrap();
        let parsed = read_pcap(buf.as_slice()).unwrap();
        assert_eq!(parsed[0].ts_ns, 0);
        assert_eq!(parsed[1].ts_ns, 500_000);
    }

    /// A well-formed ~50-packet capture image for the hostile-input
    /// tests.
    fn image() -> Vec<u8> {
        let trace = TraceGenerator::new(9).wide_like(&TraceConfig {
            flows: 12,
            packets: 50,
            ..TraceConfig::default()
        });
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        buf
    }

    #[test]
    fn mutated_and_truncated_captures_never_panic() {
        // Every byte that enters from outside yields `Ok` or `Err`. Run
        // in the debug profile, so an arithmetic overflow is a panic
        // here, not a wrap.
        let clean = image();
        assert_eq!(read_pcap(clean.as_slice()).unwrap().len(), 50);
        let mut buf = clean.clone();
        for at in 0..clean.len() {
            for byte in [0x00, 0xff, clean[at] ^ 0x80] {
                buf[at] = byte;
                let _ = read_pcap(buf.as_slice());
            }
            buf[at] = clean[at];
        }
        for len in 0..clean.len() {
            let _ = read_pcap(&clean[..len]);
        }
    }

    #[test]
    fn out_of_order_timestamps_saturate_at_zero() {
        let mut late = flymon_packet::Packet::tcp(1, 2, 3, 4);
        late.ts_ns = 7_000_000_000;
        let mut early = late;
        early.ts_ns = 6_999_000_000;
        let mut after = late;
        after.ts_ns = 7_000_250_000;
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[late, early, after]).unwrap();
        let parsed = read_pcap(buf.as_slice()).unwrap();
        let stamps: Vec<u64> = parsed.iter().map(|p| p.ts_ns).collect();
        assert_eq!(stamps, [0, 0, 250_000]);
    }

    #[test]
    fn oversized_incl_len_is_refused_before_allocating() {
        // Sixteen hostile bytes must not ask the allocator for 4 GiB.
        let mut buf = image();
        buf.truncate(24);
        buf.extend_from_slice(&[0; 8]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&60u32.to_le_bytes());
        assert!(matches!(
            read_pcap(buf.as_slice()),
            Err(PcapError::RecordTooLong {
                incl_len: u32::MAX,
                limit: 65535
            })
        ));
        // A header that declares no snaplen (or an absurd one) falls
        // back to the 256 KiB ceiling.
        for snaplen in [0u32, u32::MAX] {
            buf[16..20].copy_from_slice(&snaplen.to_le_bytes());
            assert!(matches!(
                read_pcap(buf.as_slice()),
                Err(PcapError::RecordTooLong {
                    limit: MAX_SNAPLEN,
                    ..
                })
            ));
        }
    }

    #[test]
    fn short_ip_header_length_is_skipped() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[flymon_packet::Packet::udp(1, 2, 3, 4)]).unwrap();
        let version_ihl = 24 + 16 + 14;
        assert_eq!(buf[version_ihl], 0x45);
        for ihl in 0..5 {
            buf[version_ihl] = 0x40 | ihl;
            assert!(read_pcap(buf.as_slice()).unwrap().is_empty(), "ihl {ihl}");
        }
    }
}
