//! Parameter sourcing for the initialization stage (§3.2).
//!
//! "The parameters can be constant values or standard metadata such as
//! packet size, timestamp, queue length, and delay. Besides, CMUs can also
//! set parameters as the compressed keys" — plus, for the combinatorial
//! tasks of §4, the *result of an upstream CMU* carried in the PHV.

use flymon_packet::Packet;

use crate::keysel::KeySource;

/// Reference to a CMU in the pipeline: `(group index, CMU index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CmuRef {
    /// Group index within the pipeline.
    pub group: usize,
    /// CMU index within the group.
    pub cmu: usize,
}

/// Where a parameter's per-packet value comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamSource {
    /// A constant installed by the control plane.
    Const(u32),
    /// Packet length in bytes.
    PacketBytes,
    /// Ingress timestamp in µs (32-bit slice of the hardware timestamp).
    TimestampUs,
    /// Egress queue occupancy.
    QueueLen,
    /// Queuing delay in µs.
    QueueDelayUs,
    /// A 32-bit compressed key from the compression stage.
    CompressedKey(KeySource),
    /// The forwarded output of an upstream CMU (carried in the PHV).
    /// Reads 0 if the upstream CMU did not execute for this packet.
    PrevResult(CmuRef),
    /// Running minimum over several upstream results, ignoring zeros
    /// (zero = "did not update"); `u32::MAX` when none updated. This is
    /// the PHV-side plumbing of SuMax(Sum)'s approximate conservative
    /// update across groups (§4 Heavy Hitter Detection).
    ChainMin(Vec<CmuRef>),
}

/// Per-packet scratch state carried between CMU Groups (the PHV fields a
/// packet accumulates as it traverses the pipeline).
#[derive(Debug, Default, Clone)]
pub struct PacketContext {
    results: Vec<((usize, usize), u32)>,
}

impl PacketContext {
    /// Clears the context for a new packet.
    pub fn reset(&mut self) {
        self.results.clear();
    }

    /// Number of recorded results so far (used by the pipeline to detect
    /// whether a group executed anything for this packet).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Records the forwarded output of `(group, cmu)`.
    pub fn record(&mut self, group: usize, cmu: usize, value: u32) {
        self.results.push(((group, cmu), value));
    }

    /// Reads a recorded output; 0 when absent (matching PHV fields that
    /// were never written).
    pub fn get(&self, r: CmuRef) -> u32 {
        self.results
            .iter()
            .find(|&&(k, _)| k == (r.group, r.cmu))
            .map_or(0, |&(_, v)| v)
    }
}

impl ParamSource {
    /// True when resolution reads the per-packet PHV context — the batch
    /// path only maintains contexts when some installed source or
    /// preparation reads one.
    pub fn reads_ctx(&self) -> bool {
        matches!(self, ParamSource::PrevResult(_) | ParamSource::ChainMin(_))
    }

    /// Resolves the parameter value for one packet.
    #[inline]
    pub fn resolve(&self, pkt: &Packet, compressed: &[u32], ctx: &PacketContext) -> u32 {
        match self {
            ParamSource::Const(v) => *v,
            ParamSource::PacketBytes => u32::from(pkt.len),
            ParamSource::TimestampUs => (pkt.ts_ns / 1_000) as u32,
            ParamSource::QueueLen => pkt.queue_len,
            ParamSource::QueueDelayUs => pkt.queue_delay_ns / 1_000,
            ParamSource::CompressedKey(src) => src.resolve(compressed),
            ParamSource::PrevResult(r) => ctx.get(*r),
            ParamSource::ChainMin(refs) => refs
                .iter()
                .map(|&r| ctx.get(r))
                .filter(|&v| v != 0)
                .min()
                .unwrap_or(u32::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::PacketBuilder;

    fn pkt() -> Packet {
        PacketBuilder::new()
            .len(1200)
            .ts_ns(3_000_000)
            .queue_len(42)
            .queue_delay_ns(7_000)
            .build()
    }

    #[test]
    fn metadata_sources() {
        let ctx = PacketContext::default();
        let c: [u32; 0] = [];
        assert_eq!(ParamSource::Const(9).resolve(&pkt(), &c, &ctx), 9);
        assert_eq!(ParamSource::PacketBytes.resolve(&pkt(), &c, &ctx), 1200);
        assert_eq!(ParamSource::TimestampUs.resolve(&pkt(), &c, &ctx), 3_000);
        assert_eq!(ParamSource::QueueLen.resolve(&pkt(), &c, &ctx), 42);
        assert_eq!(ParamSource::QueueDelayUs.resolve(&pkt(), &c, &ctx), 7);
    }

    #[test]
    fn compressed_key_source() {
        let ctx = PacketContext::default();
        let compressed = [0xdead_beef, 0x1111_0000];
        let p = ParamSource::CompressedKey(KeySource::Xor(0, 1));
        assert_eq!(p.resolve(&pkt(), &compressed, &ctx), 0xcfbc_beef);
    }

    #[test]
    fn prev_result_reads_zero_when_absent() {
        let mut ctx = PacketContext::default();
        let r = CmuRef { group: 0, cmu: 1 };
        assert_eq!(ParamSource::PrevResult(r).resolve(&pkt(), &[], &ctx), 0);
        ctx.record(0, 1, 77);
        assert_eq!(ParamSource::PrevResult(r).resolve(&pkt(), &[], &ctx), 77);
        ctx.reset();
        assert_eq!(ParamSource::PrevResult(r).resolve(&pkt(), &[], &ctx), 0);
    }

    #[test]
    fn chain_min_skips_non_updates() {
        let mut ctx = PacketContext::default();
        ctx.record(0, 0, 12);
        ctx.record(1, 0, 0); // CMU did not update
        ctx.record(2, 0, 8);
        let p = ParamSource::ChainMin(vec![
            CmuRef { group: 0, cmu: 0 },
            CmuRef { group: 1, cmu: 0 },
            CmuRef { group: 2, cmu: 0 },
        ]);
        assert_eq!(p.resolve(&pkt(), &[], &ctx), 8);

        let all_zero = ParamSource::ChainMin(vec![CmuRef { group: 1, cmu: 0 }]);
        assert_eq!(all_zero.resolve(&pkt(), &[], &ctx), u32::MAX);
    }
}
