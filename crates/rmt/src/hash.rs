//! Hash units: CRC-based 32-bit digests with dynamic hash masks.
//!
//! Tofino's hash distribution units compute CRCs over PHV fields. The
//! polynomial is fixed per unit at compile time; what changed in SDE 9.7.0
//! (the `tna_dyn_hashing` feature FlyMon leans on, §3.1.1) is that the
//! *input symmetrization mask* became runtime-programmable: the unit is
//! wired to the whole candidate key set, and a runtime rule selects which
//! fields actually enter the digest.
//!
//! [`HashUnit`] models exactly that: polynomial fixed at construction,
//! [`HashUnit::set_mask`] installs a runtime mask ([`flymon_packet::KeySpec`]).
//!
//! The module also provides the free functions [`crc32`] and [`murmur3_32`]
//! used as seed-separated hash families by the reference sketches.

use flymon_packet::{KeyPlan, KeySpec, Packet};

/// Well-known 32-bit CRC polynomials (reflected form), one per hash unit,
/// so distinct units behave as (approximately) independent hash functions.
///
/// Tofino likewise offers a handful of fixed polynomials per hash block.
pub const CRC32_POLYNOMIALS: [u32; 8] = [
    0xEDB8_8320, // CRC-32 (ISO-HDLC, zlib)
    0x82F6_3B78, // CRC-32C (Castagnoli)
    0xEB31_D82E, // CRC-32K (Koopman)
    0xD419_CC15, // CRC-32Q
    0x992C_1A4C, // CRC-32 (AIXM reflected)
    0xBA0D_C66B, // CRC-32/BZIP2-like variant
    0x8141_41AB, // CRC-32/MEF-like variant
    0xA833_982B, // CRC-32D
];

/// Computes a reflected CRC-32 of `bytes` with the given reflected
/// `poly` and `seed`, one bit at a time.
///
/// This is the obviously-correct reference; the hot path uses the
/// table-driven [`crc32`] (they are differentially tested against each
/// other).
pub fn crc32_bitwise(poly: u32, seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= poly;
            }
        }
    }
    !crc
}

/// Builds the byte-at-a-time lookup table for a reflected polynomial.
pub const fn crc32_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= poly;
            }
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes a reflected CRC-32 of `bytes` using a caller-provided table
/// (from [`crc32_table`]), one byte per iteration. Kept as the simple
/// mid-tier kernel: the differential tests sandwich it between
/// [`crc32_bitwise`] and [`crc32_slice8`], and the bench reports its
/// throughput as the "old kernel" number.
pub fn crc32_with_table(table: &[u32; 256], seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Builds the slicing-by-8 table set for a reflected polynomial: 8 KiB,
/// where `tables[0]` is the byte-at-a-time table and `tables[k][b]`
/// advances the effect of byte `b` through `k` further zero bytes. An
/// 8-byte block then reduces to eight *independent* lookups XORed
/// together ([`crc32_slice8`]), instead of eight serially dependent ones.
pub const fn crc32_tables8(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc32_table(poly);
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Const-built slicing-by-8 tables for every polynomial in
/// [`CRC32_POLYNOMIALS`] (64 KiB total). Hash units borrow these; no
/// table is ever constructed at runtime for the well-known family.
static CRC32_TABLES8: [[[u32; 256]; 8]; 8] = [
    crc32_tables8(CRC32_POLYNOMIALS[0]),
    crc32_tables8(CRC32_POLYNOMIALS[1]),
    crc32_tables8(CRC32_POLYNOMIALS[2]),
    crc32_tables8(CRC32_POLYNOMIALS[3]),
    crc32_tables8(CRC32_POLYNOMIALS[4]),
    crc32_tables8(CRC32_POLYNOMIALS[5]),
    crc32_tables8(CRC32_POLYNOMIALS[6]),
    crc32_tables8(CRC32_POLYNOMIALS[7]),
];

/// The precomputed slicing-by-8 tables of a well-known polynomial, or
/// `None` for a polynomial outside [`CRC32_POLYNOMIALS`].
pub fn tables8_for(poly: u32) -> Option<&'static [[u32; 256]; 8]> {
    CRC32_POLYNOMIALS
        .iter()
        .position(|&p| p == poly)
        .map(|i| &CRC32_TABLES8[i])
}

/// Computes a reflected CRC-32 of `bytes` eight bytes per iteration
/// (slicing-by-8), bit-identical to [`crc32_bitwise`] by construction of
/// the tables. The whole-block lookups are independent, so the CPU
/// overlaps them; the byte-at-a-time kernel is a serial chain of
/// load-XOR dependencies instead. This is the per-packet kernel behind
/// [`HashUnit::digest_bytes`].
pub fn crc32_slice8(tables: &[[u32; 256]; 8], seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        crc = advance_block(tables, crc, chunk);
    }
    for &b in chunks.remainder() {
        crc = advance_byte(tables, crc, b);
    }
    !crc
}

/// Computes a reflected CRC-32 of `bytes`. Polynomials of the well-known
/// family dispatch to their precomputed [`crc32_slice8`] tables; anything
/// else falls back to building a byte table on the fly (one-off callers
/// of exotic polynomials pay construction, per-packet paths never do).
pub fn crc32(poly: u32, seed: u32, bytes: &[u8]) -> u32 {
    match tables8_for(poly) {
        Some(tables) => crc32_slice8(tables, seed, bytes),
        None => crc32_with_table(&crc32_table(poly), seed, bytes),
    }
}

/// Lane count of the batched CRC kernels: [`HashUnit::compute_lanes`]
/// and [`crc32_lockstep`] advance up to 8 independent digests in
/// lockstep — wide enough to cover the out-of-order window of one
/// serial CRC chain, narrow enough that the lane state (8 × u32) stays
/// in registers.
pub const CRC_LANES: usize = 8;

/// Advances one raw (pre/post-inversion already applied by the caller)
/// CRC state through an 8-byte block with the slicing-by-8 tables.
#[inline(always)]
fn advance_block(tables: &[[u32; 256]; 8], crc: u32, chunk: &[u8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    tables[7][(lo & 0xff) as usize]
        ^ tables[6][((lo >> 8) & 0xff) as usize]
        ^ tables[5][((lo >> 16) & 0xff) as usize]
        ^ tables[4][(lo >> 24) as usize]
        ^ tables[3][(hi & 0xff) as usize]
        ^ tables[2][((hi >> 8) & 0xff) as usize]
        ^ tables[1][((hi >> 16) & 0xff) as usize]
        ^ tables[0][(hi >> 24) as usize]
}

/// Advances one raw CRC state through four bytes, given as the word
/// `u32::from_le_bytes` reads from them: the slicing-by-4 step, four
/// independent lookups in the low half of the same tables.
#[inline(always)]
fn advance_word(tables: &[[u32; 256]; 8], crc: u32, word: u32) -> u32 {
    let lo = crc ^ word;
    tables[3][(lo & 0xff) as usize]
        ^ tables[2][((lo >> 8) & 0xff) as usize]
        ^ tables[1][((lo >> 16) & 0xff) as usize]
        ^ tables[0][(lo >> 24) as usize]
}

/// Advances one raw CRC state one byte.
#[inline(always)]
fn advance_byte(tables: &[[u32; 256]; 8], crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ tables[0][((crc ^ u32::from(b)) & 0xff) as usize]
}

/// Fixed-length lockstep CRC-32: `out[l] = crc32_slice8(tables, seed,
/// &keys[l][..len])` for up to [`CRC_LANES`] keys of one shared length,
/// bit-identical to the scalar kernel by construction of the tables.
///
/// The scalar kernel is latency-bound: every table lookup depends on
/// the previous one, and for short keys (4–13 bytes) it degenerates to
/// a serial byte-at-a-time chain. One length for the whole lane group
/// lets the kernel pick the widest step the remaining bytes allow
/// *once*, outside the lane loop: whole 8-byte blocks (eight
/// independent lookups), then one 4-byte word for a 4–7-byte rest (four
/// independent lookups), then at most three single bytes; every step
/// runs across all lanes before the next begins, so the lanes' chains
/// overlap in the out-of-order window. (Packets never come through
/// here: [`HashUnit::compute_lanes`] folds their fields into word and
/// byte steps on the same tables without writing key bytes first.)
///
/// # Panics
/// Panics if `keys` and `out` differ in length or exceed [`CRC_LANES`],
/// or if a key is shorter than `len`.
pub fn crc32_lockstep<K: AsRef<[u8]>>(
    tables: &[[u32; 256]; 8],
    seed: u32,
    keys: &[K],
    len: usize,
    out: &mut [u32],
) {
    assert!(keys.len() <= CRC_LANES, "at most {CRC_LANES} CRC lanes");
    assert_eq!(keys.len(), out.len(), "one output slot per lane");
    // A full group runs with a compile-time lane count, so the lane
    // loops unroll and the states live in registers; the ragged last
    // group of a chunk takes the same steps one lane at a time.
    match (<&[K; CRC_LANES]>::try_from(keys), <&mut [u32; CRC_LANES]>::try_from(&mut *out)) {
        (Ok(keys), Ok(out)) => *out = lockstep(tables, seed, keys, len),
        _ => {
            for (crc, key) in out.iter_mut().zip(keys) {
                [*crc] = lockstep(tables, seed, std::array::from_ref(key), len);
            }
        }
    }
}

/// The steps of [`crc32_lockstep`] over exactly `N` lanes.
#[inline(always)]
fn lockstep<const N: usize, K: AsRef<[u8]>>(
    tables: &[[u32; 256]; 8],
    seed: u32,
    keys: &[K; N],
    len: usize,
) -> [u32; N] {
    let keys: [&[u8]; N] = std::array::from_fn(|l| &keys[l].as_ref()[..len]);
    let mut state = [!seed; N];
    let mut off = 0;
    while len - off >= 8 {
        for l in 0..N {
            state[l] = advance_block(tables, state[l], &keys[l][off..off + 8]);
        }
        off += 8;
    }
    if len - off >= 4 {
        for l in 0..N {
            let w = &keys[l][off..off + 4];
            state[l] = advance_word(tables, state[l], u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
        off += 4;
    }
    while off < len {
        for l in 0..N {
            state[l] = advance_byte(tables, state[l], keys[l][off]);
        }
        off += 1;
    }
    state.map(|crc| !crc)
}

/// Batched CRC-32: computes `out[l] = crc32_slice8(tables, seed,
/// inputs[l])` for up to [`CRC_LANES`] independent byte-strings.
///
/// Lanes that share one length — keys of one mask — run
/// [`crc32_lockstep`]; a ragged group has no common structure to
/// exploit and digests lane by lane on the scalar kernel.
///
/// # Panics
/// Panics if `inputs` and `out` differ in length or exceed
/// [`CRC_LANES`].
pub fn crc32_lanes(tables: &[[u32; 256]; 8], seed: u32, inputs: &[&[u8]], out: &mut [u32]) {
    assert!(inputs.len() <= CRC_LANES, "at most {CRC_LANES} CRC lanes");
    assert_eq!(inputs.len(), out.len(), "one output slot per lane");
    let len = inputs.first().map_or(0, |i| i.len());
    if inputs.iter().all(|i| i.len() == len) {
        crc32_lockstep(tables, seed, inputs, len, out);
    } else {
        for (crc, input) in out.iter_mut().zip(inputs) {
            *crc = crc32_slice8(tables, seed, input);
        }
    }
}

/// The murmur3 32-bit finalizer: a full-avalanche bit mix.
///
/// CRC32 is *linear* over GF(2): sequential or low-entropy keys produce
/// highly structured digests (e.g. 500 sequential integers can map to 500
/// distinct buckets — "too perfect" dispersion that breaks estimators
/// like Linear Counting, which assume binomial collisions). Real Tofino
/// hash paths swizzle/slice the raw CRC before distribution; this
/// finalizer models that whitening step.
pub fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// MurmurHash3 x86_32. Used as the seedable hash family of the reference
/// sketch implementations (which are software baselines, not hardware).
pub fn murmur3_32(seed: u32, bytes: &[u8]) -> u32 {
    const C1: u32 = 0xcc9e_2d51;
    const C2: u32 = 0x1b87_3593;
    let mut h = seed;
    let chunks = bytes.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        let mut k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        k = k.wrapping_mul(C1).rotate_left(15).wrapping_mul(C2);
        h = (h ^ k).rotate_left(13).wrapping_mul(5).wrapping_add(0xe654_6b64);
    }
    let mut k: u32 = 0;
    for (i, &b) in tail.iter().enumerate() {
        k |= u32::from(b) << (8 * i);
    }
    if !tail.is_empty() {
        k = k.wrapping_mul(C1).rotate_left(15).wrapping_mul(C2);
        h ^= k;
    }
    h ^= bytes.len() as u32;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// One block step of [`murmur3_32`]: folds the 4-byte block whose bytes
/// spell `k` little-endian into the running state `h`. Callers that hash
/// fixed-width words (the sampling coin, the ingress hash) fold them
/// directly instead of serializing bytes for the slice walk.
#[inline]
pub fn murmur3_round(h: u32, k: u32) -> u32 {
    let k = k
        .wrapping_mul(0xcc9e_2d51)
        .rotate_left(15)
        .wrapping_mul(0x1b87_3593);
    (h ^ k)
        .rotate_left(13)
        .wrapping_mul(5)
        .wrapping_add(0xe654_6b64)
}

/// [`murmur3_32`] of one 4-byte key, given as the word its bytes spell
/// little-endian: `murmur3_32_word(seed, k) == murmur3_32(seed,
/// &k.to_le_bytes())`. One block, no tail, no slice walk — the per-packet
/// form for fixed-width keys such as the ingress hash's source address.
#[inline]
pub fn murmur3_32_word(seed: u32, k: u32) -> u32 {
    fmix32(murmur3_round(seed, k) ^ 4)
}

/// Upper bound on hash units per compression stage: one per available
/// polynomial, so every unit of a stage hashes independently.
pub const MAX_HASH_UNITS: usize = CRC32_POLYNOMIALS.len();

/// Fixed-capacity scratch buffer for one compression stage's digests.
///
/// The per-packet hot path must not allocate: a `HashScratch` lives on
/// the stack (or embedded in a reusable context) and is refilled for
/// every packet. Capacity is [`MAX_HASH_UNITS`], the most units a stage
/// can hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashScratch {
    buf: [u32; MAX_HASH_UNITS],
    len: u8,
}

impl HashScratch {
    /// Empties the scratch for a new packet.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one unit's digest.
    ///
    /// # Panics
    /// Panics if the scratch is full — stages are validated against
    /// [`MAX_HASH_UNITS`] at construction, so this is a pipeline bug.
    pub fn push(&mut self, digest: u32) {
        assert!(
            (self.len as usize) < MAX_HASH_UNITS,
            "hash scratch overflow: a stage holds at most {MAX_HASH_UNITS} units"
        );
        self.buf[self.len as usize] = digest;
        self.len += 1;
    }

    /// The digests computed so far, in unit order.
    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len as usize]
    }

    /// Number of digests held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no digest has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Computes every unit's digest for `pkt` into `out`, allocation-free.
/// The scratch is cleared first, so it can be reused across packets.
pub fn compute_all(units: &[HashUnit], pkt: &Packet, out: &mut HashScratch) {
    out.clear();
    for u in units {
        out.push(u.compute(pkt));
    }
}

/// A hash distribution unit with a runtime-programmable input mask.
///
/// The polynomial identifies the unit and is fixed at construction (like
/// hardware); the mask is a runtime rule. While the mask is unset the unit
/// is considered *free* — the control plane's resource manager uses this
/// to track compressed-key occupancy.
#[derive(Debug, Clone)]
pub struct HashUnit {
    poly: u32,
    seed: u32,
    tables: &'static [[u32; 256]; 8],
    /// The installed mask and its fixed-length plan, compiled once in
    /// [`HashUnit::set_mask`] — it changes only on reconfiguration.
    mask: Option<(KeySpec, KeyPlan)>,
}

impl HashUnit {
    /// Creates unit `index` of a stage; each index gets a distinct
    /// polynomial/seed pair so units hash independently.
    pub fn new(index: usize) -> Self {
        let poly = CRC32_POLYNOMIALS[index % CRC32_POLYNOMIALS.len()];
        HashUnit {
            poly,
            seed: 0x9e37_79b9u32.wrapping_mul(index as u32 + 1),
            tables: tables8_for(poly).expect("every family polynomial has static tables"),
            mask: None,
        }
    }

    /// Installs (or replaces) the dynamic hash mask. This is the runtime
    /// reconfiguration FlyMon's compression stage performs; it does not
    /// interrupt traffic.
    pub fn set_mask(&mut self, mask: KeySpec) {
        self.mask = Some((mask, mask.plan()));
    }

    /// Clears the mask, returning the unit to the free pool.
    pub fn clear_mask(&mut self) {
        self.mask = None;
    }

    /// The currently installed mask, if any.
    pub fn mask(&self) -> Option<&KeySpec> {
        self.mask.as_ref().map(|(spec, _)| spec)
    }

    /// Computes the 32-bit digest of the masked candidate key for `pkt`:
    /// the compiled [`KeyPlan`] folds the packet's fields straight into
    /// the CRC, one lane of [`HashUnit::compute_lanes`]. Returns 0 when
    /// no mask is installed (hardware would emit the CRC of an all-zero
    /// input; emitting a constant keeps "unconfigured" obvious in tests).
    pub fn compute(&self, pkt: &Packet) -> u32 {
        match &self.mask {
            None => 0,
            Some((_, plan)) => {
                let [digest] = self.fold(plan, [pkt]);
                digest
            }
        }
    }

    /// [`HashUnit::compute`] for one lane group of packets — the batched
    /// datapath's compression stage: `out[l]` is the digest of the `l`-th
    /// packet `pkts` yields. A full group of [`CRC_LANES`] folds in
    /// lockstep, every field step across all eight lanes before the next,
    /// so the lanes' CRC chains overlap; a ragged group folds lane by
    /// lane. Zeros when no mask is installed.
    ///
    /// # Panics
    /// Panics if `pkts` yields fewer than `out.len()` packets.
    pub fn compute_lanes<'a>(&self, pkts: impl IntoIterator<Item = &'a Packet>, out: &mut [u32]) {
        let Some((_, plan)) = &self.mask else {
            out.fill(0);
            return;
        };
        let mut pkts = pkts.into_iter();
        let mut next = || pkts.next().expect("one packet per output lane");
        match <&mut [u32; CRC_LANES]>::try_from(&mut *out) {
            Ok(out) => *out = self.fold(plan, std::array::from_fn(|_| next())),
            Err(_) => out.iter_mut().for_each(|d| [*d] = self.fold(plan, [next()])),
        }
    }

    /// The digests of `N` packets under `plan`, one lane each, folded in
    /// lockstep on this unit's tables.
    #[inline(always)]
    fn fold<const N: usize>(&self, plan: &KeyPlan, pkts: [&Packet; N]) -> [u32; N] {
        let tables = self.tables;
        let crc = plan.fold(
            pkts,
            [!self.seed; N],
            |crc, w| std::array::from_fn(|l| advance_word(tables, crc[l], w[l])),
            |crc, b| std::array::from_fn(|l| advance_byte(tables, crc[l], b[l])),
        );
        crc.map(|crc| fmix32(!crc))
    }

    /// Hashes raw bytes with this unit's polynomial/seed: a slicing-by-8
    /// CRC32 core followed by the [`fmix32`] whitening step (see its docs
    /// for why the raw CRC is not enough). The operation stage's SALU
    /// addressing path uses this too (Tofino always routes SALU addresses
    /// through a hash distribution unit, §5 "Setting").
    pub fn digest_bytes(&self, bytes: &[u8]) -> u32 {
        fmix32(crc32_slice8(self.tables, self.seed, bytes))
    }

    /// Batched [`HashUnit::digest_bytes`]: digests up to [`CRC_LANES`]
    /// independent key byte-strings ([`crc32_lanes`] — lockstep whenever
    /// the lanes share a length) and whitens each lane with [`fmix32`].
    /// Bit-identical per lane to the scalar path.
    pub fn digest_lanes(&self, inputs: &[&[u8]], out: &mut [u32]) {
        crc32_lanes(self.tables, self.seed, inputs, out);
        for d in out.iter_mut() {
            *d = fmix32(*d);
        }
    }

    /// The unit's fixed polynomial (diagnostics).
    pub fn polynomial(&self) -> u32 {
        self.poly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::{PacketBuilder, MAX_KEY_BYTES};

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 (zlib) of "123456789" is 0xCBF43926.
        assert_eq!(crc32(0xEDB8_8320, 0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32c_matches_known_vector() {
        // CRC-32C (Castagnoli) of "123456789" is 0xE3069283.
        assert_eq!(crc32(0x82F6_3B78, 0, b"123456789"), 0xE306_9283);
    }

    #[test]
    fn table_driven_crc_matches_bitwise_reference() {
        for (i, &poly) in CRC32_POLYNOMIALS.iter().enumerate() {
            let seed = 0x1234_5678u32.wrapping_mul(i as u32 + 1);
            for bytes in [
                &b""[..],
                b"a",
                b"123456789",
                b"the quick brown fox jumps over the lazy dog",
            ] {
                assert_eq!(
                    crc32(poly, seed, bytes),
                    crc32_bitwise(poly, seed, bytes),
                    "poly {poly:#x}, input {bytes:?}"
                );
            }
        }
    }

    #[test]
    fn slice8_matches_bitwise_reference_differentially() {
        // The tentpole kernel: random inputs of every length in 0..64,
        // all 8 family polynomials, random seeds — slicing-by-8 must be
        // bit-identical to the bit-at-a-time reference.
        let mut rng = flymon_packet::SplitMix64::new(0x0051_1ce8);
        for &poly in &CRC32_POLYNOMIALS {
            let tables = tables8_for(poly).expect("family polynomial");
            for len in 0..64usize {
                let seed = rng.next_u32();
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let reference = crc32_bitwise(poly, seed, &bytes);
                assert_eq!(
                    crc32_slice8(tables, seed, &bytes),
                    reference,
                    "slice8 diverged: poly {poly:#x}, len {len}"
                );
                assert_eq!(
                    crc32_with_table(&tables[0], seed, &bytes),
                    reference,
                    "tables[0] must be the plain byte table: poly {poly:#x}, len {len}"
                );
            }
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_differentially() {
        // Every family polynomial × every lane count 1..=8 × lengths
        // 0..64 — crc32_lanes must agree lane for lane with the scalar
        // crc32_slice8 (itself differentially tied to the bitwise
        // reference above). Lane lengths are drawn independently so the
        // ragged per-lane fallback is exercised, and one equal-length
        // pass per combination covers the lockstep case.
        let mut rng = flymon_packet::SplitMix64::new(0x0001_a9e5);
        for &poly in &CRC32_POLYNOMIALS {
            let tables = tables8_for(poly).expect("family polynomial");
            for lanes in 1..=CRC_LANES {
                for len in 0..64usize {
                    let seed = rng.next_u32();
                    // Ragged: lane l gets an independent length in 0..64.
                    let ragged: Vec<Vec<u8>> = (0..lanes)
                        .map(|_| {
                            let n = rng.next_u64() as usize % 64;
                            (0..n).map(|_| rng.next_u64() as u8).collect()
                        })
                        .collect();
                    // Uniform: every lane exactly `len` bytes (lockstep).
                    let uniform: Vec<Vec<u8>> = (0..lanes)
                        .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
                        .collect();
                    for set in [&ragged, &uniform] {
                        let inputs: Vec<&[u8]> = set.iter().map(Vec::as_slice).collect();
                        let mut out = vec![0u32; lanes];
                        crc32_lanes(tables, seed, &inputs, &mut out);
                        for (l, input) in inputs.iter().enumerate() {
                            assert_eq!(
                                out[l],
                                crc32_slice8(tables, seed, input),
                                "lane {l}/{lanes} diverged: poly {poly:#x}, len {}",
                                input.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lockstep_kernel_matches_bitwise_reference() {
        // Every family polynomial x every key length a plan can produce
        // (0..=20: no block, word only, block + word + bytes, two blocks
        // + word) x every lane count, against the bit-at-a-time
        // reference. Keys sit in fixed-size lane buffers with poisoned
        // tails: bytes past `len` must not count.
        let mut rng = flymon_packet::SplitMix64::new(0x10c5_7e90);
        for &poly in &CRC32_POLYNOMIALS {
            let tables = tables8_for(poly).expect("family polynomial");
            for len in 0..=MAX_KEY_BYTES {
                for lanes in 1..=CRC_LANES {
                    let seed = rng.next_u32();
                    let mut keys = [[0u8; MAX_KEY_BYTES]; CRC_LANES];
                    for k in keys.iter_mut() {
                        k.fill_with(|| rng.next_u64() as u8);
                    }
                    let mut out = [0u32; CRC_LANES];
                    crc32_lockstep(tables, seed, &keys[..lanes], len, &mut out[..lanes]);
                    for l in 0..lanes {
                        assert_eq!(
                            out[l],
                            crc32_bitwise(poly, seed, &keys[l][..len]),
                            "lane {l}/{lanes} diverged: poly {poly:#x}, len {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compute_and_compute_lanes_digest_the_bitwise_crc_of_extract() {
        // Both are the key fold; the reference shares none of it: the
        // bytes `KeySpec::extract` serializes, the bit-at-a-time CRC and
        // the whitening step. Every unit (so every polynomial and seed)
        // x every field subset and interesting prefix length x every
        // lane-group size, the full group of eight in lockstep.
        let prefixes = [0u8, 1, 8, 24, 31, 32];
        let mut rng = flymon_packet::SplitMix64::new(0xc0de);
        let pkts: Vec<Packet> = (0..CRC_LANES)
            .map(|_| {
                PacketBuilder::new()
                    .src_ip(rng.next_u32())
                    .dst_ip(rng.next_u32())
                    .src_port(rng.next_u32() as u16)
                    .dst_port(rng.next_u32() as u16)
                    .protocol(rng.next_u32() as u8)
                    .ts_ns(rng.next_u64() >> 24)
                    .build()
            })
            .collect();
        for index in 0..MAX_HASH_UNITS {
            let mut unit = HashUnit::new(index);
            let mut out = [1u32; CRC_LANES];
            unit.compute_lanes(&pkts[..3], &mut out[..3]);
            assert_eq!(out[..3], [0; 3], "a free unit digests to 0, like compute");
            for (src_ip_prefix, dst_ip_prefix, flags) in prefixes
                .into_iter()
                .flat_map(|s| prefixes.map(|d| (s, d)))
                .flat_map(|(s, d)| (0..16u8).map(move |f| (s, d, f)))
            {
                let spec = KeySpec {
                    src_ip_prefix,
                    dst_ip_prefix,
                    src_port: flags & 1 != 0,
                    dst_port: flags & 2 != 0,
                    protocol: flags & 4 != 0,
                    timestamp: flags & 8 != 0,
                };
                unit.set_mask(spec);
                let reference: Vec<u32> = pkts
                    .iter()
                    .map(|p| fmix32(crc32_bitwise(unit.poly, unit.seed, spec.extract(p).as_bytes())))
                    .collect();
                for (l, p) in pkts.iter().enumerate() {
                    assert_eq!(unit.compute(p), reference[l], "unit {index}, {spec:?}, packet {l}");
                }
                for lanes in 1..=CRC_LANES {
                    unit.compute_lanes(&pkts[..lanes], &mut out[..lanes]);
                    assert_eq!(out[..lanes], reference[..lanes], "unit {index}, {spec:?}, {lanes} lanes");
                }
            }
        }
    }

    #[test]
    fn digest_lanes_matches_digest_bytes() {
        let mut unit = HashUnit::new(2);
        unit.set_mask(KeySpec::FIVE_TUPLE);
        let keys: Vec<Vec<u8>> = (0..5u8).map(|l| vec![l; 4 + usize::from(l)]).collect();
        let inputs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u32; inputs.len()];
        unit.digest_lanes(&inputs, &mut out);
        for (l, input) in inputs.iter().enumerate() {
            assert_eq!(out[l], unit.digest_bytes(input), "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "CRC lanes")]
    fn lane_kernel_rejects_overwide_groups() {
        let tables = tables8_for(CRC32_POLYNOMIALS[0]).expect("family polynomial");
        let key = [0u8; 4];
        let inputs = [&key[..]; CRC_LANES + 1];
        let mut out = [0u32; CRC_LANES + 1];
        crc32_lanes(tables, 0, &inputs, &mut out);
    }

    #[test]
    fn crc32_falls_back_for_exotic_polynomials() {
        // A polynomial outside the family has no static tables; crc32()
        // must still agree with the bitwise reference.
        let poly = 0x741B_8CD7; // CRC-32K/4.2, not in CRC32_POLYNOMIALS
        assert!(tables8_for(poly).is_none());
        assert_eq!(
            crc32(poly, 0xdead_beef, b"123456789"),
            crc32_bitwise(poly, 0xdead_beef, b"123456789")
        );
    }

    #[test]
    fn murmur3_matches_known_vectors() {
        // Reference vectors from the canonical MurmurHash3 implementation.
        assert_eq!(murmur3_32(0, b""), 0);
        assert_eq!(murmur3_32(1, b""), 0x514E_28B7);
        assert_eq!(murmur3_32(0, b"test"), 0xba6b_d213);
        assert_eq!(murmur3_32(0x9747b28c, b"aaaa"), 0x5A97_808A);
    }

    #[test]
    fn murmur3_word_matches_the_generic_function() {
        assert_eq!(murmur3_32_word(0x9747b28c, u32::from_le_bytes(*b"aaaa")), 0x5A97_808A);
        let mut k = 0x1234_5678u32;
        for seed in [0, 1, 0xf1ee7, u32::MAX] {
            for _ in 0..10_000 {
                k = k.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                assert_eq!(murmur3_32_word(seed, k), murmur3_32(seed, &k.to_le_bytes()));
            }
        }
    }

    #[test]
    fn units_hash_independently() {
        let pkt = PacketBuilder::new().src_ip(0x0a000001).build();
        let mut u0 = HashUnit::new(0);
        let mut u1 = HashUnit::new(1);
        u0.set_mask(KeySpec::SRC_IP);
        u1.set_mask(KeySpec::SRC_IP);
        assert_ne!(u0.compute(&pkt), u1.compute(&pkt));
    }

    #[test]
    fn mask_reconfiguration_changes_grouping() {
        let mut unit = HashUnit::new(0);
        unit.set_mask(KeySpec::SRC_IP);
        let a = unit.compute(&Packet::tcp(1, 100, 5, 5));
        let b = unit.compute(&Packet::tcp(1, 200, 6, 6));
        assert_eq!(a, b, "SrcIP mask ignores everything else");

        unit.set_mask(KeySpec::IP_PAIR);
        let a = unit.compute(&Packet::tcp(1, 100, 5, 5));
        let b = unit.compute(&Packet::tcp(1, 200, 6, 6));
        assert_ne!(a, b, "IP-pair mask distinguishes destinations");
    }

    #[test]
    fn unconfigured_unit_emits_zero_and_reports_free() {
        let mut unit = HashUnit::new(3);
        assert!(unit.mask().is_none());
        assert_eq!(unit.compute(&Packet::tcp(1, 2, 3, 4)), 0);
        unit.set_mask(KeySpec::DST_IP);
        assert_eq!(unit.mask(), Some(&KeySpec::DST_IP));
        unit.clear_mask();
        assert!(unit.mask().is_none());
    }

    #[test]
    fn prefix_masks_group_like_keyspec() {
        let mut unit = HashUnit::new(2);
        unit.set_mask(KeySpec::src_ip_slash(24));
        let a = unit.compute(&Packet::tcp(0x0a010203, 1, 1, 1));
        let b = unit.compute(&Packet::tcp(0x0a0102aa, 2, 2, 2));
        let c = unit.compute(&Packet::tcp(0x0a010303, 1, 1, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    use flymon_packet::Packet;

    #[test]
    fn scratch_matches_per_unit_compute() {
        let pkt = PacketBuilder::new().src_ip(0x0a000001).build();
        let mut units: Vec<HashUnit> = (0..3).map(HashUnit::new).collect();
        for u in &mut units {
            u.set_mask(KeySpec::SRC_IP);
        }
        let mut scratch = HashScratch::default();
        compute_all(&units, &pkt, &mut scratch);
        assert_eq!(scratch.len(), 3);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(scratch.as_slice()[i], u.compute(&pkt));
        }
        // Reuse clears the previous packet's digests.
        compute_all(&units[..2], &pkt, &mut scratch);
        assert_eq!(scratch.len(), 2);
    }

    #[test]
    #[should_panic(expected = "hash scratch overflow")]
    fn scratch_rejects_overflow() {
        let mut scratch = HashScratch::default();
        for i in 0..=MAX_HASH_UNITS as u32 {
            scratch.push(i);
        }
    }

    #[test]
    fn digest_spreads_over_range() {
        // Sanity: hashing sequential keys should cover both halves of the
        // 32-bit range (catches accidental truncation).
        let mut unit = HashUnit::new(0);
        unit.set_mask(KeySpec::SRC_IP);
        let mut lo = 0usize;
        let mut hi = 0usize;
        for i in 0..1000u32 {
            let d = unit.compute(&Packet::tcp(i, 0, 0, 0));
            if d < u32::MAX / 2 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 300 && hi > 300, "skewed digests: lo={lo} hi={hi}");
    }
}
