//! Key selection: compressed keys and their composition (§3.1.1).
//!
//! The compression stage materializes a few 32-bit *compressed keys*
//! `C(k_i)` from dynamic hash masks. A CMU's key is then either one
//! compressed key or the XOR of two (giving `k(k+1)/2` selectable keys
//! from `k` hash units), and each CMU takes a different *bit slice* of the
//! 32-bit value to emulate independent hash functions across CMUs
//! (the SketchLib-inspired trick of §3.2).

/// Which compressed key(s) a CMU's key is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySource {
    /// A single compression-stage hash unit's output.
    Unit(usize),
    /// XOR of two hash units' outputs (binary XOR is what one MAU stage
    /// supports, §3.1.1).
    Xor(usize, usize),
}

impl KeySource {
    /// Resolves the 32-bit dynamic key from the compression stage's
    /// outputs.
    ///
    /// # Panics
    /// Panics if a referenced unit index is out of range — bindings are
    /// validated at install time, so this is a compiler bug.
    pub fn resolve(&self, compressed: &[u32]) -> u32 {
        match *self {
            KeySource::Unit(i) => compressed[i],
            KeySource::Xor(a, b) => compressed[a] ^ compressed[b],
        }
    }

    /// Units referenced by this source.
    pub fn units(&self) -> Vec<usize> {
        match *self {
            KeySource::Unit(i) => vec![i],
            KeySource::Xor(a, b) => vec![a, b],
        }
    }
}

/// A CMU's key selection: a source plus a bit slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySelect {
    /// Where the 32-bit dynamic key comes from.
    pub source: KeySource,
    /// Right-shift applied before truncating to the address width; CMUs
    /// in one group use different shifts (e.g. 0 / 8 / 16) to simulate
    /// independent hashes from one compressed key (§3.2).
    pub slice_shift: u8,
}

impl KeySelect {
    /// Computes the address-sized key slice. `addr_bits` is
    /// `log2(register buckets)`.
    pub fn address(&self, compressed: &[u32], addr_bits: u8) -> u32 {
        let key = self.source.resolve(compressed);
        let rotated = key.rotate_right(u32::from(self.slice_shift));
        if addr_bits >= 32 {
            rotated
        } else {
            rotated & ((1u32 << addr_bits) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_single_and_xor() {
        let compressed = [0xaaaa_0000, 0x0000_bbbb, 0x1111_1111];
        assert_eq!(KeySource::Unit(1).resolve(&compressed), 0x0000_bbbb);
        assert_eq!(KeySource::Xor(0, 1).resolve(&compressed), 0xaaaa_bbbb);
    }

    #[test]
    fn slices_differ_between_cmus() {
        let compressed = [0x1234_5678];
        let a = KeySelect {
            source: KeySource::Unit(0),
            slice_shift: 0,
        };
        let b = KeySelect {
            source: KeySource::Unit(0),
            slice_shift: 8,
        };
        let c = KeySelect {
            source: KeySource::Unit(0),
            slice_shift: 16,
        };
        let (x, y, z) = (
            a.address(&compressed, 16),
            b.address(&compressed, 16),
            c.address(&compressed, 16),
        );
        assert_eq!(x, 0x5678);
        assert_eq!(y, 0x3456);
        assert_eq!(z, 0x1234);
        assert!(x != y && y != z);
    }

    #[test]
    fn address_masks_to_register_width() {
        let sel = KeySelect {
            source: KeySource::Unit(0),
            slice_shift: 0,
        };
        assert_eq!(sel.address(&[0xffff_ffff], 10), 0x3ff);
        assert_eq!(sel.address(&[0xffff_ffff], 32), 0xffff_ffff);
    }

    #[test]
    fn units_listed() {
        assert_eq!(KeySource::Unit(2).units(), vec![2]);
        assert_eq!(KeySource::Xor(0, 2).units(), vec![0, 2]);
    }
}
