//! Buddy allocation of CMU memory partitions.
//!
//! §3.3/§3.4: a CMU's register can be carved into power-of-two partitions
//! (up to 32); the control plane allocates them to tasks in *accurate*
//! mode (round up) or *efficient* mode (nearest power of two). A buddy
//! allocator is the natural fit: allocations and frees are always
//! power-of-two blocks, and coalescing keeps fragmentation bounded.

/// Memory allocation policy (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Always allocate ≥ the request (round up to a power of two).
    Accurate,
    /// Allocate the power of two *closest* to the request (may round
    /// down), squeezing more tasks into the same register.
    Efficient,
}

impl AllocMode {
    /// Rounds a bucket request to the power of two this mode dictates.
    ///
    /// # Panics
    /// Panics if `request` is zero.
    pub fn round(&self, request: usize) -> usize {
        assert!(request > 0, "zero-size allocation");
        let up = request.next_power_of_two();
        match self {
            AllocMode::Accurate => up,
            AllocMode::Efficient => {
                let down = up / 2;
                if down >= 1 && request - down < up - request {
                    down
                } else {
                    up
                }
            }
        }
    }
}

/// A buddy allocator over `[0, total)` buckets.
///
/// `total` and `min_block` are powers of two; `total/min_block ≤ 32`
/// matches the paper's 32-partition limit (larger ratios are allowed for
/// experimentation, at a TCAM cost Figure 11 quantifies).
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total: usize,
    min_block: usize,
    /// `free[level]` holds offsets of free blocks of size `total >> level`.
    free: Vec<Vec<usize>>,
    /// Live allocations, for loud double-free/bad-free detection.
    allocated: Vec<(usize, usize)>,
}

impl BuddyAllocator {
    /// Creates an allocator over `total` buckets with the given minimum
    /// block size.
    ///
    /// # Panics
    /// Panics unless both arguments are powers of two with
    /// `min_block <= total`.
    pub fn new(total: usize, min_block: usize) -> Self {
        assert!(total.is_power_of_two() && min_block.is_power_of_two());
        assert!(min_block <= total && min_block >= 1);
        let levels = (total / min_block).ilog2() as usize + 1;
        let mut free = vec![Vec::new(); levels];
        free[0].push(0);
        BuddyAllocator {
            total,
            min_block,
            free,
            allocated: Vec::new(),
        }
    }

    fn level_of(&self, size: usize) -> Option<usize> {
        if !size.is_power_of_two() || size > self.total || size < self.min_block {
            return None;
        }
        Some((self.total / size).ilog2() as usize)
    }

    /// Allocates a block of exactly `size` buckets (a power of two in
    /// `[min_block, total]`); returns its offset.
    pub fn alloc(&mut self, size: usize) -> Option<usize> {
        let want = self.level_of(size)?;
        // Find the deepest level ≤ want with a free block.
        let mut from = (0..=want).rev().find(|&l| !self.free[l].is_empty())?;
        let offset = self.free[from].pop().unwrap();
        // Split down to the wanted level, keeping the lower half and
        // freeing the upper buddy at each step.
        while from < want {
            from += 1;
            let half = self.total >> from;
            self.free[from].push(offset + half);
        }
        self.allocated.push((offset, size));
        Some(offset)
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`].
    ///
    /// # Panics
    /// Panics on misaligned offsets or double frees (control-plane bugs
    /// must be loud).
    pub fn free(&mut self, offset: usize, size: usize) {
        let level = self.level_of(size).expect("free of invalid block size");
        assert_eq!(offset % size, 0, "misaligned free at {offset}");
        let pos = self
            .allocated
            .iter()
            .position(|&(o, s)| (o, s) == (offset, size))
            .unwrap_or_else(|| panic!("double free or bad free at {offset} (size {size})"));
        self.allocated.swap_remove(pos);
        let mut offset = offset;
        let mut level = level;
        // Coalesce with the buddy while possible.
        loop {
            if level == 0 {
                break;
            }
            let size = self.total >> level;
            let buddy = offset ^ size;
            if let Some(pos) = self.free[level].iter().position(|&o| o == buddy) {
                self.free[level].swap_remove(pos);
                offset = offset.min(buddy);
                level -= 1;
            } else {
                break;
            }
        }
        self.free[level].push(offset);
    }

    /// Buckets currently free.
    pub fn free_buckets(&self) -> usize {
        self.free
            .iter()
            .enumerate()
            .map(|(l, blocks)| blocks.len() * (self.total >> l))
            .sum()
    }

    /// Buckets currently allocated.
    pub fn used_buckets(&self) -> usize {
        self.total - self.free_buckets()
    }

    /// Live allocations as `(offset, size)` pairs, in no particular
    /// order — the control plane's auditor reconciles these against the
    /// partitions task records claim to own.
    pub fn allocations(&self) -> &[(usize, usize)] {
        &self.allocated
    }

    /// Largest block that could be allocated right now.
    pub fn largest_free(&self) -> usize {
        // Level 0 holds the largest blocks.
        self.free
            .iter()
            .position(|blocks| !blocks.is_empty())
            .map_or(0, |l| self.total >> l)
    }

    /// Total buckets managed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Smallest allocatable block.
    pub fn min_block(&self) -> usize {
        self.min_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_mode_rounding() {
        assert_eq!(AllocMode::Accurate.round(1000), 1024);
        assert_eq!(AllocMode::Accurate.round(1024), 1024);
        assert_eq!(AllocMode::Accurate.round(1025), 2048);
        // Efficient picks the nearest: 1025 is closer to 1024 than 2048.
        assert_eq!(AllocMode::Efficient.round(1025), 1024);
        assert_eq!(AllocMode::Efficient.round(1600), 2048);
        assert_eq!(AllocMode::Efficient.round(1), 1);
    }

    #[test]
    fn whole_register_allocation() {
        let mut b = BuddyAllocator::new(1024, 32);
        assert_eq!(b.alloc(1024), Some(0));
        assert_eq!(b.alloc(32), None);
        b.free(0, 1024);
        assert_eq!(b.largest_free(), 1024);
    }

    #[test]
    fn thirty_two_partitions_fit() {
        // The paper's multitasking claim: 32 partitions per CMU.
        let mut b = BuddyAllocator::new(65536, 65536 / 32);
        let mut offsets = Vec::new();
        for _ in 0..32 {
            offsets.push(b.alloc(2048).expect("32 partitions must fit"));
        }
        assert_eq!(b.alloc(2048), None);
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), 32, "partitions must be disjoint");
        assert_eq!(b.used_buckets(), 65536);
    }

    #[test]
    fn split_and_coalesce() {
        let mut b = BuddyAllocator::new(256, 8);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(64).unwrap();
        let d = b.alloc(128).unwrap();
        assert_eq!(b.free_buckets(), 0);
        b.free(a, 64);
        b.free(c, 64);
        // Buddies coalesce back into a 128 block.
        assert_eq!(b.largest_free(), 128);
        b.free(d, 128);
        assert_eq!(b.largest_free(), 256);
        assert_eq!(b.alloc(256), Some(0));
    }

    #[test]
    fn mixed_sizes_respect_alignment() {
        let mut b = BuddyAllocator::new(1024, 16);
        let x = b.alloc(16).unwrap();
        let y = b.alloc(256).unwrap();
        let z = b.alloc(512).unwrap();
        for (off, size) in [(x, 16), (y, 256), (z, 512)] {
            assert_eq!(off % size, 0, "offset {off} misaligned for {size}");
        }
        // Non-overlap.
        assert!(x + 16 <= y || y + 256 <= x);
        assert!(y + 256 <= z || z + 512 <= y);
    }

    #[test]
    #[should_panic(expected = "double free or bad free")]
    fn double_free_is_loud() {
        let mut b = BuddyAllocator::new(64, 8);
        let a = b.alloc(8).unwrap();
        b.free(a, 8);
        b.free(a, 8);
    }

    #[test]
    fn rejects_invalid_sizes() {
        let mut b = BuddyAllocator::new(1024, 32);
        assert_eq!(b.alloc(48), None); // not a power of two
        assert_eq!(b.alloc(16), None); // below min block
        assert_eq!(b.alloc(2048), None); // above total
    }
}
