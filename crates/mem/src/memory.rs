//! Sparse, page-based main-memory backing store (functional state).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Multiply-rotate hasher for page indices. The page table is probed
/// once per vector load/store on the decoded engine's hot path, and the
/// default SipHash costs more than the 128-byte copy it guards; page
/// indices are small sequential integers, for which one odd-constant
/// multiply (Fibonacci hashing) mixes the low bits into the table index
/// perfectly well. Deterministic across runs, unlike `RandomState`.
#[derive(Default)]
pub struct PageIndexHasher(u64);

impl Hasher for PageIndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // High bits carry the mix; hashbrown derives its control bytes
        // and bucket index from them.
        self.0
    }
}

type PageHash = BuildHasherDefault<PageIndexHasher>;

/// Byte-addressable simulated memory, allocated lazily in 4 KiB pages.
///
/// Unwritten bytes read as zero, like freshly-mapped anonymous memory.
/// All multi-byte accessors are little-endian (RISC-V's byte order).
///
/// # Example
///
/// ```
/// use indexmac_mem::MainMemory;
///
/// let mut m = MainMemory::new();
/// m.write_u32(0x2000, 0xDEADBEEF);
/// assert_eq!(m.read_u32(0x2000), 0xDEADBEEF);
/// assert_eq!(m.read_u32(0x9999_0000), 0); // untouched memory is zero
/// ```
#[derive(Debug, Default, Clone)]
pub struct MainMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, PageHash>,
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` bytes starting at `addr` (little-endian callers below).
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: whole access inside one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&p[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Drops every resident page, returning the memory to its
    /// freshly-constructed all-zero state. The page table's allocation
    /// is retained, so a reused simulator does not rebuild the map from
    /// scratch on every run (the warm-execution path resets memory once
    /// per experiment cell).
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Bulk-reads `out.len()` bytes starting at `addr`, page-chunked:
    /// one page-table lookup per 4 KiB instead of one per byte, which is
    /// what makes whole-register vector loads cheap in the decoded
    /// engine. Unwritten bytes read as zero.
    pub fn read_slice(&self, addr: u64, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            // Wrapping, to match the per-byte `read_bytes` semantics: a
            // slice spanning the top of the address space wraps to 0
            // instead of panicking in debug builds.
            let a = addr.wrapping_add(done as u64);
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(out.len() - done);
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => out[done..done + n].copy_from_slice(&p[off..off + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Bulk-writes `data` starting at `addr`, page-chunked (the store
    /// counterpart of [`MainMemory::read_slice`]).
    pub fn write_slice(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr.wrapping_add(done as u64);
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            let page = self
                .pages
                .entry(a >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an `f32` (IEEE-754 bits at `addr`).
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Bulk-writes a slice of `f32` values at consecutive addresses.
    pub fn write_f32_slice(&mut self, addr: u64, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + (i * 4) as u64, *v);
        }
    }

    /// Bulk-reads `count` `f32` values from consecutive addresses.
    pub fn read_f32_slice(&self, addr: u64, count: usize) -> Vec<f32> {
        (0..count)
            .map(|i| self.read_f32(addr + (i * 4) as u64))
            .collect()
    }

    /// Bulk-writes a slice of `u32` values at consecutive addresses.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + (i * 4) as u64, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_untouched() {
        let m = MainMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xFFFF_FFFF_FFF0), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn byte_roundtrip() {
        let mut m = MainMemory::new();
        m.write_u8(5, 0xAB);
        assert_eq!(m.read_u8(5), 0xAB);
        assert_eq!(m.read_u8(6), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn word_roundtrips_little_endian() {
        let mut m = MainMemory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 0x01);
        assert_eq!(m.read_u8(0x103), 0x04);
        assert_eq!(m.read_u16(0x100), 0x0201);
        m.write_u64(0x200, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x200), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(0x204), 0x1122_3344);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MainMemory::new();
        let addr = (1 << PAGE_SHIFT) - 2; // straddles the page boundary
        m.write_u32(addr, 0xCAFEBABE);
        assert_eq!(m.read_u32(addr), 0xCAFEBABE);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f32_roundtrip_including_specials() {
        let mut m = MainMemory::new();
        for (i, v) in [
            0.0f32,
            -0.0,
            1.5,
            -3.25e10,
            f32::INFINITY,
            f32::MIN_POSITIVE,
        ]
        .iter()
        .enumerate()
        {
            let a = 0x3000 + (i * 4) as u64;
            m.write_f32(a, *v);
            assert_eq!(m.read_f32(a).to_bits(), v.to_bits());
        }
        m.write_f32(0x4000, f32::NAN);
        assert!(m.read_f32(0x4000).is_nan());
    }

    #[test]
    fn slice_helpers() {
        let mut m = MainMemory::new();
        let vals = [1.0f32, 2.0, 3.0, 4.5];
        m.write_f32_slice(0x8000, &vals);
        assert_eq!(m.read_f32_slice(0x8000, 4), vals);
        m.write_u32_slice(0x9000, &[7, 8, 9]);
        assert_eq!(m.read_u32(0x9008), 9);
    }

    #[test]
    fn slice_reads_and_writes_cross_pages_and_match_bytes() {
        let mut m = MainMemory::new();
        let base = (1u64 << PAGE_SHIFT) - 7; // straddles a page boundary
        let data: Vec<u8> = (0..23u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(5))
            .collect();
        m.write_slice(base, &data);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), *b, "byte {i}");
        }
        let mut back = vec![0xAA; data.len()];
        m.read_slice(base, &mut back);
        assert_eq!(back, data);
        // Reads of untouched memory fill with zero, not stale bytes.
        let mut cold = vec![0xFF; 9];
        m.read_slice(0x7777_0000, &mut cold);
        assert!(cold.iter().all(|b| *b == 0));
    }

    #[test]
    fn clear_resets_to_zero() {
        let mut m = MainMemory::new();
        m.write_u32(0x10, 0xDEAD_BEEF);
        assert_eq!(m.resident_pages(), 1);
        m.clear();
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read_u32(0x10), 0);
    }

    #[test]
    fn overwrite() {
        let mut m = MainMemory::new();
        m.write_u32(0x10, 1);
        m.write_u32(0x10, 2);
        assert_eq!(m.read_u32(0x10), 2);
    }

    #[test]
    fn slice_access_wraps_at_address_space_top() {
        // A slice spanning u64::MAX must wrap to address 0, matching
        // the per-byte path, instead of overflowing `addr + done`.
        let mut m = MainMemory::new();
        let base = u64::MAX - 3; // 4 bytes at the top, rest wraps to 0..
        let data: Vec<u8> = (1..=9u8).collect();
        m.write_slice(base, &data);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(base.wrapping_add(i as u64)), *b, "byte {i}");
        }
        assert_eq!(m.read_u8(0), 5); // fifth byte landed at address 0
        let mut back = vec![0u8; data.len()];
        m.read_slice(base, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn per_byte_fallback_wraps_at_address_space_top() {
        let mut m = MainMemory::new();
        let base = u64::MAX - 2; // u64 access: 3 bytes at top, 5 wrapped
        m.write_u64(base, 0x0807_0605_0403_0201);
        assert_eq!(m.read_u64(base), 0x0807_0605_0403_0201);
        assert_eq!(m.read_u8(u64::MAX), 0x03);
        assert_eq!(m.read_u8(1), 0x05);
    }

    #[test]
    fn slice_write_matches_per_byte_write_near_top() {
        for k in [0u64, 1, 3, 7, 15] {
            let base = u64::MAX - k;
            let data: Vec<u8> = (0..32u8)
                .map(|i| i.wrapping_mul(11).wrapping_add(3))
                .collect();
            let mut bulk = MainMemory::new();
            bulk.write_slice(base, &data);
            let mut bytewise = MainMemory::new();
            for (i, b) in data.iter().enumerate() {
                bytewise.write_u8(base.wrapping_add(i as u64), *b);
            }
            for i in 0..data.len() {
                let a = base.wrapping_add(i as u64);
                assert_eq!(bulk.read_u8(a), bytewise.read_u8(a), "k={k} byte {i}");
            }
        }
    }
}
