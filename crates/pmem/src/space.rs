//! Sparse shadow memory backing the simulated NVMM address space.

use std::collections::HashMap;

use crate::addr::{PAddr, BLOCK_SIZE};
use crate::hash::FastHashBuilder;

const PAGE_SIZE: u64 = 4096;

/// Pages below this index live in the direct-mapped table; higher pages
/// spill to a hash map. 2^20 pages = a 4 GiB direct window, far above
/// anything the bump allocator hands out, at a worst-case table cost of
/// 8 MiB of pointers.
const DIRECT_PAGES: u64 = 1 << 20;

type Page = Box<[u8; PAGE_SIZE as usize]>;

fn zero_page() -> Page {
    Box::new([0u8; PAGE_SIZE as usize])
}

/// A sparse, byte-addressable shadow memory.
///
/// `Space` holds the *functional* contents of the simulated persistent
/// address space: every store performed through
/// [`PmemEnv`](crate::PmemEnv) lands here immediately, independent of any
/// timing model. Crash simulation builds alternative `Space` images that
/// reflect which stores actually reached NVMM (see [`crate::crash`]).
///
/// Unwritten memory reads as zero, like fresh pages.
///
/// Internally the page table is direct-mapped (a `Vec` indexed by page
/// number) rather than hashed: the environment's bump allocator hands
/// out dense addresses from the bottom of the space, and the 8-byte
/// loads/stores of trace recording are by far the hottest operation in
/// the whole harness. Pages beyond the direct window (nothing in-tree
/// allocates there) fall back to a hash map so the byte API stays fully
/// general over the `u64` address space.
///
/// ```
/// use spp_pmem::{PAddr, Space};
/// let mut s = Space::new();
/// assert_eq!(s.read_u64(PAddr::new(64)), 0);
/// s.write_u64(PAddr::new(64), 7);
/// assert_eq!(s.read_u64(PAddr::new(64)), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Space {
    direct: Vec<Option<Page>>,
    spill: HashMap<u64, Page, FastHashBuilder>,
    resident: usize,
}

impl Space {
    /// Creates an empty space; all bytes read as zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages that have been materialized by writes.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    #[inline]
    fn page(&self, idx: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        if idx < DIRECT_PAGES {
            match self.direct.get(idx as usize) {
                Some(Some(p)) => Some(p),
                _ => None,
            }
        } else {
            self.spill.get(&idx).map(|p| &**p)
        }
    }

    #[inline]
    fn page_mut(&mut self, idx: u64) -> &mut [u8; PAGE_SIZE as usize] {
        if idx < DIRECT_PAGES {
            let i = idx as usize;
            if i >= self.direct.len() {
                self.direct.resize_with(i + 1, || None);
            }
            let slot = &mut self.direct[i];
            if slot.is_none() {
                *slot = Some(zero_page());
                self.resident += 1;
            }
            match slot {
                Some(p) => p,
                None => unreachable!("slot materialized above"),
            }
        } else {
            self.resident += usize::from(!self.spill.contains_key(&idx));
            self.spill.entry(idx).or_insert_with(zero_page)
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`. Missing pages read as
    /// zero.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) {
        let mut a = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = usize::min(buf.len() - done, PAGE_SIZE as usize - off);
            match self.page(page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            a += n as u64;
        }
    }

    /// Writes `buf` starting at `addr`, materializing pages as needed.
    pub fn write_bytes(&mut self, addr: PAddr, buf: &[u8]) {
        let mut a = addr.raw();
        let mut done = 0usize;
        while done < buf.len() {
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = usize::min(buf.len() - done, PAGE_SIZE as usize - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            a += n as u64;
        }
    }

    /// Writes one whole cache line at the line-aligned `addr`: a single
    /// page lookup, since a line never straddles a page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a multiple of [`BLOCK_SIZE`].
    #[inline]
    pub fn write_line(&mut self, addr: PAddr, line: &[u8; BLOCK_SIZE as usize]) {
        let a = addr.raw();
        assert!(
            a.is_multiple_of(BLOCK_SIZE),
            "write_line needs a line-aligned address, got {a:#x}"
        );
        let off = (a % PAGE_SIZE) as usize;
        self.page_mut(a / PAGE_SIZE)[off..off + line.len()].copy_from_slice(line);
    }

    /// Reads a little-endian `u64` at `addr` (no alignment requirement).
    #[inline]
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let a = addr.raw();
        let off = (a % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            match self.page(a / PAGE_SIZE) {
                Some(p) => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&p[off..off + 8]);
                    u64::from_le_bytes(b)
                }
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u64` at `addr`.
    #[inline]
    pub fn write_u64(&mut self, addr: PAddr, v: u64) {
        let a = addr.raw();
        let off = (a % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            self.page_mut(a / PAGE_SIZE)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        } else {
            self.write_bytes(addr, &v.to_le_bytes());
        }
    }

    /// Reads `size` bytes (1..=8) at `addr` as a zero-extended integer.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    #[inline]
    pub fn read_uint(&self, addr: PAddr, size: u8) -> u64 {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let a = addr.raw();
        let off = (a % PAGE_SIZE) as usize;
        let n = size as usize;
        let mut b = [0u8; 8];
        if off + n <= PAGE_SIZE as usize {
            if let Some(p) = self.page(a / PAGE_SIZE) {
                b[..n].copy_from_slice(&p[off..off + n]);
            }
        } else {
            self.read_bytes(addr, &mut b[..n]);
        }
        u64::from_le_bytes(b)
    }

    /// Writes the low `size` bytes (1..=8) of `v` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    #[inline]
    pub fn write_uint(&mut self, addr: PAddr, size: u8, v: u64) {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let a = addr.raw();
        let off = (a % PAGE_SIZE) as usize;
        let n = size as usize;
        if off + n <= PAGE_SIZE as usize {
            self.page_mut(a / PAGE_SIZE)[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
        } else {
            self.write_bytes(addr, &v.to_le_bytes()[..n]);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let s = Space::new();
        let mut buf = [0xAAu8; 16];
        s.read_bytes(PAddr::new(12345), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn roundtrip_u64() {
        let mut s = Space::new();
        s.write_u64(PAddr::new(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(PAddr::new(8)), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut s = Space::new();
        let addr = PAddr::new(PAGE_SIZE - 3);
        let data: Vec<u8> = (0..10).collect();
        s.write_bytes(addr, &data);
        let mut back = [0u8; 10];
        s.read_bytes(addr, &mut back);
        assert_eq!(&back[..], &data[..]);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn cross_page_u64_round_trips() {
        let mut s = Space::new();
        // Straddles the page boundary, exercising the slow path.
        let addr = PAddr::new(PAGE_SIZE - 4);
        s.write_u64(addr, 0x0123_4567_89AB_CDEF);
        assert_eq!(s.read_u64(addr), 0x0123_4567_89AB_CDEF);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn partial_uint() {
        let mut s = Space::new();
        s.write_uint(PAddr::new(100), 2, 0xABCD);
        assert_eq!(s.read_uint(PAddr::new(100), 2), 0xABCD);
        // The neighbouring byte is untouched.
        assert_eq!(s.read_uint(PAddr::new(102), 1), 0);
    }

    #[test]
    fn spill_pages_beyond_direct_window() {
        let mut s = Space::new();
        let far = PAddr::new(DIRECT_PAGES * PAGE_SIZE + 24);
        assert_eq!(s.read_u64(far), 0);
        s.write_u64(far, 99);
        assert_eq!(s.read_u64(far), 99);
        assert_eq!(s.resident_pages(), 1);
        // Rewriting the same spill page does not recount it.
        s.write_u64(far.offset(8), 100);
        assert_eq!(s.resident_pages(), 1);
        let snap = s.clone();
        assert_eq!(snap.read_u64(far), 99);
    }

    #[test]
    fn clone_is_independent() {
        let mut s = Space::new();
        s.write_u64(PAddr::new(0), 1);
        let snap = s.clone();
        s.write_u64(PAddr::new(0), 2);
        assert_eq!(snap.read_u64(PAddr::new(0)), 1);
        assert_eq!(s.read_u64(PAddr::new(0)), 2);
    }

    #[test]
    fn write_line_matches_write_bytes() {
        let line: [u8; BLOCK_SIZE as usize] = std::array::from_fn(|i| i as u8 + 1);
        // The last line of a page, and a line in the spill map.
        let lines = [
            PAGE_SIZE - BLOCK_SIZE,
            DIRECT_PAGES * PAGE_SIZE + BLOCK_SIZE,
        ]
        .map(PAddr::new);
        let (mut fast, mut slow) = (Space::new(), Space::new());
        for a in lines {
            fast.write_line(a, &line);
            slow.write_bytes(a, &line);
        }
        for a in lines {
            let (mut x, mut y) = ([0u8; 80], [0u8; 80]);
            fast.read_bytes(PAddr::new(a.raw() - 8), &mut x);
            slow.read_bytes(PAddr::new(a.raw() - 8), &mut y);
            assert_eq!(x, y);
        }
        assert_eq!(fast.resident_pages(), slow.resident_pages());
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn write_line_rejects_unaligned_addresses() {
        Space::new().write_line(PAddr::new(8), &[0; BLOCK_SIZE as usize]);
    }

    #[test]
    #[should_panic(expected = "size must be")]
    fn uint_size_validated() {
        let s = Space::new();
        let _ = s.read_uint(PAddr::new(0), 9);
    }
}
