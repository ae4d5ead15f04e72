//! Flat physical memory store.

use crate::addr::PhysAddr;

/// Byte-addressable physical memory.
///
/// The measured machines all had 8 MB; [`PhysicalMemory::new_780`] gives that
/// configuration.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    bytes: Vec<u8>,
}

impl PhysicalMemory {
    /// Memory of `size` bytes, zero-filled.
    pub fn new(size: usize) -> PhysicalMemory {
        PhysicalMemory {
            bytes: vec![0; size],
        }
    }

    /// The paper's machine configuration: 8 megabytes.
    pub fn new_780() -> PhysicalMemory {
        PhysicalMemory::new(8 << 20)
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    #[inline]
    fn idx(&self, pa: PhysAddr) -> usize {
        let i = pa.0 as usize;
        assert!(
            i < self.bytes.len(),
            "physical address {pa} out of range (memory is {} bytes)",
            self.bytes.len()
        );
        i
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, pa: PhysAddr) -> u8 {
        self.bytes[self.idx(pa)]
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, pa: PhysAddr, v: u8) {
        let i = self.idx(pa);
        self.bytes[i] = v;
    }

    /// Read `size` (1–8) bytes little-endian. The access may span pages;
    /// physical memory is flat so that is fine.
    pub fn read(&self, pa: PhysAddr, size: u32) -> u64 {
        debug_assert!((1..=8).contains(&size));
        let i = self.idx(pa);
        let end = i + size as usize;
        assert!(end <= self.bytes.len(), "read spans end of memory");
        // Byte, word and longword accesses are nearly every value access;
        // fixed-width arms compile to one load instead of a `memcpy` call.
        let b = &self.bytes[i..end];
        match b.len() {
            1 => u64::from(b[0]),
            2 => u64::from(u16::from_le_bytes([b[0], b[1]])),
            4 => u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            n => {
                let mut buf = [0u8; 8];
                buf[..n].copy_from_slice(b);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Write the low `size` (1–8) bytes of `v` little-endian.
    pub fn write(&mut self, pa: PhysAddr, size: u32, v: u64) {
        debug_assert!((1..=8).contains(&size));
        let i = self.idx(pa);
        let end = i + size as usize;
        assert!(end <= self.bytes.len(), "write spans end of memory");
        let b = &mut self.bytes[i..end];
        match b.len() {
            1 => b[0] = v as u8,
            2 => b.copy_from_slice(&(v as u16).to_le_bytes()),
            4 => b.copy_from_slice(&(v as u32).to_le_bytes()),
            n => b.copy_from_slice(&v.to_le_bytes()[..n]),
        }
    }

    /// Copy a slice into memory at `pa` (used by loaders).
    pub fn load(&mut self, pa: PhysAddr, data: &[u8]) {
        let i = self.idx(pa);
        let end = i + data.len();
        assert!(end <= self.bytes.len(), "load spans end of memory");
        self.bytes[i..end].copy_from_slice(data);
    }

    /// Borrow a region of memory (used by instruction fetch).
    pub fn slice(&self, pa: PhysAddr, len: usize) -> &[u8] {
        let i = self.idx(pa);
        assert!(i + len <= self.bytes.len(), "slice spans end of memory");
        &self.bytes[i..i + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write(PhysAddr(100), 4, 0xDEADBEEF);
        assert_eq!(mem.read(PhysAddr(100), 4), 0xDEADBEEF);
        assert_eq!(mem.read(PhysAddr(100), 1), 0xEF);
        assert_eq!(mem.read(PhysAddr(102), 2), 0xDEAD);
    }

    #[test]
    fn quadword() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write(PhysAddr(8), 8, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read(PhysAddr(8), 8), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn load_and_slice() {
        let mut mem = PhysicalMemory::new(4096);
        mem.load(PhysAddr(0x10), &[1, 2, 3, 4]);
        assert_eq!(mem.slice(PhysAddr(0x10), 4), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        let mem = PhysicalMemory::new(64);
        let _ = mem.read_u8(PhysAddr(64));
    }

    #[test]
    fn default_size() {
        assert_eq!(PhysicalMemory::new_780().size(), 8 << 20);
    }
}
