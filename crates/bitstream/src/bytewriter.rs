//! Little-endian byte writer used by the file format and byte-level codecs.

/// Append-only byte buffer with little-endian scalar helpers.
///
/// Used to serialize the Gompresso file header (Fig. 3 of the paper), the
/// per-block sub-block size lists, and the Gompresso/Byte (LZ4-style)
/// sequence streams.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    bytes: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { bytes: Vec::new() }
    }

    /// Creates an empty writer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { bytes: Vec::with_capacity(capacity) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16_le(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32_le(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64_le(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a raw byte slice.
    pub fn write_bytes(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Appends the first `len` bytes of `data` (`len <= data.len()`),
    /// optimized for short prefixes: when 16 bytes are readable, a single
    /// fixed-size copy replaces the variable-length `memcpy` dispatch that
    /// dominates for the few-byte literal runs the LZ4-style encoder emits.
    pub fn write_prefix(&mut self, data: &[u8], len: usize) {
        if len <= 16 {
            if let Some(window) = data.get(..16) {
                self.bytes.extend_from_slice(window);
                self.bytes.truncate(self.bytes.len() - (16 - len));
                return;
            }
        }
        self.bytes.extend_from_slice(&data[..len]);
    }

    /// Overwrites 8 bytes at `offset` with a little-endian `u64`.
    ///
    /// The streaming file framing writes its prelude with sentinel totals
    /// (uncompressed size, block count) and back-patches them once the last
    /// block has been compressed. Panics if `offset + 8` exceeds the current
    /// length — that is a programming error, not a data error.
    pub fn patch_u64_le(&mut self, offset: usize, v: u64) {
        self.bytes[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a placeholder little-endian `u64` and returns its offset for a
    /// later [`ByteWriter::patch_u64_le`].
    pub fn reserve_u64_le(&mut self) -> usize {
        let offset = self.len();
        self.write_u64_le(0);
        offset
    }

    /// Consumes the writer and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_little_endian() {
        let mut w = ByteWriter::new();
        w.write_u16_le(0x1122);
        w.write_u32_le(0xA1B2C3D4);
        assert_eq!(w.finish(), vec![0x22, 0x11, 0xD4, 0xC3, 0xB2, 0xA1]);
    }

    #[test]
    fn patch_overwrites_placeholder() {
        let mut w = ByteWriter::new();
        w.write_u8(0xEE);
        let pos = w.len();
        w.write_u64_le(0); // placeholder
        w.write_bytes(b"payload");
        w.patch_u64_le(pos, 7);
        let bytes = w.finish();
        assert_eq!(bytes[0], 0xEE);
        assert_eq!(&bytes[1..9], &7u64.to_le_bytes());
        assert_eq!(&bytes[9..], b"payload");
    }

    #[test]
    fn reserve_and_patch_u64() {
        let mut w = ByteWriter::new();
        w.write_u8(0xAB);
        let pos = w.reserve_u64_le();
        w.write_bytes(b"tail");
        w.patch_u64_le(pos, u64::MAX - 1);
        let bytes = w.finish();
        assert_eq!(&bytes[1..9], &(u64::MAX - 1).to_le_bytes());
        assert_eq!(&bytes[9..], b"tail");
    }

    #[test]
    fn len_and_is_empty() {
        let mut w = ByteWriter::with_capacity(16);
        assert!(w.is_empty());
        w.write_u64_le(1);
        assert_eq!(w.len(), 8);
        assert!(!w.is_empty());
    }
}
