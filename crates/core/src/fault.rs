//! Deterministic fault injection for I/O paths.
//!
//! The integrity layer (checksums, salvage, panic isolation) exists to turn
//! silent corruption into loud, recoverable failure. This module supplies
//! the adversary: [`FaultReader`] and [`FaultWriter`] wrap any `Read`/`Write`
//! and inject a *seeded, reproducible* schedule of faults — bit flips,
//! truncation, short reads, and outright `io::Error`s — so the corruption
//! test matrix can drive every archive version through every damage class
//! and assert the decoder's contract: detect, or be byte-identical; never
//! silently wrong.
//!
//! The wrappers are generic over any `Read`/`Write`, so they compose with a
//! `TcpStream` as well as a file: the service daemon's fault matrix sends
//! one client's socket writes through a [`FaultWriter`] in short-write
//! bursts ([`FaultPlan::short_writes`]); its disconnect and stall victims
//! drive raw sockets directly.
//!
//! Everything is deterministic. The same [`FaultPlan`] and seed produce the
//! same faults on every run, so a failing matrix entry is a one-line repro:
//! the seed *is* the test case.

use std::io::{self, Read, Write};

/// A splitmix64 step — the tiny, seedable RNG driving fault placement.
/// (Same generator the offline `rand` shim uses; duplicated here so the
/// fault plan is self-contained and its streams never shift if the shim
/// evolves.)
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What faults to inject, and where. All positions are absolute byte
/// offsets in the wrapped stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(byte_offset, bit)` pairs to XOR-flip as bytes stream through.
    pub bit_flips: Vec<(u64, u8)>,
    /// Truncate the stream at this offset: reads report EOF there, writes
    /// silently drop everything past it (as a torn write would).
    pub truncate_at: Option<u64>,
    /// Return an injected `io::Error` once this many bytes have passed.
    /// The error is returned exactly once; subsequent calls proceed.
    pub error_at: Option<u64>,
    /// Maximum bytes served per `read` call (short reads). `0` = no limit.
    pub max_read: usize,
    /// Maximum bytes accepted per `write` call (short-write bursts).
    /// `0` = no limit. Callers relying on `write` instead of `write_all`
    /// will observe partial writes.
    pub max_write: usize,
}

impl FaultPlan {
    /// A plan with no faults — the identity wrapper.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Flip bit `bit` of the byte at `offset`.
    pub fn flip(mut self, offset: u64, bit: u8) -> Self {
        self.bit_flips.push((offset, bit % 8));
        self
    }

    /// Truncate the stream at `offset`.
    pub fn truncate(mut self, offset: u64) -> Self {
        self.truncate_at = Some(offset);
        self
    }

    /// Inject one `io::Error` after `offset` bytes.
    pub fn error(mut self, offset: u64) -> Self {
        self.error_at = Some(offset);
        self
    }

    /// Serve at most `n` bytes per read call.
    pub fn short_reads(mut self, n: usize) -> Self {
        self.max_read = n;
        self
    }

    /// Accept at most `n` bytes per write call.
    pub fn short_writes(mut self, n: usize) -> Self {
        self.max_write = n;
        self
    }

    /// A seeded random plan over a stream of `len` bytes: `flips` bit
    /// flips at uniformly random positions. Deterministic in `seed`.
    pub fn random_flips(seed: u64, len: u64, flips: usize) -> Self {
        let mut state = seed;
        let mut plan = Self::default();
        for _ in 0..flips {
            if len == 0 {
                break;
            }
            let r = splitmix64(&mut state);
            plan.bit_flips.push((r % len, (r >> 32) as u8 % 8));
        }
        plan
    }

    /// Applies the plan's bit flips and truncation directly to an in-memory
    /// buffer — the zero-I/O way to build a damaged archive for tests and
    /// fixtures. Injected `io::Error`s and short reads don't apply here.
    pub fn apply_to(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(offset, bit) in &self.bit_flips {
            if let Some(b) = out.get_mut(offset as usize) {
                *b ^= 1 << (bit % 8);
            }
        }
        if let Some(at) = self.truncate_at {
            out.truncate(at as usize);
        }
        out
    }

    fn flips_in(&self, start: u64, len: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
        let end = start + len as u64;
        self.bit_flips
            .iter()
            .filter(move |&&(off, _)| off >= start && off < end)
            .map(move |&(off, bit)| ((off - start) as usize, bit))
    }
}

/// A `Read` adapter that injects the faults of a [`FaultPlan`] into the
/// bytes flowing through it.
#[derive(Debug)]
pub struct FaultReader<R> {
    inner: R,
    plan: FaultPlan,
    pos: u64,
    error_armed: bool,
}

impl<R: Read> FaultReader<R> {
    /// Wraps `inner`, injecting the faults described by `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        let error_armed = plan.error_at.is_some();
        Self { inner, plan, pos: 0, error_armed }
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut limit = buf.len();
        if self.plan.max_read > 0 {
            limit = limit.min(self.plan.max_read);
        }
        if let Some(at) = self.plan.truncate_at {
            limit = limit.min(at.saturating_sub(self.pos) as usize);
            if limit == 0 && !buf.is_empty() {
                return Ok(0); // truncated: EOF
            }
        }
        if self.error_armed {
            let at = self.plan.error_at.unwrap_or(0);
            if self.pos >= at {
                self.error_armed = false;
                return Err(io::Error::other("injected fault"));
            }
            limit = limit.min((at - self.pos) as usize);
        }
        let n = self.inner.read(&mut buf[..limit])?;
        for (i, bit) in self.plan.flips_in(self.pos, n) {
            buf[i] ^= 1 << bit;
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// A `Write` adapter that injects the faults of a [`FaultPlan`] into the
/// bytes flowing through it.
#[derive(Debug)]
pub struct FaultWriter<W> {
    inner: W,
    plan: FaultPlan,
    pos: u64,
    error_armed: bool,
}

impl<W: Write> FaultWriter<W> {
    /// Wraps `inner`, injecting the faults described by `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        let error_armed = plan.error_at.is_some();
        Self { inner, plan, pos: 0, error_armed }
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut limit = buf.len();
        if self.plan.max_write > 0 {
            limit = limit.min(self.plan.max_write);
        }
        if self.error_armed {
            let at = self.plan.error_at.unwrap_or(0);
            if self.pos >= at {
                self.error_armed = false;
                return Err(io::Error::other("injected fault"));
            }
            limit = limit.min((at - self.pos) as usize);
        }
        let mut chunk = buf[..limit].to_vec();
        for (i, bit) in self.plan.flips_in(self.pos, chunk.len()) {
            chunk[i] ^= 1 << bit;
        }
        // Truncation models a torn write: bytes past the cut point are
        // swallowed but reported as written, so the producer completes
        // believing the data landed.
        if let Some(at) = self.plan.truncate_at {
            let keep = at.saturating_sub(self.pos).min(chunk.len() as u64) as usize;
            if keep > 0 {
                self.inner.write_all(&chunk[..keep])?;
            }
        } else {
            self.inner.write_all(&chunk)?;
        }
        self.pos += chunk.len() as u64;
        Ok(chunk.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_is_identity() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut out = Vec::new();
        FaultReader::new(&data[..], FaultPlan::clean()).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        let mut sink = Vec::new();
        FaultWriter::new(&mut sink, FaultPlan::clean()).write_all(&data).unwrap();
        assert_eq!(sink, data);
    }

    #[test]
    fn bit_flips_hit_exact_positions_on_both_sides() {
        let data = vec![0u8; 64];
        let plan = FaultPlan::clean().flip(0, 0).flip(17, 3).flip(63, 7);
        let mut expected = data.clone();
        expected[0] ^= 1;
        expected[17] ^= 1 << 3;
        expected[63] ^= 1 << 7;

        let mut via_reader = Vec::new();
        FaultReader::new(&data[..], plan.clone()).read_to_end(&mut via_reader).unwrap();
        assert_eq!(via_reader, expected);

        let mut via_writer = Vec::new();
        FaultWriter::new(&mut via_writer, plan.clone()).write_all(&data).unwrap();
        assert_eq!(via_writer, expected);

        assert_eq!(plan.apply_to(&data), expected);
    }

    #[test]
    fn flips_land_regardless_of_read_chunking() {
        let data = [0u8; 64];
        let plan = FaultPlan::clean().flip(17, 3).short_reads(5);
        let mut r = FaultReader::new(&data[..], plan);
        let mut out = Vec::new();
        let mut buf = [0u8; 7]; // co-prime with the short-read cap
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 5, "short-read cap violated: {n}");
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out.len(), 64);
        assert_eq!(out[17], 1 << 3);
    }

    #[test]
    fn truncation_reads_eof_and_writes_tear() {
        let data = vec![0xAAu8; 32];
        let mut out = Vec::new();
        FaultReader::new(&data[..], FaultPlan::clean().truncate(10)).read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![0xAAu8; 10]);

        let mut sink = Vec::new();
        let mut w = FaultWriter::new(&mut sink, FaultPlan::clean().truncate(10));
        w.write_all(&data).unwrap(); // the torn write reports success
        w.flush().unwrap();
        drop(w);
        assert_eq!(sink, vec![0xAAu8; 10]);
    }

    #[test]
    fn injected_error_fires_exactly_once_at_offset() {
        let data = [0u8; 32];
        let mut r = FaultReader::new(&data[..], FaultPlan::clean().error(8));
        let mut buf = [0u8; 32];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 8, "read must stop at the armed error offset");
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), 24, "after firing once the stream recovers");
    }

    #[test]
    fn injected_write_error_fires_exactly_once_at_offset() {
        let data: Vec<u8> = (0..32u8).collect();
        let mut sink = Vec::new();
        let mut w = FaultWriter::new(&mut sink, FaultPlan::clean().error(8));
        let err = w.write_all(&data).unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
        // The write that spans the offset stops there; after firing once
        // the sink recovers.
        w.write_all(&data[8..]).unwrap();
        drop(w);
        assert_eq!(sink, data);

        let mut sink = Vec::new();
        let mut w = FaultWriter::new(&mut sink, FaultPlan::clean().error(8));
        assert_eq!(w.write(&data).unwrap(), 8, "write must stop at the armed error offset");
        assert_eq!(w.write(&data[8..]).unwrap_err().to_string(), "injected fault");
        drop(w);
        assert_eq!(sink, data[..8]);
    }

    #[test]
    fn short_writes_cap_each_call_without_losing_bytes() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut sink = Vec::new();
        let mut w = FaultWriter::new(&mut sink, FaultPlan::clean().short_writes(7));
        let mut offset = 0;
        while offset < data.len() {
            let n = w.write(&data[offset..]).unwrap();
            assert!(n <= 7, "short-write cap violated: {n}");
            offset += n;
        }
        drop(w);
        assert_eq!(sink, data);

        // write_all copes with the bursts transparently.
        let mut sink2 = Vec::new();
        FaultWriter::new(&mut sink2, FaultPlan::clean().short_writes(3)).write_all(&data).unwrap();
        assert_eq!(sink2, data);
    }

    #[test]
    fn random_flips_are_deterministic_and_in_range() {
        let a = FaultPlan::random_flips(42, 1000, 16);
        let b = FaultPlan::random_flips(42, 1000, 16);
        assert_eq!(a, b);
        assert_eq!(a.bit_flips.len(), 16);
        assert!(a.bit_flips.iter().all(|&(off, bit)| off < 1000 && bit < 8));
        let c = FaultPlan::random_flips(43, 1000, 16);
        assert_ne!(a, c, "different seeds must give different plans");
    }
}
