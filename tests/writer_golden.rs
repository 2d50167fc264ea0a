//! Golden archive bytes: what the writer produces today for
//! `tests/fixtures/fixture_input.bin` at 32 KiB blocks.
//!
//! The committed `v*` fixtures pin what older writers produced and must keep
//! decoding; this suite pins what the current writer *emits*. For every
//! preset it asserts the length and `xxh64(bytes, 0)` of the in-memory
//! container (`compress(..).file.serialize()`) and of the seekable stream
//! (`compress_seekable`) at 1 and 4 workers. A refactor of the compressor
//! that is meant to keep archives byte-identical must leave every value
//! here unchanged; a change that is meant to move them updates this table
//! and says why.

use gompresso::substrate::format::xxh64;
use gompresso::{compress, CompressorConfig, StreamCompressor};
use std::io::Cursor;
use std::path::Path;

const BLOCK_SIZE: usize = 32 * 1024;

/// One preset's expected archive: `(length, xxh64)` of the container and
/// of the stream.
struct Golden {
    name: &'static str,
    config: fn() -> CompressorConfig,
    container: (usize, u64),
    stream: (usize, u64),
}

const GOLDEN: [Golden; 5] = [
    Golden {
        name: "bit",
        config: CompressorConfig::bit,
        container: (56_905, 0x1051_1edc_15c8_4574),
        stream: (56_968, 0x2c1b_beae_f5e2_210b),
    },
    Golden {
        name: "byte",
        config: CompressorConfig::byte,
        container: (87_761, 0x58f3_90f0_5516_6c6f),
        stream: (87_828, 0x952c_64b2_8e38_2fb2),
    },
    Golden {
        name: "bit_de",
        config: CompressorConfig::bit_de,
        container: (60_006, 0xcbcc_4bd2_5dae_0f15),
        stream: (60_069, 0x6c3f_7d89_cfd4_2c42),
    },
    Golden {
        name: "byte_de",
        config: CompressorConfig::byte_de,
        container: (90_621, 0xf7fd_ab11_a35d_47a5),
        stream: (90_688, 0xcd23_98c5_8a35_5da4),
    },
    Golden {
        name: "auto",
        config: CompressorConfig::auto,
        container: (56_905, 0x1051_1edc_15c8_4574),
        stream: (56_968, 0x2c1b_beae_f5e2_210b),
    },
];

fn fixture_input() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixture_input.bin");
    let data = std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(data.len(), 131_072, "fixture input changed size");
    data
}

fn config(golden: &Golden) -> CompressorConfig {
    CompressorConfig { block_size: BLOCK_SIZE, ..(golden.config)() }
}

fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), xxh64(bytes, 0))
}

#[test]
fn containers_match_the_recorded_bytes() {
    let input = fixture_input();
    for golden in &GOLDEN {
        let out = compress(&input, &config(golden)).unwrap_or_else(|e| panic!("{}: {e}", golden.name));
        let got = fingerprint(&out.file.serialize());
        assert_eq!(got, golden.container, "{}: container (len, xxh64) {got:x?}", golden.name);
    }
}

#[test]
fn streams_match_the_recorded_bytes_at_every_worker_count() {
    let input = fixture_input();
    for golden in &GOLDEN {
        for workers in [1, 4] {
            let mut stream = Vec::new();
            StreamCompressor::new(config(golden))
                .unwrap()
                .with_workers(workers)
                .compress_seekable(input.as_slice(), Cursor::new(&mut stream))
                .unwrap_or_else(|e| panic!("{} at {workers} workers: {e}", golden.name));
            let got = fingerprint(&stream);
            assert_eq!(
                got, golden.stream,
                "{} at {workers} workers: stream (len, xxh64) {got:x?}",
                golden.name
            );
        }
    }
}
