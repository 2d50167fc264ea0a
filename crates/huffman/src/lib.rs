//! Canonical, length-limited Huffman coding for Gompresso/Bit.
//!
//! DEFLATE — and Gompresso/Bit, which follows it — entropy-codes the LZ77
//! token stream with Huffman codes. Two trees are used per data block: one
//! for literals and match lengths, one for match offsets. The paper adds two
//! twists that this crate implements:
//!
//! * **Length-limited codes** — the decoder uses a flat look-up table with
//!   `2^CWL` entries per tree held in the GPU's on-chip shared memory, so
//!   the maximum codeword length is capped (CWL = 10 in the paper) even if
//!   the optimal Huffman code would be longer. Limiting uses the
//!   package-merge algorithm, which produces the optimal code subject to the
//!   length cap.
//! * **Canonical representation** — only the code *lengths* are stored in
//!   the file (Section III-A / Fig. 3); both encoder and decoder rebuild the
//!   same codes from the lengths.
//!
//! The decoder here is the same single-lookup design the paper describes:
//! peek `CWL` bits, index the LUT, consume the indicated length — no tree
//! walking, no data-dependent branching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod decoder;
pub mod encoder;
pub mod error;
pub mod histogram;
pub mod lengths;

pub use canonical::{CanonicalCode, CodeEntry};
pub use decoder::DecodeTable;
pub use encoder::EncodeTable;
pub use error::HuffmanError;
pub use histogram::Histogram;
pub use lengths::{code_lengths, limited_code_lengths};

/// Result alias for Huffman operations.
pub type Result<T> = std::result::Result<T, HuffmanError>;

/// Default maximum codeword length used by Gompresso/Bit (10 bits, chosen in
/// the paper so two decode LUTs fit comfortably in GPU shared memory).
pub const DEFAULT_MAX_CODE_LEN: u8 = 10;

#[cfg(test)]
mod proptests {
    use super::*;
    use gompresso_bitstream::{BitReader, BitWriter};
    use proptest::prelude::*;

    proptest! {
        /// encode→decode round-trips for arbitrary symbol streams and
        /// alphabet sizes under the default length limit.
        #[test]
        fn encode_decode_roundtrip(
            symbols in proptest::collection::vec(0u16..200, 1..2000),
            max_len in 8u8..=15u8,
        ) {
            let alphabet = 200usize;
            let mut hist = Histogram::new(alphabet);
            for &s in &symbols {
                hist.add(s);
            }
            let code = CanonicalCode::from_histogram(&hist, max_len).unwrap();
            let enc = EncodeTable::new(&code);
            let dec = DecodeTable::new(&code).unwrap();

            let mut w = BitWriter::new();
            for &s in &symbols {
                enc.encode(&mut w, s).unwrap();
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in &symbols {
                prop_assert_eq!(dec.decode(&mut r).unwrap(), s);
            }
        }

        /// Kraft inequality holds for every generated code (validity), and
        /// no code length exceeds the limit.
        #[test]
        fn kraft_and_limit_hold(
            freqs in proptest::collection::vec(0u64..10_000, 2..300),
            max_len in 5u8..=16u8,
        ) {
            // Need at least two nonzero symbols for a meaningful code; make
            // sure of it.
            let mut freqs = freqs;
            if freqs.iter().filter(|&&f| f > 0).count() < 2 {
                freqs[0] = 1;
                let last = freqs.len() - 1;
                freqs[last] = 1;
            }
            // Skip degenerate cases where the alphabet cannot fit the limit.
            prop_assume!((freqs.len() as u64) <= (1u64 << max_len));
            let lengths = limited_code_lengths(&freqs, max_len).unwrap();
            let mut kraft = 0.0f64;
            for (&f, &l) in freqs.iter().zip(&lengths) {
                if f > 0 {
                    prop_assert!(l >= 1 && l <= max_len);
                    kraft += (2.0f64).powi(-(i32::from(l)));
                } else {
                    prop_assert_eq!(l, 0);
                }
            }
            prop_assert!(kraft <= 1.0 + 1e-9, "Kraft sum {kraft} > 1");
        }
    }
}
