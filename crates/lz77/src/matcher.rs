//! Greedy hash-table LZ77 matcher with optional Dependency Elimination.
//!
//! The matcher follows the design of the LZ4 compressor that the paper
//! modifies for its DE experiments (Section IV-B): a hash table keyed on
//! the first `hash_bytes` bytes (four by default, as in stock LZ4) maps to
//! recent positions in the sliding window; matching is greedy, examining up
//! to `chain_depth` chained candidates (one by default, LZ4's single-entry
//! table) and up to `max_match_len` bytes per candidate (the paper looks at
//! the next 64 bytes within an 8 KB window by default).
//!
//! **Hot path.** The paper's compressor is a modified LZ4, i.e. a design
//! whose whole point is speed, so every inner loop here is word-wise and
//! allocation-free:
//!
//! * match lengths are computed eight bytes at a time with an unaligned
//!   `u64` load, XOR and `trailing_zeros` ([`common_prefix_len`]), with a
//!   byte loop only for the sub-word tail;
//! * the hash of a position is a single unaligned `u32` load (masked down
//!   when a three-byte key is configured) followed by one multiply; at an
//!   anchor the key is the low bytes of the word the compare loads anyway;
//! * each block is scanned in two regions by one loop body: a fast region,
//!   where every read the loop can make is in bounds so the end-of-block
//!   tests drop out, then a checked tail for the last `max_match_len + 8`
//!   bytes; both make the same decisions, so the split changes no output;
//! * the `head`/`prev` hash-chain tables live in a reusable
//!   [`MatcherScratch`] — [`Matcher::compress`] keeps one per worker thread,
//!   so steady-state block compression performs no heap allocation;
//! * runs that produce no matches are crossed with LZ4's skip-stride
//!   acceleration: after every [`SKIP_TRIGGER`]-th consecutive miss the
//!   cursor step grows by one byte, so incompressible regions cost a
//!   fraction of a hash probe per byte.
//!
//! **Dependency Elimination.** With `dependency_elimination` enabled the
//! matcher refuses any candidate whose source range overlaps the output of a
//! back-reference emitted earlier in the *same group of [`GROUP_SIZE`]
//! sequences* — the group that one warp will decompress together, and the
//! group the decoder's `verify_de_invariant(block, GROUP_SIZE)` checks.
//! Those are exactly the matches that would stall the warp at decompression
//! time (nested same-warp back-references). References into literal regions,
//! previous groups, or a sequence's own output remain legal because that data
//! is available before back-reference resolution begins. This is the one DE
//! rule the matcher enforces. The paper states a more conservative rule
//! ("only match below the warp high-water mark"); every match it accepts
//! this rule accepts too, so it is not implemented separately (see
//! `DESIGN.md` §3). The accompanying "minimal staleness" hash-replacement
//! policy (1 KiB, the paper's value) keeps older candidate positions alive
//! so that eliminating nearby candidates does not simply discard all
//! matches. Because emitted back-references are produced at strictly
//! increasing output positions, the per-group overlap check is a binary
//! search over a sorted list of disjoint intervals rather than a linear scan
//! (with a one-compare fast path for candidates below the group's first
//! emitted range, the common case under the staleness policy).

use crate::sequence::{Sequence, SequenceBlock};
use crate::GROUP_SIZE;
use std::cell::RefCell;

/// Configuration of the LZ77 matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Sliding-window (dictionary) size in bytes; must be a power of two.
    /// The paper's default is 8 KB.
    pub window_size: usize,
    /// Minimum match length worth emitting (3, as in Figure 1).
    pub min_match_len: usize,
    /// Maximum match length (the paper caps lookahead at 64 bytes).
    pub max_match_len: usize,
    /// Number of hash-chain candidates examined per position. The default
    /// of 1 reproduces the single-entry table of the LZ4 design the paper
    /// modifies; larger values trade compression speed for ratio (used by
    /// the zlib-like baseline).
    pub chain_depth: usize,
    /// log2 of the hash-table size.
    pub hash_bits: u32,
    /// Number of bytes hashed per table key (3 or 4), or 0 for automatic
    /// (4 when `min_match_len >= 4`, else 3). Hashing four bytes — what
    /// stock LZ4 does — yields fewer, higher-quality chain candidates at
    /// the cost of not finding matches of exactly length 3 whose fourth
    /// byte differs.
    pub hash_bytes: u32,
    /// Enable Dependency Elimination.
    pub dependency_elimination: bool,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            window_size: 8 * 1024,
            min_match_len: 3,
            max_match_len: 64,
            chain_depth: 1,
            hash_bits: 14,
            hash_bytes: 4,
            dependency_elimination: false,
        }
    }
}

impl MatcherConfig {
    /// The paper's Gompresso configuration (8 KB window, 64-byte lookahead).
    pub fn gompresso() -> Self {
        Self::default()
    }

    /// Gompresso with Dependency Elimination enabled.
    pub fn gompresso_de() -> Self {
        MatcherConfig { dependency_elimination: true, ..Self::default() }
    }

    /// A DEFLATE-like configuration (32 KB window, 258-byte matches, deeper
    /// chains, zlib's three-byte hash) used by the zlib-like baseline.
    pub fn deflate_like() -> Self {
        MatcherConfig {
            window_size: 32 * 1024,
            min_match_len: 3,
            max_match_len: 258,
            chain_depth: 32,
            hash_bits: 15,
            hash_bytes: 3,
            ..Self::default()
        }
    }

    /// An LZ4-like configuration (64 KB window, single-entry hash table,
    /// 4-byte minimum matches).
    pub fn lz4_like() -> Self {
        MatcherConfig {
            window_size: 64 * 1024,
            min_match_len: 4,
            max_match_len: 255,
            chain_depth: 1,
            hash_bits: 16,
            ..Self::default()
        }
    }
}

/// After this many consecutive positions without a match the cursor step
/// grows by one byte (and again every further `2^SKIP_TRIGGER` misses), the
/// acceleration LZ4 uses to cross incompressible regions quickly. The value
/// mirrors LZ4's skip trigger of 6: the first 64 misses are walked byte by
/// byte, so compressible data is matched exactly as without acceleration.
pub const SKIP_TRIGGER: u32 = 6;

/// Minimal staleness in bytes for the DE hash-replacement policy: an
/// existing table entry is only replaced once it falls more than this many
/// bytes behind the cursor. The paper (Section IV-B) determined 1 KiB
/// empirically.
const MIN_STALENESS: u64 = 1024;

/// Output range `[start, end)` of an already-emitted back-reference in the
/// current warp group. Ranges are produced at strictly increasing positions,
/// so the per-group list is always sorted and disjoint.
#[derive(Debug, Clone, Copy)]
struct EmittedRef {
    start: usize,
    end: usize,
}

/// Loop state a block's fast region hands to its checked tail.
#[derive(Debug, Default, Clone, Copy)]
struct Cursor {
    pos: usize,
    literal_start: usize,
    /// Consecutive match-less positions; drives skip-stride acceleration.
    miss_run: u32,
    seq_in_group: usize,
}

/// Reusable hash-chain state for [`Matcher::compress_with_scratch`].
///
/// A scratch holds the `head` table (`2^hash_bits` entries, 16 K for the
/// default configuration), the `prev` chain ring (one entry per window
/// byte, materialised only for chain-walking and DE matchers) and the
/// per-group emitted-reference list.
/// Allocating these per block dominated compression set-up cost; a scratch
/// is prepared (cleared and resized for the matcher's configuration) at the
/// start of every block and its buffers are reused across blocks.
/// [`Matcher::compress`] keeps one scratch per worker thread automatically.
#[derive(Debug, Default, Clone)]
pub struct MatcherScratch {
    /// `head[h]` = most recent (per replacement policy) position with hash
    /// `h`, or `u32::MAX`.
    head: Vec<u32>,
    /// `prev[p & window_mask]` = previous position in the chain of `p`.
    prev: Vec<u32>,
    /// Sorted, disjoint output ranges of the current group's emitted
    /// back-references (DE bookkeeping).
    emitted: Vec<EmittedRef>,
}

impl MatcherScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and resizes the tables for a matcher configuration. The
    /// `prev` ring is only materialised for matchers that walk chains
    /// (depth > 1 or DE); a single-probe matcher never reads it.
    fn prepare(&mut self, hash_size: usize, window_size: usize, chain: bool) {
        self.head.clear();
        self.head.resize(hash_size, u32::MAX);
        self.prev.clear();
        if chain {
            self.prev.resize(window_size, u32::MAX);
        }
        self.emitted.clear();
        self.emitted.reserve(GROUP_SIZE);
    }
}

thread_local! {
    /// Per-worker matcher scratch used by [`Matcher::compress`]. Every
    /// rayon worker compresses all blocks it owns with the same tables, so
    /// steady-state compression allocates nothing per block.
    static MATCHER_SCRATCH: RefCell<MatcherScratch> = RefCell::new(MatcherScratch::new());
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `limit`.
///
/// Requires `a < b` and `b + limit <= input.len()` (the matcher derives
/// `limit` from the remaining lookahead, so both hold by construction).
/// Compares eight bytes per step with an unaligned little-endian `u64` load
/// and XOR; the first differing byte index is `trailing_zeros / 8` of the
/// XOR. A byte loop handles the final sub-word tail. This is the word-wise
/// counterpart of the `BitReader` refill on the decompression side.
#[inline]
pub fn common_prefix_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    debug_assert!(a < b && b + limit <= input.len());
    let mut len = 0usize;
    while len + 8 <= limit {
        let x = load_u64(input, a + len) ^ load_u64(input, b + len);
        if x != 0 {
            return len + (x.trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < limit && input[a + len] == input[b + len] {
        len += 1;
    }
    len
}

#[inline(always)]
fn load_u64(input: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(input[pos..pos + 8].try_into().expect("slice of length 8"))
}

#[inline(always)]
fn load_u32(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("slice of length 4"))
}

/// Greedy LZ77 matcher over a single data block.
#[derive(Debug, Clone)]
pub struct Matcher {
    config: MatcherConfig,
}

impl Matcher {
    /// Creates a matcher; panics if the configuration is internally
    /// inconsistent (non-power-of-two window, zero match lengths), which is
    /// a programming error rather than a data error.
    pub fn new(config: MatcherConfig) -> Self {
        assert!(config.window_size.is_power_of_two(), "window size must be a power of two");
        assert!(config.min_match_len >= 3, "minimum match length must be at least 3");
        assert!(config.max_match_len >= config.min_match_len, "max match must be >= min match");
        assert!(config.hash_bits >= 8 && config.hash_bits <= 24, "hash bits out of range");
        assert!(config.chain_depth >= 1, "chain depth must be at least 1");
        assert!(matches!(config.hash_bytes, 0 | 3 | 4), "hash width must be 0 (auto), 3 or 4");
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// Longest match length the dependency-elimination policy permits for a
    /// candidate source starting at `cand` (`usize::MAX` without DE).
    ///
    /// A candidate whose actual match length exceeds this bound is rejected
    /// outright (the matcher does not truncate matches), so callers compare
    /// the computed length against the bound — and can skip the length
    /// computation entirely when the bound cannot reach `min_match_len`.
    ///
    /// `emitted` holds the current group's back-reference output ranges in
    /// sorted, disjoint order, so the rule is a binary search for the first
    /// range ending past `cand` — the only one that can overlap — instead
    /// of a linear scan (the old scan made DE candidate filtering O(group²)
    /// per group).
    #[inline]
    fn de_allowed_len(&self, cand: usize, emitted: &[EmittedRef]) -> usize {
        if !self.config.dependency_elimination {
            return usize::MAX;
        }
        // The source must not overlap the output of any back-reference
        // already emitted in this group. Two fast paths cover the
        // overwhelmingly common cases before the binary search: an empty
        // group, and a candidate that starts below the group's first
        // emitted range — the staleness replacement policy keeps
        // table entries old, so most candidates lie entirely below the
        // group span and resolve with a single compare (the bound is the
        // same one the search would produce for partition index 0).
        let first = match emitted.first() {
            None => return usize::MAX,
            Some(first) => first,
        };
        if cand < first.start {
            return first.start - cand;
        }
        let i = emitted.partition_point(|r| r.end <= cand);
        match emitted.get(i) {
            Some(r) => r.start.saturating_sub(cand),
            None => usize::MAX,
        }
    }

    /// Compresses one data block into a freshly allocated sequence block,
    /// using a per-thread [`MatcherScratch`].
    pub fn compress(&self, input: &[u8]) -> SequenceBlock {
        MATCHER_SCRATCH.with(|scratch| self.compress_with_scratch(input, &mut scratch.borrow_mut()))
    }

    /// Compresses one data block using caller-provided scratch tables.
    pub fn compress_with_scratch(&self, input: &[u8], scratch: &mut MatcherScratch) -> SequenceBlock {
        let mut block = SequenceBlock::new();
        self.compress_into(input, &mut block, scratch);
        block
    }

    /// Compresses one data block into a caller-provided sequence block,
    /// clearing and reusing its buffers.
    ///
    /// This is the allocation-free core of compression: the block driver in
    /// `gompresso-core` hands every block of a file to the same per-worker
    /// `SequenceBlock` and [`MatcherScratch`], so the steady-state compress
    /// loop performs no heap allocation at all.
    pub fn compress_into(&self, input: &[u8], out: &mut SequenceBlock, scratch: &mut MatcherScratch) {
        match (self.config.dependency_elimination, self.config.chain_depth > 1) {
            (true, _) => self.compress_core::<true, true>(input, out, scratch),
            (false, true) => self.compress_core::<false, true>(input, out, scratch),
            (false, false) => self.compress_core::<false, false>(input, out, scratch),
        }
    }

    /// The per-block compressor, monomorphised on Dependency Elimination (so
    /// the plain matcher carries no staleness checks, no emitted-range
    /// bookkeeping and no per-candidate policy test) and on chain walking
    /// (`CHAIN`): a single-probe matcher without DE never follows a `prev`
    /// link — the first candidate always consumes its one attempt — so the
    /// specialisation elides every `prev` read, write and the ring clear.
    /// DE always walks chains because policy-vetoed candidates do not
    /// consume attempts.
    ///
    /// The block is scanned in two regions by one loop body ([`Self::scan`]).
    /// Below `n - (max_match_len + 8)` every read a position can make — the
    /// cursor's eight-byte word, a full-length compare, the literal word
    /// copy, the keys of the positions a match covers — lies inside the
    /// block, so the fast region runs without the end-of-block tests; the
    /// checked tail then finishes the last `max_match_len + 8` bytes with
    /// every test in place. Both regions make the same decisions, so the
    /// split changes no output byte.
    fn compress_core<const DE: bool, const CHAIN: bool>(
        &self,
        input: &[u8],
        out: &mut SequenceBlock,
        scratch: &mut MatcherScratch,
    ) {
        let cfg = &self.config;
        let n = input.len();
        out.sequences.clear();
        out.literals.clear();
        out.uncompressed_len = n;
        if n == 0 {
            return;
        }

        scratch.prepare(1usize << cfg.hash_bits, cfg.window_size, CHAIN);
        let mut cursor = Cursor::default();
        let fast_end = n.saturating_sub(cfg.max_match_len + 8);
        self.scan::<DE, CHAIN, true>(input, fast_end, &mut cursor, scratch, out);
        self.scan::<DE, CHAIN, false>(input, n, &mut cursor, scratch, out);

        // Trailing literals form a final, match-less sequence.
        let literal_start = cursor.literal_start;
        if literal_start < n {
            let literal_len = n - literal_start;
            out.literals.extend_from_slice(&input[literal_start..]);
            out.sequences.push(Sequence::literals_only(literal_len as u32));
        }
    }

    /// The greedy loop over anchors `cursor.pos..end`, resuming from and
    /// saving back the state in `cursor`.
    ///
    /// With `FAST` the caller guarantees `end <= n - (max_match_len + 8)`,
    /// so the lookahead limit is `max_match_len`, the anchor's hash key is
    /// the low bytes of the eight-byte word the candidate compare loads, and
    /// the `pos + min_match_len <= n`, word-slack and literal-slack tests
    /// all hold without being made.
    fn scan<const DE: bool, const CHAIN: bool, const FAST: bool>(
        &self,
        input: &[u8],
        end: usize,
        cursor: &mut Cursor,
        scratch: &mut MatcherScratch,
        out: &mut SequenceBlock,
    ) {
        let cfg = &self.config;
        let n = input.len();
        debug_assert!(!FAST || end == 0 || end + cfg.max_match_len + 8 <= n);
        let window_mask = cfg.window_size - 1;
        // Slicing the table to its power-of-two length once and masking
        // every hash with `len - 1` lets the compiler drop the bounds check
        // on each probe.
        let MatcherScratch { head, prev, emitted } = scratch;
        let head = &mut head[..1usize << cfg.hash_bits];
        let hmask = head.len() - 1;

        // Multiplicative hash of the first `hash_bytes` bytes of a
        // little-endian key word (the three-byte key masks the fourth byte
        // off). The key width and shift are hoisted out of the loop, so the
        // per-probe cost is one load, one multiply and one shift.
        let quad = match cfg.hash_bytes {
            0 => cfg.min_match_len >= 4,
            b => b >= 4,
        };
        let key_mask = if quad { u32::MAX } else { 0x00FF_FFFF };
        let hash_shift = 32 - cfg.hash_bits;
        let hash = |word: u32| ((word & key_mask).wrapping_mul(2654435761) >> hash_shift) as usize & hmask;
        // Hash of the key at `pos`, from one unaligned `u32` load whenever
        // four bytes are in bounds (always, in the fast region; callers
        // guarantee at least three loadable bytes).
        let hash_at = |pos: usize| -> usize {
            if FAST {
                hash(load_u32(input, pos))
            } else if let Some(chunk) = input.get(pos..pos + 4) {
                hash(u32::from_le_bytes(chunk.try_into().expect("slice of length 4")))
            } else {
                hash(u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], 0]))
            }
        };

        // Insertion with a caller-precomputed hash and head entry: the
        // search loop already hashed the anchor position and loaded its
        // chain head, so neither is fetched twice.
        let insert_loaded = |head: &mut [u32], prev: &mut [u32], pos: usize, h: usize, existing: u32| {
            if DE {
                // Minimal-staleness policy: keep the old entry unless it has
                // fallen far enough behind the cursor. Valid entries are
                // always <= pos (tables are cleared per block), so the
                // wrapping subtraction also classifies the empty sentinel as
                // stale without a separate compare. Both writes happen
                // either way, without a branch (on matrix only 42% of
                // inserts are stale): a kept entry rewrites `head[h]` with
                // itself, and the `prev` slot of a position that never
                // enters `head` is reached by no chain, while the position
                // a window earlier that shares the slot lies outside every
                // later walk's window, which ends before its `prev` read.
                let stale = (pos as u64).wrapping_sub(u64::from(existing)) > MIN_STALENESS;
                prev[pos & window_mask] = existing;
                head[h] = if stale { pos as u32 } else { existing };
            } else {
                if CHAIN {
                    prev[pos & window_mask] = existing;
                }
                head[h] = pos as u32;
            }
        };
        let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
            if !FAST && pos + cfg.min_match_len > n {
                return;
            }
            let h = hash_at(pos);
            let existing = head[h];
            insert_loaded(head, prev, pos, h, existing);
        };

        let Cursor { mut pos, mut literal_start, mut miss_run, mut seq_in_group } = *cursor;
        while pos < end {
            let mut best_len = 0usize;
            let mut best_cand = 0usize;

            let mut anchor_hash = 0usize;
            let mut anchor_head = u32::MAX;
            let hashed = FAST || pos + cfg.min_match_len <= n;
            if hashed {
                let limit = if FAST { cfg.max_match_len } else { cfg.max_match_len.min(n - pos) };
                // One unaligned load of the cursor's next eight bytes serves
                // the hash key and every candidate comparison at this
                // anchor; most candidates then cost a single XOR +
                // trailing_zeros with no data-dependent branching
                // (`wordwise` is false only within the last seven bytes of
                // the block).
                let wordwise = FAST || pos + 8 <= n;
                let target = if wordwise { load_u64(input, pos) } else { 0 };
                let h = if FAST { hash(target as u32) } else { hash_at(pos) };
                anchor_hash = h;
                anchor_head = head[h];
                let mut cand = anchor_head;
                let mut attempts = 0usize;
                while cand != u32::MAX && attempts < cfg.chain_depth {
                    let cand_pos = cand as usize;
                    // Offsets must be strictly smaller than the window so
                    // they fit the formats' offset fields (e.g. 16 bits for
                    // a 64 KiB window in the byte-level encodings). The
                    // wrapping subtraction folds "candidate at or past the
                    // cursor" and "offset too large" into one unsigned
                    // compare: offset-1 must lie in 0..=window_size-2, so
                    // anything >= window_mask breaks.
                    if pos.wrapping_sub(cand_pos).wrapping_sub(1) >= window_mask {
                        break;
                    }
                    // A candidate can only become the new best if it matches
                    // at least `max(best_len + 1, min_match_len)` bytes —
                    // its prefix must exceed `probe`.
                    let probe = best_len.max(cfg.min_match_len - 1);
                    if probe >= limit {
                        // The current best already saturates the lookahead;
                        // nothing can improve on it.
                        break;
                    }
                    let len = if wordwise {
                        let x = load_u64(input, cand_pos) ^ target;
                        if x != 0 {
                            // Prefix shorter than a word: its exact length
                            // falls out of the XOR with no byte loop (the
                            // clamp matters when `limit < 8`).
                            (x.trailing_zeros() >> 3) as usize
                        } else if limit <= 8 {
                            limit
                        } else {
                            8 + common_prefix_len(input, cand_pos + 8, pos + 8, limit - 8)
                        }
                        .min(limit)
                    } else if input[cand_pos + probe] == input[pos + probe] {
                        common_prefix_len(input, cand_pos, pos, limit)
                    } else {
                        0
                    };
                    let mut de_blocked = false;
                    if len > probe {
                        if !DE || len <= self.de_allowed_len(cand_pos, emitted) {
                            best_len = len;
                            best_cand = cand_pos;
                            if len >= cfg.max_match_len {
                                break;
                            }
                        } else {
                            // The candidate would have won but the DE policy
                            // vetoed it. Such rejections do not consume a
                            // chain attempt: an older chain entry usually
                            // lies below the group's output span and is
                            // eligible, and giving up here instead costs
                            // about half a percent of ratio on both seeded
                            // datasets for no measurable speed gain.
                            de_blocked = true;
                        }
                    }
                    let next = if CHAIN { prev[cand_pos & window_mask] } else { u32::MAX };
                    // The ring buffer may contain stale entries from a
                    // position that has since wrapped; chains must strictly
                    // decrease to be valid.
                    if next != u32::MAX && next as usize >= cand_pos {
                        break;
                    }
                    cand = next;
                    if !de_blocked {
                        attempts += 1;
                    }
                }
            }

            if best_len >= cfg.min_match_len {
                // Emit the pending literals plus this back-reference as one
                // sequence. Literal runs average only a few bytes on text,
                // so short runs with word-sized slack are copied as one
                // fixed eight-byte store and truncated back — the compiler
                // turns the constant-length copy into a single unaligned
                // word move, far cheaper than a variable-length memcpy call.
                let literal_len = pos - literal_start;
                if literal_len <= 8 && (FAST || literal_start + 8 <= n) {
                    let old_len = out.literals.len();
                    out.literals.extend_from_slice(&input[literal_start..literal_start + 8]);
                    out.literals.truncate(old_len + literal_len);
                } else {
                    out.literals.extend_from_slice(&input[literal_start..pos]);
                }
                out.sequences.push(Sequence {
                    literal_len: literal_len as u32,
                    match_offset: (pos - best_cand) as u32,
                    match_len: best_len as u32,
                });
                if DE {
                    emitted.push(EmittedRef { start: pos, end: pos + best_len });
                }
                miss_run = 0;

                // Insert hash entries for positions covered by the match so
                // later matches can reference into it. The anchor's hash and
                // chain head were already fetched by the search. For DE and
                // single-probe matchers, long matches are sampled every
                // other position: a candidate two bytes earlier almost
                // always reaches the same maximal match (the paper's DE
                // staleness policy already declined most of these inserts),
                // so hashing every covered byte is wasted work (mirrored by
                // the equivalence-test reference). Deep-chain matchers keep
                // the dense inserts — they pay for their ratio with chain
                // walks, and thinning their chains costs measurably on text.
                insert_loaded(head, prev, pos, anchor_hash, anchor_head);
                let sampled = DE || !CHAIN;
                let step = if sampled && best_len >= 8 { 2 } else { 1 };
                let mut p = pos + 1;
                while p < pos + best_len {
                    insert(head, prev, p);
                    p += step;
                }
                if !DE && sampled && best_len >= 8 && best_len.is_multiple_of(2) {
                    // The second-to-last covered position falls on the
                    // sampled-out parity for even lengths, yet it is the
                    // likeliest anchor for the next match (the position LZ4
                    // always re-inserts); keep it hot.
                    insert(head, prev, pos + best_len - 2);
                }

                pos += best_len;
                literal_start = pos;
                if DE {
                    // Only the DE policy reads the group state.
                    seq_in_group += 1;
                    if seq_in_group == GROUP_SIZE {
                        seq_in_group = 0;
                        emitted.clear();
                    }
                }
            } else {
                if hashed {
                    insert_loaded(head, prev, pos, anchor_hash, anchor_head);
                }
                // Skip-stride acceleration: every 2^SKIP_TRIGGER consecutive
                // misses widen the step by one byte, so long incompressible
                // runs are crossed in strides instead of byte by byte.
                // Skipped positions are not hashed, exactly as in LZ4.
                let step = 1 + (miss_run >> SKIP_TRIGGER) as usize;
                miss_run += 1;
                pos += step;
            }
        }
        *cursor = Cursor { pos, literal_start, miss_run, seq_in_group };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::verify_de_invariant;
    use crate::decompress::decompress_block;

    fn roundtrip_with(input: &[u8], config: MatcherConfig) -> SequenceBlock {
        let block = Matcher::new(config).compress(input);
        let out = decompress_block(&block).expect("decompression failed");
        assert_eq!(out, input, "round trip mismatch");
        block
    }

    #[test]
    fn empty_input_produces_empty_block() {
        let block = Matcher::new(MatcherConfig::default()).compress(&[]);
        assert!(block.is_empty());
        assert_eq!(block.uncompressed_len, 0);
    }

    #[test]
    fn incompressible_short_input_is_all_literals() {
        let input = b"abcdefg";
        let block = roundtrip_with(input, MatcherConfig::default());
        assert_eq!(block.len(), 1);
        assert!(!block.sequences[0].has_match());
        assert_eq!(block.literals, input);
    }

    #[test]
    fn paper_figure1_example_finds_the_aac_match() {
        // Figure 1: "aacaacbacadd" — after emitting 'a','a','c' as literals,
        // the next 'aac' matches at offset 3. The figure illustrates
        // trigram matching, so pin the three-byte hash (the production
        // default hashes four bytes, which cannot see this length-3 match).
        let input = b"aacaacbacadd";
        let block = roundtrip_with(input, MatcherConfig { hash_bytes: 3, ..MatcherConfig::default() });
        assert!(block.match_count() >= 1);
        let first_match = block.sequences.iter().find(|s| s.has_match()).unwrap();
        assert_eq!(first_match.literal_len, 3);
        assert_eq!(first_match.match_offset, 3);
        assert!(first_match.match_len >= 3);
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let input: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(16 * 1024)
            .collect();
        let block = roundtrip_with(&input, MatcherConfig::default());
        // Nearly everything after the first occurrence should be matches.
        assert!(block.literal_len() < input.len() / 10, "literals: {}", block.literal_len());
        assert!(block.byte_encoded_estimate() < input.len() / 3);
    }

    #[test]
    fn overlapping_match_is_produced_for_runs() {
        // A run of a single byte: after the first few literals, matches with
        // offset smaller than their length (self-overlap) are the natural
        // encoding.
        let input = vec![b'x'; 1000];
        let block = roundtrip_with(&input, MatcherConfig::default());
        assert!(block.sequences.iter().any(|s| s.has_match() && s.match_offset < s.match_len));
    }

    #[test]
    fn window_limit_is_respected() {
        let cfg = MatcherConfig { window_size: 1024, ..MatcherConfig::default() };
        // Two identical 600-byte chunks separated by 2 KiB of unique noise:
        // the second chunk lies outside the window and must not be matched
        // against the first.
        let chunk: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        let mut input = chunk.clone();
        for i in 0..2048u32 {
            input.push((i.wrapping_mul(2654435761) >> 13) as u8);
        }
        input.extend_from_slice(&chunk);
        let block = roundtrip_with(&input, cfg);
        for s in &block.sequences {
            assert!((s.match_offset as usize) < 1024, "offset {} exceeds window", s.match_offset);
        }
    }

    #[test]
    fn max_match_len_is_respected() {
        let cfg = MatcherConfig { max_match_len: 16, ..MatcherConfig::default() };
        let input = vec![b'z'; 4096];
        let block = roundtrip_with(&input, cfg);
        assert!(block.sequences.iter().all(|s| s.match_len <= 16));
    }

    #[test]
    fn de_mode_eliminates_same_group_dependencies() {
        // Build an input with heavy short-range repetition, which produces
        // nested references without DE.
        let mut input = Vec::new();
        for i in 0..2000u32 {
            input.extend_from_slice(b"abcabcabd");
            input.push((i % 7) as u8 + b'0');
        }
        let plain = Matcher::new(MatcherConfig::gompresso()).compress(&input);
        assert_eq!(decompress_block(&plain).unwrap(), input);
        // The plain matcher is expected to create at least some same-group
        // dependencies on this input.
        assert!(verify_de_invariant(&plain, GROUP_SIZE).is_err());

        let de = Matcher::new(MatcherConfig::gompresso_de()).compress(&input);
        assert_eq!(decompress_block(&de).unwrap(), input);
        verify_de_invariant(&de, GROUP_SIZE).unwrap();
    }

    #[test]
    fn de_costs_some_compression_ratio_but_not_much() {
        let mut input = Vec::new();
        for i in 0..3000u32 {
            input.extend_from_slice(b"<row id='");
            input.extend_from_slice(i.to_string().as_bytes());
            input.extend_from_slice(b"'><value>lorem ipsum dolor sit amet</value></row>\n");
        }
        let plain = Matcher::new(MatcherConfig::gompresso()).compress(&input);
        let de = Matcher::new(MatcherConfig::gompresso_de()).compress(&input);
        let plain_size = plain.byte_encoded_estimate();
        let de_size = de.byte_encoded_estimate();
        assert!(de_size >= plain_size, "DE cannot improve the ratio");
        // The paper reports at most 19 % ratio degradation; allow 30 % for
        // this small synthetic input.
        assert!(
            (de_size as f64) < (plain_size as f64) * 1.3,
            "DE degraded the compressed size too much: {plain_size} -> {de_size}"
        );
        assert_eq!(decompress_block(&de).unwrap(), input);
    }

    #[test]
    fn deeper_chains_do_not_hurt_ratio() {
        let mut input = Vec::new();
        for i in 0..1000u32 {
            input.extend_from_slice(format!("entry {} value {} ", i % 50, (i * 7) % 90).as_bytes());
        }
        let shallow =
            Matcher::new(MatcherConfig { chain_depth: 1, ..MatcherConfig::default() }).compress(&input);
        let deep =
            Matcher::new(MatcherConfig { chain_depth: 32, ..MatcherConfig::default() }).compress(&input);
        assert!(deep.byte_encoded_estimate() <= shallow.byte_encoded_estimate());
        assert_eq!(decompress_block(&deep).unwrap(), input);
    }

    #[test]
    fn preset_configs_are_valid() {
        for cfg in [
            MatcherConfig::gompresso(),
            MatcherConfig::gompresso_de(),
            MatcherConfig::deflate_like(),
            MatcherConfig::lz4_like(),
        ] {
            let m = Matcher::new(cfg);
            let input = b"abcabcabcabcabc".repeat(10);
            assert_eq!(decompress_block(&m.compress(&input)).unwrap(), input);
        }
    }

    #[test]
    fn compress_into_reuses_buffers_across_blocks() {
        let matcher = Matcher::new(MatcherConfig::gompresso_de());
        let mut scratch = MatcherScratch::new();
        let mut block = SequenceBlock::new();
        let inputs = [
            b"first block first block first block ".repeat(40),
            b"second, longer block with different content ".repeat(90),
            b"3rd".to_vec(),
            Vec::new(),
        ];
        for input in &inputs {
            matcher.compress_into(input, &mut block, &mut scratch);
            assert_eq!(block, matcher.compress(input), "scratch reuse changed the output");
            if !input.is_empty() {
                assert_eq!(decompress_block(&block).unwrap(), *input);
            }
        }
    }

    /// `compress_core` with the fast region left out: the checked loop
    /// scans the whole block from a fresh cursor.
    fn compress_checked_only<const DE: bool, const CHAIN: bool>(
        matcher: &Matcher,
        input: &[u8],
    ) -> SequenceBlock {
        let cfg = matcher.config();
        let mut scratch = MatcherScratch::new();
        scratch.prepare(1usize << cfg.hash_bits, cfg.window_size, CHAIN);
        let mut out = SequenceBlock::new();
        out.uncompressed_len = input.len();
        let mut cursor = Cursor::default();
        matcher.scan::<DE, CHAIN, false>(input, input.len(), &mut cursor, &mut scratch, &mut out);
        if cursor.literal_start < input.len() {
            out.literals.extend_from_slice(&input[cursor.literal_start..]);
            out.sequences.push(Sequence::literals_only((input.len() - cursor.literal_start) as u32));
        }
        out
    }

    #[test]
    fn fast_region_matches_the_checked_loop() {
        // Both regions must make the same decision at every position, so a
        // block compressed with the fast region must equal the same block
        // scanned by the checked loop alone — for all three
        // specialisations, and for lookaheads below, at and above the
        // eight-byte word the fast region's key and compare share.
        let mut configs = Vec::new();
        for max_match_len in [3, 7, 8, 9, 64, 258] {
            for hash_bytes in [3, 4] {
                let base =
                    MatcherConfig { max_match_len, hash_bytes, hash_bits: 12, ..MatcherConfig::default() };
                configs.push(base.clone());
                configs.push(MatcherConfig { chain_depth: 8, window_size: 32 * 1024, ..base.clone() });
                configs.push(MatcherConfig { dependency_elimination: true, ..base });
            }
        }
        let words: [&[u8]; 8] =
            [b"the ", b"there ", b"then ", b"other ", b"another ", b"theorem ", b"at ", b"a\n"];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..24 {
            let len = (next() % 12_000) as usize;
            let mut input = Vec::with_capacity(len + 16);
            while input.len() < len {
                match next() % 4 {
                    0 => input.extend_from_slice(words[(next() % 8) as usize]),
                    1 => input.extend(std::iter::repeat_n(b'x', (next() % 40) as usize)),
                    2 => input.push(b'a' + (next() % 3) as u8),
                    _ => input.extend_from_slice(&next().to_le_bytes()),
                }
            }
            input.truncate(len);
            for cfg in &configs {
                let matcher = Matcher::new(cfg.clone());
                let checked = match (cfg.dependency_elimination, cfg.chain_depth > 1) {
                    (true, _) => compress_checked_only::<true, true>(&matcher, &input),
                    (false, true) => compress_checked_only::<false, true>(&matcher, &input),
                    (false, false) => compress_checked_only::<false, false>(&matcher, &input),
                };
                assert_eq!(matcher.compress(&input), checked, "round {round}, {cfg:?}");
            }
        }
    }

    #[test]
    fn common_prefix_len_agrees_with_byte_loop() {
        // Exercise lengths around the 8-byte word boundary, including the
        // capped case and mismatches at every offset inside a word.
        let mut input = Vec::new();
        input.extend_from_slice(b"abcdefghijklmnopqrstuvwxyz0123456789");
        input.extend_from_slice(b"abcdefghijklmnopqrstuvwxyZ0123456789"); // differs at 25
        input.extend_from_slice(b"abcdefghijklmnopqrstuvwxyz0123456789");
        let n = input.len();
        for a in 0..36 {
            for b in (a + 1)..n.min(80) {
                for limit in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 36] {
                    if b + limit > n {
                        continue;
                    }
                    let mut expected = 0usize;
                    while expected < limit && input[a + expected] == input[b + expected] {
                        expected += 1;
                    }
                    assert_eq!(common_prefix_len(&input, a, b, limit), expected, "a={a} b={b} limit={limit}");
                }
            }
        }
    }

    #[test]
    fn skip_stride_crosses_incompressible_runs_without_losing_data() {
        // 512 KiB of xorshift noise: matches are rare, so the miss run grows
        // far past the first stride widening; the data must survive the
        // round trip and stay almost entirely literal.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut input = Vec::with_capacity(512 * 1024);
        while input.len() < 512 * 1024 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            input.extend_from_slice(&state.to_le_bytes());
        }
        let block = roundtrip_with(&input, MatcherConfig::default());
        assert!(
            block.literal_len() > input.len() * 9 / 10,
            "noise should stay literal: {} of {}",
            block.literal_len(),
            input.len()
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_window_is_rejected() {
        let _ = Matcher::new(MatcherConfig { window_size: 1000, ..MatcherConfig::default() });
    }
}
