//! The per-column codec: delta + zigzag-varint with optional run-length
//! encoding.
//!
//! A column is a sequence of `u64` words (`f64` bit patterns for the
//! telemetry channels, raw codes for group metadata). Encoding is
//! delta-first — each word is stored as its wrapping difference from the
//! previous one, zigzag-mapped so small signed deltas become short
//! varints — and the encoder then picks, per column, between the plain
//! delta stream and a run-length form `(run length, delta)` that
//! collapses constant stretches (identical consecutive values are runs
//! of delta 0). The block's 1-byte tag records every choice, so decoding
//! needs no configuration.
//!
//! Float columns get one extra per-column choice of *word domain*:
//!
//! * **raw** — the plain `f64` bit pattern. Values of similar magnitude
//!   share sign/exponent/top-mantissa bits, so their pattern deltas
//!   drop the shared high bits and varint-encode in ~8 bytes instead of
//!   10 — the better domain for full-mantissa data (sampled incomes,
//!   running averages).
//! * **swapped** — the byte-reversed pattern. "Simple" constants (0.0,
//!   1.0, 50.0, …) have trailing-zero mantissa bytes, which
//!   byte-reversal turns into leading zeros that varints drop entirely —
//!   the better domain for indicator/step-function columns.
//!
//! The encoder never writes a form it does not keep. One read-only pass
//! over the column sums the byte length of all four (domain ×
//! run-length) forms — a varint's length follows from its value's bit
//! length, and a run-length stream's from its runs — and chooses the
//! shortest: the run-length form only when strictly shorter than the
//! plain one, and the swapped domain only when its choice is strictly
//! shorter than the raw domain's. Then that one form is written, once,
//! straight into the caller's buffer. Every choice is a bijection, so
//! encoding is lossless down to NaN payloads and signed zeros.

use eqimpact_stats::codec::{read_varint, write_varint, zigzag_decode, zigzag_encode};

#[cfg(test)]
mod oracle;

/// Tag bit selecting the run-length form (`(run, delta)` pairs).
pub(crate) const TAG_RLE_BIT: u8 = 1;

/// Tag bit selecting the byte-swapped word domain (float columns only).
pub(crate) const TAG_SWAP_BIT: u8 = 2;

/// All tag bits a valid block may carry.
pub(crate) const TAG_MASK: u8 = TAG_RLE_BIT | TAG_SWAP_BIT;

/// The byte length of `v` as a varint: one byte per started 7 bits, and
/// one byte for 0. For a bit length `b` in 1..=64, `(9b + 64) / 64` is
/// `⌈b / 7⌉`, and a multiply and a shift cost less than the division.
#[inline]
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros();
    ((9 * bits + 64) >> 6) as usize
}

/// The zigzag-mapped wrapping delta `current - previous`: the value a
/// block stores for `current`.
#[inline]
fn zigzag_delta(previous: u64, current: u64) -> u64 {
    zigzag_encode(current.wrapping_sub(previous) as i64)
}

/// The body lengths of one word domain's two forms, summed word by word
/// without writing a byte: the plain delta stream, and the run-length
/// stream of `(run, delta)` pairs over maximal runs of equal deltas.
struct FormSizes {
    previous: u64,
    /// The zigzag delta of the current run, and the run's length so far.
    run_delta: u64,
    run: u64,
    plain: usize,
    rle: usize,
}

impl FormSizes {
    /// The sizes after a column's first word, whose delta is taken
    /// from 0.
    #[inline]
    fn first(word: u64) -> Self {
        let delta = zigzag_delta(0, word);
        let len = varint_len(delta);
        FormSizes {
            previous: word,
            run_delta: delta,
            run: 1,
            plain: len,
            rle: 1 + len,
        }
    }

    #[inline]
    fn push(&mut self, word: u64) {
        let delta = zigzag_delta(self.previous, word);
        self.previous = word;
        let len = varint_len(delta);
        self.plain += len;
        if delta == self.run_delta {
            // The run's length varint gains a byte at 2^7, 2^14, ...
            self.run += 1;
            self.rle += varint_len(self.run) - varint_len(self.run - 1);
        } else {
            // A new run: a one-byte run length, then its delta.
            self.rle += 1 + len;
            self.run_delta = delta;
            self.run = 1;
        }
    }

    /// The domain's form — run-length only when strictly shorter — as
    /// its tag bit and its block length, tag byte included.
    fn choice(&self) -> (u8, usize) {
        if self.rle < self.plain {
            (TAG_RLE_BIT, 1 + self.rle)
        } else {
            (0, 1 + self.plain)
        }
    }
}

/// Appends one block of `len` bytes to `out`: `tag`, then the plain delta
/// stream of `words` or, when `tag` has the run-length bit, its
/// `(run, delta)` pairs.
fn write_block(mut words: impl Iterator<Item = u64>, tag: u8, len: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(len);
    out.push(tag);
    if tag & TAG_RLE_BIT == 0 {
        let mut previous = 0;
        for word in words {
            write_varint(out, zigzag_delta(previous, word));
            previous = word;
        }
    } else if let Some(first) = words.next() {
        let (mut previous, mut delta, mut run) = (first, zigzag_delta(0, first), 1u64);
        for word in words {
            let next = zigzag_delta(previous, word);
            previous = word;
            if next == delta {
                run += 1;
            } else {
                write_varint(out, run);
                write_varint(out, delta);
                delta = next;
                run = 1;
            }
        }
        write_varint(out, run);
        write_varint(out, delta);
    }
    debug_assert_eq!(
        out.len() - start,
        len,
        "a block's length differs from its size"
    );
}

/// Decodes one block of exactly `len` words starting at `*pos` in
/// `bytes`, advancing `*pos` past it and handing each word, in order and
/// in the block's *encoded domain*, straight to `put`. Returns `None` on
/// an unknown tag, truncated varints, or run lengths not summing to
/// `len` — never panics, and never hands over more than `len` words.
fn decode_words(bytes: &[u8], pos: &mut usize, len: usize, mut put: impl FnMut(u64)) -> Option<()> {
    let &tag = bytes.get(*pos)?;
    if tag & !TAG_MASK != 0 {
        return None;
    }
    *pos += 1;
    let mut previous = 0u64;
    if tag & TAG_RLE_BIT == 0 {
        for _ in 0..len {
            let delta = zigzag_decode(read_varint(bytes, pos)?);
            previous = previous.wrapping_add(delta as u64);
            put(previous);
        }
    } else {
        let mut left = len;
        while left > 0 {
            let run = read_varint(bytes, pos)?;
            let delta = zigzag_decode(read_varint(bytes, pos)?);
            if run == 0 || run > left as u64 {
                return None;
            }
            left -= run as usize;
            for _ in 0..run {
                previous = previous.wrapping_add(delta as u64);
                put(previous);
            }
        }
    }
    Some(())
}

/// Encodes a `u64` column (raw word domain) as one block appended to
/// `out` — the form group-code metadata uses. The column is sized in
/// one pass and written in the one form it keeps.
pub fn encode_column(values: &[u64], out: &mut Vec<u8>) {
    let (tag, len) = match values.split_first() {
        None => (0, 1),
        Some((&first, rest)) => {
            let mut raw = FormSizes::first(first);
            for &word in rest {
                raw.push(word);
            }
            raw.choice()
        }
    };
    write_block(values.iter().copied(), tag, len, out);
}

/// Decodes a raw-domain `u64` column of `len` values (inverse of
/// [`encode_column`]). Returns `None` on malformed input or a
/// swapped-domain tag (raw columns never carry one).
pub fn decode_column(bytes: &[u8], pos: &mut usize, len: usize, out: &mut Vec<u64>) -> Option<()> {
    out.clear();
    if bytes.get(*pos)? & TAG_SWAP_BIT != 0 {
        return None;
    }
    // Reserve no more than the input could plausibly describe up front
    // (a plain stream needs >= 1 byte per value); a hostile `len` with a
    // short RLE stream then grows geometrically instead of asking for
    // one absurd allocation.
    out.reserve(len.min(bytes.len() - *pos));
    decode_words(bytes, pos, len, |word| out.push(word))
}

/// A float column's block, sized but not yet written: see
/// [`plan_f64_column`].
#[derive(Clone, Copy, Debug)]
pub struct ColumnPlan<'a> {
    values: &'a [f64],
    tag: u8,
    len: usize,
}

/// Sizes all four forms of a float column (see the module docs) in one
/// read-only pass, reading each value's bits and their byte swap as it
/// goes, and chooses one. Nothing is written until
/// [`ColumnPlan::write`], so a caller can write the block's length
/// before the block.
pub fn plan_f64_column(values: &[f64]) -> ColumnPlan<'_> {
    let (tag, len) = match values.split_first() {
        None => (0, 1),
        Some((first, rest)) => {
            let bits = first.to_bits();
            let mut raw = FormSizes::first(bits);
            let mut swapped = FormSizes::first(bits.swap_bytes());
            for value in rest {
                let bits = value.to_bits();
                raw.push(bits);
                swapped.push(bits.swap_bytes());
            }
            let (raw_rle, raw_len) = raw.choice();
            let (swap_rle, swap_len) = swapped.choice();
            if swap_len < raw_len {
                (TAG_SWAP_BIT | swap_rle, swap_len)
            } else {
                (raw_rle, raw_len)
            }
        }
    };
    ColumnPlan { values, tag, len }
}

impl ColumnPlan<'_> {
    /// The block's tag byte: the form chosen.
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// The block's length in bytes, tag byte included.
    pub fn block_len(&self) -> usize {
        self.len
    }

    /// Appends the block to `out`: exactly [`Self::block_len`] bytes,
    /// the chosen form written once.
    pub fn write(&self, out: &mut Vec<u8>) {
        let words = self.values.iter().map(|v| v.to_bits());
        if self.tag & TAG_SWAP_BIT == 0 {
            write_block(words, self.tag, self.len, out);
        } else {
            write_block(words.map(u64::swap_bytes), self.tag, self.len, out);
        }
    }
}

/// Decodes a float column of `len` values, handing each value in order
/// straight to `put`. Inverse of [`ColumnPlan::write`]; never panics on
/// malformed input, and on `None` `put` has seen at most `len` values.
pub fn decode_f64_column(
    bytes: &[u8],
    pos: &mut usize,
    len: usize,
    mut put: impl FnMut(f64),
) -> Option<()> {
    if bytes.get(*pos)? & TAG_SWAP_BIT == 0 {
        decode_words(bytes, pos, len, |word| put(f64::from_bits(word)))
    } else {
        decode_words(bytes, pos, len, |word| {
            put(f64::from_bits(word.swap_bytes()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a `u64` column, checks it against the oracle byte for
    /// byte, decodes it back and returns the block.
    fn roundtrip(values: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_column(values, &mut bytes);
        let mut expected = Vec::new();
        oracle::encode_column(values, &mut expected);
        assert_eq!(bytes, expected, "block differs from the oracle's");
        let mut pos = 0;
        let mut back = Vec::new();
        decode_column(&bytes, &mut pos, values.len(), &mut back).expect("decodes");
        assert_eq!(pos, bytes.len(), "block fully consumed");
        assert_eq!(back, values);
        bytes
    }

    /// Encodes a float column, checks it against the oracle byte for
    /// byte and against its own plan, decodes it back bit for bit and
    /// returns the block.
    fn roundtrip_f64(values: &[f64]) -> Vec<u8> {
        let plan = plan_f64_column(values);
        let mut bytes = vec![0xEE]; // the block must append, not overwrite
        plan.write(&mut bytes);
        assert_eq!(bytes.remove(0), 0xEE);
        let mut expected = Vec::new();
        oracle::encode_f64_column(values, &mut expected);
        assert_eq!(bytes, expected, "block differs from the oracle's");
        assert_eq!((plan.tag(), plan.block_len()), (bytes[0], bytes.len()));
        let mut pos = 0;
        let mut back = Vec::new();
        decode_f64_column(&bytes, &mut pos, values.len(), |v| back.push(v)).expect("decodes");
        assert_eq!(pos, bytes.len(), "block fully consumed");
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, back_bits);
        bytes
    }

    #[test]
    fn roundtrips_plain_and_rle_shapes() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip(&[0, 0, 0, 0]);
        roundtrip(&[1, 2, 3, 4, 5, 6]); // affine ramp -> one RLE run
        roundtrip(&[u64::MAX, 0, u64::MAX, 1, 7]);
        let mixed: Vec<u64> = (0..200)
            .map(|i| if i % 7 == 0 { 0 } else { i * 0x9E37_79B9 })
            .collect();
        roundtrip(&mixed);
    }

    #[test]
    fn constant_columns_collapse() {
        let constant = vec![0x3FF0_0000_0000_0000u64; 10_000];
        let bytes = roundtrip(&constant);
        // Tag + one (run, delta) pair: a handful of bytes for 10k values.
        assert!(
            bytes.len() < 16,
            "constant column took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn float_columns_roundtrip_lossless() {
        roundtrip_f64(&[]);
        roundtrip_f64(&[
            0.0,
            -0.0,
            1.0,
            -1.0,
            50.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // NaN payload
        ]);
    }

    #[test]
    fn indicator_columns_pick_the_swapped_domain() {
        // 0/1 step functions: the swapped domain turns every transition
        // into a ~3-byte varint instead of 10.
        let values: Vec<f64> = (0..1000)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let bytes = roundtrip_f64(&values);
        assert!(
            bytes.len() < 4 * values.len(),
            "indicator column took {} bytes for {} values",
            bytes.len(),
            values.len()
        );
    }

    #[test]
    fn similar_magnitude_columns_beat_the_ten_byte_worst_case() {
        // Full-mantissa values in one magnitude range: raw-pattern deltas
        // drop the shared sign/exponent bits.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let values: Vec<f64> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                20.0 + 480.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        let bytes = roundtrip_f64(&values);
        assert!(
            bytes.len() <= 9 * values.len(),
            "similar-magnitude column took {} bytes for {} values",
            bytes.len(),
            values.len()
        );
    }

    /// `n` full-entropy xorshift64 words from `seed`.
    fn noise(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    fn floats(words: &[u64]) -> Vec<f64> {
        words.iter().map(|&w| f64::from_bits(w)).collect()
    }

    /// The body sizes of both forms of `words` in one domain.
    fn sizes(words: &[u64]) -> FormSizes {
        let mut sizes = FormSizes::first(words[0]);
        for &w in &words[1..] {
            sizes.push(w);
        }
        sizes
    }

    #[test]
    fn varint_len_is_the_written_length() {
        for shift in 0..64 {
            for v in [
                1u64 << shift,
                (1u64 << shift) - 1,
                (1u64 << shift) + 1,
                u64::MAX >> shift,
            ] {
                let mut bytes = Vec::new();
                write_varint(&mut bytes, v);
                assert_eq!(varint_len(v), bytes.len(), "{v:#x}");
            }
        }
    }

    #[test]
    fn empty_and_one_value_columns_match_the_oracle() {
        assert_eq!(roundtrip(&[]), [0]);
        assert_eq!(roundtrip_f64(&[]), [0]);
        for word in [0, 1, 63, 64, 127, 128, 1 << 63, u64::MAX] {
            roundtrip(&[word]);
            roundtrip_f64(&[f64::from_bits(word)]);
        }
    }

    #[test]
    fn ties_go_to_plain_and_to_the_raw_domain() {
        // Deltas 1, 0, 0, 0: plain takes 4 body bytes, and so does RLE's
        // (1, 1) (3, 0).
        let words = [1u64, 1, 1, 1];
        let tie = sizes(&words);
        assert_eq!(tie.plain, tie.rle, "a plain/RLE tie");
        assert_eq!(roundtrip(&words)[0], 0, "the tie goes to plain");

        // A byte palindrome is its own swap, so the domains tie too; and
        // four of it tie plain with RLE inside each domain.
        let palindrome = 0x0101_0101_0101_0101u64;
        for n in [1, 4, 300] {
            let words = vec![palindrome; n];
            let swapped: Vec<u64> = words.iter().map(|w| w.swap_bytes()).collect();
            assert_eq!(sizes(&words).choice(), sizes(&swapped).choice());
            let tag = roundtrip_f64(&floats(&words))[0];
            assert_eq!(tag & TAG_SWAP_BIT, 0, "the domain tie goes to raw");
        }
        let four = sizes(&[palindrome; 4]);
        assert_eq!(four.plain, four.rle);
        assert_eq!(roundtrip_f64(&floats(&[palindrome; 4]))[0], 0);
    }

    #[test]
    fn every_tag_is_chosen_as_the_oracle_chooses_it() {
        let ramp: Vec<u64> = (0..500)
            .map(|i| 0x4034_0000_0000_0000 + i * 0x1_0000)
            .collect();
        let alternating: Vec<f64> = (0..500).map(|i| (i % 2) as f64).collect();
        for (tag, values) in [
            (
                0,
                floats(
                    &noise(7, 500)
                        .iter()
                        .map(|w| w >> 12 | 0x4030 << 48)
                        .collect::<Vec<_>>(),
                ),
            ),
            (TAG_RLE_BIT, floats(&ramp)),
            (TAG_SWAP_BIT, alternating),
            (TAG_SWAP_BIT | TAG_RLE_BIT, vec![1.0; 500]),
        ] {
            assert_eq!(roundtrip_f64(&values)[0], tag, "tag {tag}");
        }
        assert_eq!(roundtrip(&ramp)[0], TAG_RLE_BIT);
        assert_eq!(roundtrip(&noise(7, 500))[0], 0);
    }

    #[test]
    fn special_words_match_the_oracle() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // quiet NaN payload
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::from_bits(u64::MAX),
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        roundtrip_f64(&specials);
        let repeated: Vec<f64> = specials.iter().flat_map(|&v| [v; 3]).collect();
        roundtrip_f64(&repeated);
        roundtrip(&[u64::MAX, 0, u64::MAX, 0, 0, u64::MAX, u64::MAX]);
        roundtrip(&[0, u64::MAX, 1 << 63, (1 << 63) - 1, 1]);
    }

    #[test]
    fn long_runs_ramps_steps_and_noise_match_the_oracle() {
        // Run lengths across the run varint's byte boundaries.
        for n in [2, 3, 127, 128, 129, 16_383, 16_384, 16_385] {
            roundtrip(&vec![5; n]);
            roundtrip_f64(&vec![0.0; n]);
            roundtrip_f64(&vec![std::f64::consts::PI; n]);
            roundtrip(&(0..n as u64).map(|i| 3 * i + 9).collect::<Vec<_>>());
        }
        let steps: Vec<f64> = (0..2_000)
            .map(|i| if (i / 37) % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        roundtrip_f64(&steps);
        roundtrip_f64(&floats(&noise(11, 2_000)));
        roundtrip(&noise(11, 2_000));
        // A run that ends on the last value, after noise.
        let mut tail = noise(13, 50);
        tail.extend([42; 200]);
        roundtrip(&tail);
        roundtrip_f64(&floats(&tail));
    }

    #[test]
    fn decoder_rejects_malformed_blocks() {
        let mut out = Vec::new();
        // Unknown tag.
        let mut pos = 0;
        assert!(decode_column(&[9, 0], &mut pos, 1, &mut out).is_none());
        // Swapped-domain tag on a raw u64 column.
        pos = 0;
        assert!(decode_column(&[TAG_SWAP_BIT, 0], &mut pos, 1, &mut out).is_none());
        // Truncated varint.
        pos = 0;
        assert!(decode_column(&[0, 0x80], &mut pos, 1, &mut out).is_none());
        // RLE run overshooting the expected length.
        let mut bad = vec![TAG_RLE_BIT];
        eqimpact_stats::codec::write_varint(&mut bad, 5); // run of 5
        eqimpact_stats::codec::write_varint(&mut bad, 0);
        pos = 0;
        assert!(decode_column(&bad, &mut pos, 3, &mut out).is_none());
        // Zero-length run.
        let mut zero = vec![TAG_RLE_BIT];
        eqimpact_stats::codec::write_varint(&mut zero, 0);
        eqimpact_stats::codec::write_varint(&mut zero, 0);
        pos = 0;
        assert!(decode_column(&zero, &mut pos, 3, &mut out).is_none());
        // Empty input.
        pos = 0;
        assert!(decode_column(&[], &mut pos, 1, &mut out).is_none());
    }
}
