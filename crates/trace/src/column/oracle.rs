//! The byte oracle of the column encoder: the four-way encoder the
//! codec used before its size-then-write pass. It writes every form in
//! full — plain and run-length, in the raw and the byte-swapped word
//! domain — and keeps the smallest, so it is slow but obviously right.
//! `column.rs`'s unit tests and `tests/properties.rs` compare the
//! encoder with it byte for byte.

use eqimpact_stats::codec::{write_varint, zigzag_encode};

/// Tag bit of the run-length form (the format's `TAG_RLE_BIT`).
pub(crate) const RLE: u8 = 1;

/// Tag bit of the byte-swapped word domain (the format's `TAG_SWAP_BIT`).
pub(crate) const SWAP: u8 = 2;

/// Appends the zigzag varint of the delta `current - previous` (wrapping).
fn push_delta(out: &mut Vec<u8>, previous: u64, current: u64) {
    write_varint(out, zigzag_encode(current.wrapping_sub(previous) as i64));
}

/// Encodes `values` as one block appended to `out`: a 1-byte tag
/// (`tag_bits` plus the run-length bit when that form is smaller)
/// followed by the delta stream.
fn encode_words(values: &[u64], tag_bits: u8, out: &mut Vec<u8>) {
    let start = out.len();
    out.push(tag_bits);
    let mut previous = 0u64;
    for &v in values {
        push_delta(out, previous, v);
        previous = v;
    }
    let plain_len = out.len() - start;

    // RLE alternative: runs of equal *deltas*, so both constant
    // stretches (delta 0) and affine ramps collapse.
    let mut rle = Vec::with_capacity(plain_len.min(64));
    rle.push(tag_bits | RLE);
    let mut previous = 0u64;
    let mut i = 0;
    while i < values.len() {
        let delta = values[i].wrapping_sub(previous) as i64;
        let mut run = 1usize;
        while i + run < values.len()
            && values[i + run].wrapping_sub(values[i + run - 1]) as i64 == delta
        {
            run += 1;
        }
        write_varint(&mut rle, run as u64);
        write_varint(&mut rle, zigzag_encode(delta));
        previous = values[i + run - 1];
        i += run;
    }

    if rle.len() < plain_len {
        out.truncate(start);
        out.extend_from_slice(&rle);
    }
}

/// The oracle of `encode_column`: the raw word domain only.
pub(crate) fn encode_column(values: &[u64], out: &mut Vec<u8>) {
    encode_words(values, 0, out);
}

/// The oracle of a float column's block: both word domains, the
/// swapped one kept only when strictly smaller.
pub(crate) fn encode_f64_column(values: &[f64], out: &mut Vec<u8>) {
    let mut words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let start = out.len();
    encode_words(&words, 0, out);
    let raw_len = out.len() - start;

    for w in words.iter_mut() {
        *w = w.swap_bytes();
    }
    let mut swapped = Vec::with_capacity(raw_len);
    encode_words(&words, SWAP, &mut swapped);
    if swapped.len() < raw_len {
        out.truncate(start);
        out.extend_from_slice(&swapped);
    }
}
