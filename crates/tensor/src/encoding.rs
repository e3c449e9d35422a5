//! The wire format for sparse gradients.
//!
//! The accounted wire format (4-byte index + 4-byte value per element,
//! [`SparseGradient::wire_bytes`]) doubles the payload relative to the values
//! alone. The paper cites follow-up work on cheaper index encodings
//! (Huffman/entropy coding of the index stream); this module implements the
//! standard practical one, and it is the only payload anything materialises:
//!
//! * [`delta_varint_encode`] — sort indices, delta-encode, LEB128-varint the
//!   gaps (small gaps at high densities cost 1–2 bytes instead of 4), then the
//!   values in sorted index order;
//! * [`delta_varint_decode`] — the lossless inverse, which rejects malformed
//!   payloads.

use crate::sparse::SparseGradient;

/// A delta-varint encoded sparse gradient: the byte payload plus the shape it
/// decodes to.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedGradient {
    bytes: Vec<u8>,
    dense_len: usize,
    nnz: usize,
}

impl EncodedGradient {
    /// A received payload of a `dense_len`-element gradient, as it came off
    /// the wire. Nothing is checked or parsed here: [`nnz`](Self::nnz) reads
    /// 0 (unknown until decoded), and only [`delta_varint_decode`] validates
    /// the bytes.
    // lint: test-only the decoder's forged-payload property (tests/property_based.rs) builds payloads the encoder never writes
    pub fn from_wire(bytes: Vec<u8>, dense_len: usize) -> Self {
        Self {
            bytes,
            dense_len,
            nnz: 0,
        }
    }

    /// Total wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of encoded non-zero elements.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Length of the original dense vector.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// The raw payload.
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }
}

fn push_varint(out: &mut Vec<u8>, mut value: u32) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 `u32`. A 5th byte carries only the top 4 bits, so one
/// above `0x0f` (high bits that would be shifted out, or a 6th byte) is
/// rejected rather than decoded to a different value.
fn read_varint(bytes: &[u8], cursor: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*cursor)?;
        *cursor += 1;
        if shift == 28 && byte > 0x0f {
            return None;
        }
        value |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Encodes a sparse gradient with sorted delta-varint indices followed by the values
/// (re-ordered to match the sorted index order).
pub fn delta_varint_encode(sparse: &SparseGradient) -> EncodedGradient {
    let mut pairs: Vec<(u32, f32)> = sparse.iter().collect();
    pairs.sort_by_key(|&(i, _)| i);
    let mut bytes = Vec::with_capacity(sparse.nnz() * 5);
    push_varint(&mut bytes, sparse.nnz() as u32);
    let mut prev = 0u32;
    for &(i, _) in &pairs {
        let gap = i - prev;
        push_varint(&mut bytes, gap);
        prev = i;
    }
    for &(_, v) in &pairs {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    EncodedGradient {
        bytes,
        dense_len: sparse.dense_len(),
        nnz: sparse.nnz(),
    }
}

/// Decodes a [`delta_varint_encode`]d payload back into a sparse gradient.
///
/// Returns `None` if the payload is malformed.
pub fn delta_varint_decode(encoded: &EncodedGradient) -> Option<SparseGradient> {
    let bytes = &encoded.bytes;
    let mut cursor = 0usize;
    let nnz = read_varint(bytes, &mut cursor)? as usize;
    // Every element takes at least one gap byte and four value bytes, so a
    // count the rest of the payload cannot hold is rejected before anything
    // is reserved for it.
    if nnz > (bytes.len() - cursor) / 5 {
        return None;
    }
    let mut indices = Vec::with_capacity(nnz);
    let mut current = 0u32;
    for j in 0..nnz {
        let gap = read_varint(bytes, &mut cursor)?;
        current = if j == 0 {
            gap
        } else {
            current.checked_add(gap)?
        };
        indices.push(current);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let chunk = bytes.get(cursor..cursor + 4)?;
        values.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        cursor += 4;
    }
    if indices.iter().any(|&i| (i as usize) >= encoded.dense_len) {
        return None;
    }
    Some(SparseGradient::new(indices, values, encoded.dense_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(dense_len: usize, nnz: usize, seed: u64) -> SparseGradient {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < nnz {
            chosen.insert(rng.gen_range(0..dense_len as u32));
        }
        let pairs: Vec<(u32, f32)> = chosen
            .into_iter()
            .map(|i| (i, rng.gen_range(-1.0f32..1.0)))
            .collect();
        SparseGradient::from_pairs(pairs, dense_len)
    }

    /// Decodes a payload the encoder never wrote.
    fn decode_wire(bytes: Vec<u8>, dense_len: usize) -> Option<SparseGradient> {
        delta_varint_decode(&EncodedGradient::from_wire(bytes, dense_len))
    }

    #[test]
    fn delta_varint_roundtrip_is_lossless() {
        for &(d, k) in &[(1_000usize, 10usize), (100_000, 1_000), (50_000, 5_000)] {
            let sparse = random_sparse(d, k, 2);
            let encoded = delta_varint_encode(&sparse);
            assert_eq!(encoded.nnz(), k);
            assert_eq!(encoded.dense_len(), d);
            assert_eq!(encoded.payload().len(), encoded.wire_bytes());
            let decoded = delta_varint_decode(&encoded).expect("roundtrip");
            assert_eq!(decoded.dense_len(), sparse.dense_len());
            // Values at each index match (order inside the struct may differ).
            assert_eq!(decoded.to_dense().as_slice(), sparse.to_dense().as_slice());
        }
    }

    #[test]
    fn four_and_five_byte_gaps_roundtrip_bit_for_bit() {
        let indices = [0, (1 << 21) + 3, (1 << 28) + 7, u32::MAX - 1];
        let values = [-0.0f32, f32::MIN_POSITIVE, 1.5, -2.0];
        let sparse = SparseGradient::new(indices.to_vec(), values.to_vec(), u32::MAX as usize);
        let encoded = delta_varint_encode(&sparse);
        // Header 1 + gaps (1 + 4 + 4 + 5) + values 4 × 4.
        assert_eq!(encoded.wire_bytes(), 31);
        let decoded = delta_varint_decode(&encoded).expect("roundtrip");
        assert_eq!(decoded.dense_len(), u32::MAX as usize);
        assert_eq!(decoded.indices(), &indices);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(decoded.values()), bits(&values));
    }

    #[test]
    fn unsorted_input_encodes_like_sorted_input() {
        // `from_pairs` keeps the given order; the encoder must sort first.
        let unsorted =
            SparseGradient::from_pairs(vec![(90, 1.0f32), (5, -2.0), (40, 3.0), (6, 0.5)], 100);
        let sorted =
            SparseGradient::from_pairs(vec![(5, -2.0f32), (6, 0.5), (40, 3.0), (90, 1.0)], 100);
        assert_eq!(delta_varint_encode(&unsorted), delta_varint_encode(&sorted));
    }

    #[test]
    fn delta_varint_is_smaller_than_the_accounted_pairs_at_typical_ratios() {
        // At δ = 0.01 the average index gap is 100 < 2^14, so gaps fit in ≤ 2 bytes.
        let sparse = random_sparse(1_000_000, 10_000, 3);
        let accounted = sparse.wire_bytes();
        let varint = delta_varint_encode(&sparse).wire_bytes();
        assert!(
            (varint as f64) < 0.8 * accounted as f64,
            "varint {varint} should be well below the accounted {accounted}"
        );
    }

    #[test]
    fn empty_gradient_roundtrips() {
        let encoded = delta_varint_encode(&SparseGradient::empty(100));
        assert_eq!(encoded.payload(), &[0]);
        let decoded = delta_varint_decode(&encoded).expect("roundtrip");
        assert_eq!((decoded.nnz(), decoded.dense_len()), (0, 100));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let sparse = random_sparse(1_000, 10, 6);
        let mut encoded = delta_varint_encode(&sparse);
        // Truncated values, then truncated gaps.
        encoded.bytes.truncate(encoded.bytes.len() - 1);
        assert!(delta_varint_decode(&encoded).is_none());
        encoded.bytes.truncate(3);
        assert!(delta_varint_decode(&encoded).is_none());
        // A six-byte varint.
        let six = vec![1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0, 0];
        assert!(decode_wire(six, 10).is_none());
        // Gaps summing past u32::MAX.
        let mut overflow = vec![2, 0xff, 0xff, 0xff, 0xff, 0x0f, 1];
        overflow.extend([0; 8]);
        assert!(decode_wire(overflow, usize::MAX).is_none());
        // An index at dense_len.
        assert!(decode_wire(vec![1, 10, 0, 0, 0, 0], 10).is_none());
        assert!(decode_wire(vec![1, 9, 0, 0, 0, 0], 10).is_some());
    }

    #[test]
    fn decode_rejects_counts_the_payload_cannot_hold() {
        // A header claiming u32::MAX elements in a 6-byte payload: rejected
        // before the decoder reserves anything for them.
        assert!(decode_wire(vec![0xff, 0xff, 0xff, 0xff, 0x0f, 0x01], 10).is_none());
        // One element more than the bytes can carry, and exactly as many.
        assert!(decode_wire(vec![2, 9, 0, 0, 0, 0], 10).is_none());
        assert!(decode_wire(vec![1, 9, 0, 0, 0, 0], 10).is_some());
    }

    #[test]
    fn decode_rejects_a_fifth_varint_byte_above_four_bits() {
        // 0x0f is the largest canonical 5th byte (u32::MAX) …
        let decoded = decode_wire(
            vec![1, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0],
            usize::MAX,
        )
        .expect("canonical u32::MAX - 1 gap");
        assert_eq!(decoded.indices(), &[u32::MAX - 1]);
        // … and 0x1f would decode to the same index with bit 32 dropped.
        assert!(decode_wire(
            vec![1, 0xfe, 0xff, 0xff, 0xff, 0x1f, 0, 0, 0, 0],
            usize::MAX
        )
        .is_none());
        // The same holds for the element count in the header.
        assert!(decode_wire(vec![0x81, 0x80, 0x80, 0x80, 0x10, 9, 0, 0, 0, 0], 10).is_none());
    }
}
