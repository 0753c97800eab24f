//! Wire codec for shard buckets.
//!
//! The router's accounting charges `payload_units * msg_bytes` per
//! (source, destination) pair — a `size_of`-style estimate that ships a
//! full `(VertexId u64, query, payload u64)` tuple for every unit, as
//! the paper's systems do. This module defines the **compact
//! struct-of-arrays encoding** a shard bucket takes inside a checksummed
//! frame. It is not on the routing path and never feeds the cost model;
//! the property tests and the benchmark's wire probe exercise it:
//!
//! ```text
//! header     varint(n_tuples)  varint(n_runs)
//! directory  per distinct destination local index, ascending:
//!            varint(delta_li)  varint(run_len)        (delta-sorted u32)
//! mults      per tuple, in li-sorted order: varint(mult)
//! queries    run-length groups over li-sorted order:
//!            varint(run_len)  flag_byte  [varint(query) if flagged]
//! payloads   per tuple, in li-sorted order: PayloadCodec bytes
//! ```
//!
//! Tuples are transmitted in **destination-local-index order, stable by
//! send order** — exactly the grouped order the merge stage scatters
//! into, so destinations carry no per-tuple address at all: the
//! delta-varint directory reconstructs every local index. Query ids ride
//! a run-length stream ([`Message::wire_query`]) and payloads choose
//! their own representation through [`PayloadCodec`].
//!
//! # Integrity frames
//!
//! On the wire a bucket travels inside a checksummed frame
//! ([`FRAME_HEADER_BYTES`]: little-endian body length + 64-bit FNV-1a of
//! the body). [`decode_frame`] verifies both before the fully-validated
//! [`try_decode_bucket`] parse, so a corrupted bucket is *detected* as a
//! typed [`WireError`] — never a panic or a silently wrong decode. In a
//! run, the engine's recovery stage only *models* corruption (a flipped
//! bucket is counted and priced as retransmitted, never decoded); the
//! tests and the benchmark's wire probe are what exercise this codec.
//!
//! [`Message::wire_query`]: crate::message::Message::wire_query

use crate::message::{Envelope, Message};
use mtvc_graph::varint::{read_varint, write_varint};
use mtvc_graph::VertexId;

/// Why an encoded bucket or frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the encoding did.
    Truncated,
    /// The frame header's body length disagrees with the bytes present.
    LengthMismatch {
        /// Body length the header claims.
        expected: u64,
        /// Body bytes actually present after the header.
        actual: u64,
    },
    /// The frame checksum does not match the body — the payload was
    /// corrupted in flight.
    ChecksumMismatch {
        /// Checksum the header carries.
        expected: u64,
        /// FNV-1a of the body as received.
        actual: u64,
    },
    /// The bytes parse but violate the bucket's structural invariants
    /// (impossible counts, zero multiplicities, unknown flags, trailing
    /// garbage).
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "encoded bucket is truncated"),
            WireError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "frame length mismatch: header says {expected}, got {actual}"
                )
            }
            WireError::ChecksumMismatch { expected, actual } => {
                write!(f, "frame checksum mismatch: header says {expected:#018x}, body hashes to {actual:#018x}")
            }
            WireError::Malformed => write!(f, "encoded bucket violates structural invariants"),
        }
    }
}

impl std::error::Error for WireError {}

/// 64-bit FNV-1a over `bytes` — the frame checksum. Not cryptographic;
/// it detects the seeded bit-flip corruption the fault model injects
/// (any single flipped bit changes the hash) at one multiply per byte.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Size of the integrity frame header: an 8-byte little-endian body
/// length followed by an 8-byte little-endian FNV-1a checksum of the
/// body. The header models the per-bucket transport envelope, whose
/// cost the cost model's per-message overhead already covers.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Wrap an encoded bucket body in the checksummed integrity frame.
fn frame_bucket(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Verify a frame's header and checksum, returning the body on
/// success. This is where in-flight corruption is *detected*: any
/// bit-flip in header or body yields a typed error, never a silently
/// wrong decode.
fn check_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let expected_len = u64::from_le_bytes(frame[0..8].try_into().unwrap());
    let body = &frame[FRAME_HEADER_BYTES..];
    if expected_len != body.len() as u64 {
        return Err(WireError::LengthMismatch {
            expected: expected_len,
            actual: body.len() as u64,
        });
    }
    let expected_sum = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let actual_sum = fnv1a(body);
    if expected_sum != actual_sum {
        return Err(WireError::ChecksumMismatch {
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    Ok(body)
}

/// Encode `envs` as one checksummed frame: [`encode_bucket`] body
/// behind a [`FRAME_HEADER_BYTES`] integrity header.
pub fn encode_frame<M: PayloadCodec>(
    envs: &[Envelope<M>],
    li_of: impl Fn(VertexId) -> u32,
) -> Vec<u8> {
    frame_bucket(&encode_bucket(envs, li_of))
}

/// Decode one checksummed frame: verify length and checksum, then run
/// the fully-validated bucket decode. An `Err` names what was wrong;
/// nothing here panics on malformed input.
pub fn decode_frame<M: PayloadCodec>(
    frame: &[u8],
    vertex_of: impl Fn(u32) -> VertexId,
) -> Result<Vec<Envelope<M>>, WireError> {
    try_decode_bucket(check_frame(frame)?, vertex_of)
}

/// Decode one compact bucket with every structural invariant checked:
/// counts bounded by the input size, directory indices monotone and in
/// `u32` range, run lengths covering exactly `n` tuples, multiplicities
/// nonzero, query flags valid, and the input consumed exactly. Returns
/// [`WireError`] instead of panicking on any malformed input; payload
/// codecs built on [`read_varint`] stay total because it never reads
/// out of bounds.
pub fn try_decode_bucket<M: PayloadCodec>(
    buf: &[u8],
    vertex_of: impl Fn(u32) -> VertexId,
) -> Result<Vec<Envelope<M>>, WireError> {
    if buf.is_empty() {
        return Ok(Vec::new());
    }
    let mut pos = 0usize;
    let n = read_varint(buf, &mut pos) as usize;
    if pos > buf.len() {
        return Err(WireError::Truncated);
    }
    // Every tuple needs at least one mult byte; a count beyond the
    // input size is malformed (and guards allocation against hostile
    // lengths). An empty bucket encodes to an empty buffer, so n == 0
    // with bytes present is malformed too. Checked before the run
    // count is read so a hostile count is rejected as malformed even
    // when it exhausts the buffer.
    if n == 0 || n > buf.len() {
        return Err(WireError::Malformed);
    }
    let runs = read_varint(buf, &mut pos) as usize;
    if pos > buf.len() {
        return Err(WireError::Truncated);
    }
    if runs == 0 || runs > n {
        return Err(WireError::Malformed);
    }

    let mut dests: Vec<VertexId> = Vec::with_capacity(n);
    let mut li = 0u32;
    for r in 0..runs {
        let delta = read_varint(buf, &mut pos);
        let len = read_varint(buf, &mut pos) as usize;
        if pos > buf.len() {
            return Err(WireError::Truncated);
        }
        let next = if r == 0 {
            u32::try_from(delta).map_err(|_| WireError::Malformed)?
        } else {
            u64::from(li)
                .checked_add(delta)
                .and_then(|x| u32::try_from(x).ok())
                .ok_or(WireError::Malformed)?
        };
        li = next;
        if len == 0 || dests.len() + len > n {
            return Err(WireError::Malformed);
        }
        dests.extend(std::iter::repeat_n(vertex_of(li), len));
    }
    if dests.len() != n {
        return Err(WireError::Malformed);
    }

    let mut mults: Vec<u64> = Vec::with_capacity(n);
    for _ in 0..n {
        let m = read_varint(buf, &mut pos);
        if pos > buf.len() {
            return Err(WireError::Truncated);
        }
        if m == 0 {
            return Err(WireError::Malformed);
        }
        mults.push(m);
    }

    let mut queries: Vec<Option<u64>> = Vec::with_capacity(n);
    while queries.len() < n {
        let len = read_varint(buf, &mut pos) as usize;
        let flag = *buf.get(pos).ok_or(WireError::Truncated)?;
        pos += 1;
        let key = match flag {
            1 => {
                let q = read_varint(buf, &mut pos);
                if pos > buf.len() {
                    return Err(WireError::Truncated);
                }
                Some(q)
            }
            0 => None,
            _ => return Err(WireError::Malformed),
        };
        if len == 0 || queries.len() + len > n {
            return Err(WireError::Malformed);
        }
        queries.extend(std::iter::repeat_n(key, len));
    }

    let mut envs: Vec<Envelope<M>> = Vec::with_capacity(n);
    for i in 0..n {
        let msg = M::decode_payload(queries[i], buf, &mut pos);
        if pos > buf.len() {
            return Err(WireError::Truncated);
        }
        let msg = msg.ok_or(WireError::Malformed)?;
        envs.push(Envelope::new(dests[i], msg, mults[i]));
    }
    if pos != buf.len() {
        return Err(WireError::Malformed);
    }
    Ok(envs)
}

/// A message payload that knows its own compact byte representation.
/// The encoded bytes must **exclude** the destination (carried by the
/// bucket directory) and the query id (carried by the run-length
/// stream).
pub trait PayloadCodec: Message {
    /// Append this payload's bytes to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decode one payload. `wire_query` is the value recovered from the
    /// bucket's query stream for this tuple (what
    /// [`Message::wire_query`] returned at encode time). `None` when
    /// the query is one this payload can never carry, which the bucket
    /// decode reports as [`WireError::Malformed`].
    fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Stable order of bucket positions by destination local index — the
/// canonical transmission (and delivery) order.
fn sorted_order<M>(envs: &[Envelope<M>], li_of: &impl Fn(VertexId) -> u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..envs.len() as u32).collect();
    order.sort_by_key(|&i| li_of(envs[i as usize].dest));
    order
}

/// Encode `envs` as one compact bucket. An empty bucket encodes to an
/// empty byte vector.
pub fn encode_bucket<M: PayloadCodec>(
    envs: &[Envelope<M>],
    li_of: impl Fn(VertexId) -> u32,
) -> Vec<u8> {
    let mut out = Vec::new();
    if envs.is_empty() {
        return out;
    }
    let order = sorted_order(envs, &li_of);
    write_varint(&mut out, envs.len() as u64);

    // Directory.
    let mut dir: Vec<(u32, u64)> = Vec::new();
    for &i in &order {
        let li = li_of(envs[i as usize].dest);
        match dir.last_mut() {
            Some((last, len)) if *last == li => *len += 1,
            _ => dir.push((li, 1)),
        }
    }
    write_varint(&mut out, dir.len() as u64);
    let mut prev = 0u32;
    for &(li, len) in &dir {
        write_varint(&mut out, (li - prev) as u64);
        write_varint(&mut out, len);
        prev = li;
    }

    // Mult stream.
    for &i in &order {
        write_varint(&mut out, envs[i as usize].mult);
    }

    // Query stream.
    let mut i = 0usize;
    while i < order.len() {
        let key = envs[order[i] as usize].msg.wire_query();
        let mut len = 1u64;
        while i + (len as usize) < order.len()
            && envs[order[i + len as usize] as usize].msg.wire_query() == key
        {
            len += 1;
        }
        write_varint(&mut out, len);
        match key {
            Some(q) => {
                out.push(1);
                write_varint(&mut out, q);
            }
            None => out.push(0),
        }
        i += len as usize;
    }

    // Payload stream.
    for &i in &order {
        envs[i as usize].msg.encode_payload(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_graph::varint::varint_len;

    /// Minimal codec payload: an optional grouping key and a value.
    #[derive(Debug, Clone, PartialEq)]
    struct P {
        q: Option<u64>,
        val: u64,
    }

    impl Message for P {
        fn combine_key(&self) -> Option<u64> {
            self.q
        }
        fn merge(&mut self, o: &Self) {
            self.val += o.val;
        }
        fn wire_query(&self) -> Option<u64> {
            self.q
        }
    }

    impl PayloadCodec for P {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            write_varint(out, self.val);
        }
        fn decode_payload(wire_query: Option<u64>, buf: &[u8], pos: &mut usize) -> Option<Self> {
            Some(P {
                q: wire_query,
                val: read_varint(buf, pos),
            })
        }
    }

    fn env(dest: VertexId, q: Option<u64>, val: u64, mult: u64) -> Envelope<P> {
        Envelope::new(dest, P { q, val }, mult)
    }

    #[test]
    fn varint_roundtrip_and_len() {
        for x in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x);
            assert_eq!(buf.len() as u64, varint_len(x), "x={x}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_bucket_is_empty() {
        let envs: Vec<Envelope<P>> = Vec::new();
        assert!(encode_bucket(&envs, |v| v).is_empty());
        assert!(try_decode_bucket::<P>(&[], |li| li as VertexId)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn roundtrip_restores_sorted_bucket() {
        let envs = vec![
            env(7, Some(1), 10, 1),
            env(2, Some(1), 11, 3),
            env(7, None, 12, 1),
            env(2, Some(9), 500, 1),
            env(2, Some(9), 2, 2),
        ];
        let buf = encode_bucket(&envs, |v| v);
        let back = try_decode_bucket::<P>(&buf, |li| li as VertexId).unwrap();
        let mut want = envs.clone();
        want.sort_by_key(|e| e.dest); // stable: canonical delivery order
        assert_eq!(back, want);
    }

    /// Every tuple its own destination: the directory degenerates to
    /// one run per tuple and the query stream to one group per tuple —
    /// the per-run overhead paths must still decode exactly.
    #[test]
    fn single_entry_runs_roundtrip() {
        let envs: Vec<Envelope<P>> = (0..9)
            .map(|i| env(i * 3, Some(i as u64), 100 + i as u64, 1 + i as u64))
            .collect();
        let buf = encode_bucket(&envs, |v| v);
        let back = try_decode_bucket::<P>(&buf, |li| li as VertexId).unwrap();
        assert_eq!(back, envs); // already li-sorted: order preserved
    }

    /// Local indices at the u32 extremes: the first directory entry's
    /// delta is the absolute index, so a lone `u32::MAX` destination
    /// exercises the widest delta varint; a 0→MAX pair exercises the
    /// widest inter-run delta.
    #[test]
    fn max_delta_local_indices_roundtrip() {
        let far = u32::MAX as VertexId;
        for envs in [
            vec![env(far, Some(2), 5, 1)],
            vec![env(0, None, 1, 1), env(far, Some(7), 9, 4)],
        ] {
            let buf = encode_bucket(&envs, |v| v);
            let back = try_decode_bucket::<P>(&buf, |li| li as VertexId).unwrap();
            assert_eq!(back, envs);
        }
    }

    /// A payload that encodes to zero bytes (it rides entirely on the
    /// query stream): the payload stream is empty and decode must
    /// reconstruct every message from `wire_query` alone.
    #[test]
    fn zero_length_payload_stream_roundtrip() {
        #[derive(Debug, Clone, PartialEq)]
        struct Tag {
            q: u64,
        }
        impl Message for Tag {
            fn combine_key(&self) -> Option<u64> {
                Some(self.q)
            }
            fn merge(&mut self, _o: &Self) {}
            fn wire_query(&self) -> Option<u64> {
                Some(self.q)
            }
        }
        impl PayloadCodec for Tag {
            fn encode_payload(&self, _out: &mut Vec<u8>) {}
            fn decode_payload(
                wire_query: Option<u64>,
                _buf: &[u8],
                _pos: &mut usize,
            ) -> Option<Self> {
                Some(Tag { q: wire_query? })
            }
        }
        let envs: Vec<Envelope<Tag>> = (0..6)
            .map(|i| Envelope::new((i % 3) as VertexId, Tag { q: i as u64 % 2 }, 1))
            .collect();
        let buf = encode_bucket(&envs, |v| v);
        let back = try_decode_bucket::<Tag>(&buf, |li| li as VertexId).unwrap();
        let mut want = envs.clone();
        want.sort_by_key(|e| e.dest);
        assert_eq!(back, want);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Offset basis for the empty input; "a" from the published
        // FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn frame_roundtrip_matches_unframed_decode() {
        let envs = vec![
            env(7, Some(1), 10, 1),
            env(2, Some(1), 11, 3),
            env(7, None, 12, 1),
        ];
        let frame = encode_frame(&envs, |v| v);
        assert_eq!(
            frame.len(),
            FRAME_HEADER_BYTES + encode_bucket(&envs, |v| v).len()
        );
        let back = decode_frame::<P>(&frame, |li| li as VertexId).unwrap();
        let mut want = envs.clone();
        want.sort_by_key(|e| e.dest);
        assert_eq!(back, want);
        let body = &frame[FRAME_HEADER_BYTES..];
        assert_eq!(
            back,
            try_decode_bucket::<P>(body, |li| li as VertexId).unwrap()
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let envs = vec![
            env(3, Some(4), 77, 2),
            env(3, None, 5, 1),
            env(9, Some(4), 1, 1),
        ];
        let frame = encode_frame(&envs, |v| v);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame::<P>(&bad, |li| li as VertexId).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let envs = vec![env(1, Some(0), 9, 1)];
        let frame = encode_frame(&envs, |v| v);
        for cut in 0..frame.len() {
            assert!(decode_frame::<P>(&frame[..cut], |li| li as VertexId).is_err());
        }
        assert_eq!(
            decode_frame::<P>(&frame[..4], |li| li as VertexId),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn try_decode_restores_sorted_source_on_valid_input() {
        let envs = vec![
            env(7, Some(1), 10, 1),
            env(2, Some(1), 11, 3),
            env(2, Some(9), 500, 1),
        ];
        let buf = encode_bucket(&envs, |v| v);
        let checked = try_decode_bucket::<P>(&buf, |li| li as VertexId).unwrap();
        let mut want = envs.clone();
        want.sort_by_key(|e| e.dest);
        assert_eq!(checked, want);
        assert!(try_decode_bucket::<P>(&[], |li| li as VertexId)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn try_decode_rejects_structural_garbage() {
        // Truncated mid-stream.
        let envs = vec![env(4, Some(2), 300, 2), env(6, None, 1, 1)];
        let buf = encode_bucket(&envs, |v| v);
        for cut in 1..buf.len() {
            assert!(
                try_decode_bucket::<P>(&buf[..cut], |li| li as VertexId).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Hostile tuple count far beyond the input size.
        let mut hostile = Vec::new();
        write_varint(&mut hostile, u64::MAX);
        assert_eq!(
            try_decode_bucket::<P>(&hostile, |li| li as VertexId),
            Err(WireError::Malformed)
        );
        // Trailing garbage after a valid bucket.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(try_decode_bucket::<P>(&padded, |li| li as VertexId).is_err());
    }

    #[test]
    fn read_varint_is_total_past_the_end() {
        // Reading past the end consumes a phantom zero and flags via
        // pos; a run of continuation bytes terminates without overflow.
        let mut pos = 0usize;
        assert_eq!(read_varint(&[], &mut pos), 0);
        assert!(pos > 0);
        let all_cont = [0x80u8; 20];
        let mut pos = 0usize;
        let _ = read_varint(&all_cont, &mut pos);
        assert!(pos > all_cont.len());
    }
}
