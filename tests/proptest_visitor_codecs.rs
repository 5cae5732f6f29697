//! Wire-codec roundtrip properties for every visitor type that crosses the
//! simulated network.
//!
//! Two complementary properties:
//!
//! - *value roundtrip* (visitors with public fields): construct a visitor
//!   from generated field values — including all-zero and all-max extremes —
//!   encode it, decode it, and require field-for-field identity.
//! - *byte roundtrip* (visitors with private fields / decode contexts):
//!   synthesize a valid wire record, decode it, re-encode it, and require
//!   byte-for-byte identity. This is strictly stronger than value equality
//!   wherever the wire layout is canonical.
//!
//! A codec that silently truncates a field (say, a level that only survives
//! to 32 bits) passes every small-graph integration test; it only fails at
//! the extremes, which is exactly what these properties pin down.

use havoq_comm::codec::{
    frame_init, frame_seal, frame_set_count, frame_verify_and_strip, FRAME_CRC_BYTES,
};
use havoq_comm::WireCodec;
use havoq_core::algorithms::bfs::BfsVisitor;
use havoq_core::algorithms::cc::CcVisitor;
use havoq_core::algorithms::kcore::KCoreVisitor;
use havoq_core::algorithms::sssp::SsspVisitor;
use havoq_core::algorithms::triangle::TriangleVisitor;
use havoq_core::algorithms::wedge::WedgeVisitor;
use havoq_graph::types::VertexId;
use havoq_util::testing::{run_cases, TestRng};

/// Interesting u64 values: both extremes, both near-extremes, and random.
fn gen_u64(rng: &mut TestRng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        4 => 1 << 63,
        _ => rng.next_u64(),
    }
}

/// Encode into an exactly-sized buffer (over- or under-writes panic).
fn encode_exact<V: WireCodec>(v: &V) -> Vec<u8> {
    let mut buf = vec![0u8; V::WIRE_SIZE];
    v.encode(&mut buf);
    buf
}

#[test]
fn bfs_visitor_roundtrips_including_extremes() {
    run_cases(256, |rng: &mut TestRng| {
        let v = BfsVisitor {
            vertex: VertexId(gen_u64(rng)),
            length: gen_u64(rng),
            parent: gen_u64(rng),
        };
        let buf = encode_exact(&v);
        let d = BfsVisitor::decode(&buf, &());
        assert_eq!((d.vertex, d.length, d.parent), (v.vertex, v.length, v.parent));
        assert_eq!(encode_exact(&d), buf, "re-encode must be canonical");
    });
}

#[test]
fn cc_visitor_roundtrips_including_extremes() {
    run_cases(256, |rng: &mut TestRng| {
        let v = CcVisitor { vertex: VertexId(gen_u64(rng)), label: gen_u64(rng) };
        let buf = encode_exact(&v);
        let d = CcVisitor::decode(&buf, &());
        assert_eq!((d.vertex, d.label), (v.vertex, v.label));
        assert_eq!(encode_exact(&d), buf);
    });
}

#[test]
fn kcore_visitor_roundtrips_including_extremes() {
    run_cases(256, |rng: &mut TestRng| {
        let v = KCoreVisitor { vertex: VertexId(gen_u64(rng)), k: gen_u64(rng) };
        let buf = encode_exact(&v);
        let d = KCoreVisitor::decode(&buf, &());
        assert_eq!((d.vertex, d.k), (v.vertex, v.k));
        assert_eq!(encode_exact(&d), buf);
    });
}

#[test]
fn sssp_visitor_roundtrips_including_extremes() {
    run_cases(256, |rng: &mut TestRng| {
        let v = SsspVisitor {
            vertex: VertexId(gen_u64(rng)),
            distance: gen_u64(rng),
            parent: gen_u64(rng),
            max_weight: gen_u64(rng),
        };
        let buf = encode_exact(&v);
        let d = SsspVisitor::decode(&buf, &());
        assert_eq!(
            (d.vertex, d.distance, d.parent, d.max_weight),
            (v.vertex, v.distance, v.parent, v.max_weight)
        );
        assert_eq!(encode_exact(&d), buf);
    });
}

#[test]
fn triangle_visitor_roundtrips_including_extremes() {
    run_cases(256, |rng: &mut TestRng| {
        let v = TriangleVisitor {
            vertex: VertexId(gen_u64(rng)),
            second: gen_u64(rng),
            third: gen_u64(rng),
        };
        let buf = encode_exact(&v);
        let d = TriangleVisitor::decode(&buf, &());
        assert_eq!((d.vertex, d.second, d.third), (v.vertex, v.second, v.third));
        assert_eq!(encode_exact(&d), buf);
    });
}

/// The integrity guarantee the retransmission protocol leans on: a single
/// bit-flip *anywhere* in a sealed frame — header, records, or the CRC
/// trailer itself — is always detected, and the rejected frame is left
/// byte-for-byte untouched so the receiver can account for it and NACK.
/// This is the frame-level face of the fault plan's one-bit corruption:
/// CRC-32 detects every single-bit error, so "injected == detected" holds
/// by construction, never by luck.
#[test]
fn sealed_frame_single_bit_flip_is_always_detected() {
    run_cases(512, |rng: &mut TestRng| {
        // synthesize a frame of random records (empty frames included)
        let record_size = rng.range_usize(1, 64);
        let count = rng.range_usize(0, 16);
        let mut buf = Vec::new();
        frame_init(&mut buf, record_size as u32);
        for _ in 0..record_size * count {
            buf.push(rng.u8());
        }
        frame_set_count(&mut buf, count as u32);
        frame_seal(&mut buf);

        // sanity: the intact frame verifies and the trailer strips cleanly
        let mut intact = buf.clone();
        assert!(frame_verify_and_strip(&mut intact), "intact frame rejected");
        assert_eq!(intact.len(), buf.len() - FRAME_CRC_BYTES);

        let bit = rng.range_usize(0, buf.len() * 8);
        let mut flipped = buf.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let before = flipped.clone();
        assert!(
            !frame_verify_and_strip(&mut flipped),
            "bit {bit} of {} escaped the CRC",
            buf.len() * 8
        );
        assert_eq!(flipped, before, "rejected frame must be left untouched");
    });
}

/// Wedge visitors have private fields, so the property works on the wire
/// form: synthesize a valid record (duty tag 0, 1 or 2; the `Close` duty
/// carries a single operand with a zero second slot), decode, re-encode,
/// and require byte identity.
#[test]
fn wedge_visitor_byte_roundtrips() {
    run_cases(256, |rng: &mut TestRng| {
        let tag = rng.below(3) as u8;
        let a = gen_u64(rng);
        let b = if tag == 2 { 0 } else { gen_u64(rng) };
        let mut buf = vec![0u8; WedgeVisitor::WIRE_SIZE];
        gen_u64(rng).encode(&mut buf[..8]); // vertex id
        buf[8] = tag;
        a.encode(&mut buf[9..17]);
        b.encode(&mut buf[17..25]);
        let d = WedgeVisitor::decode(&buf, &());
        assert_eq!(encode_exact(&d), buf, "duty tag {tag}");
    });
}
