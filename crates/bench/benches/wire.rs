//! Criterion microbenchmarks of the wire codec: encode (frame + seal) and
//! decode (verify + parse) of one datagram at the paper's operating point
//! — a k=20, P=1024 data packet — and of a NAK, the smallest feedback
//! message. Both ends run the integrity checksum over the whole datagram,
//! so these numbers are the per-packet cost of framing and integrity.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bytes::Bytes;
use pm_net::Message;

fn bench_wire_roundtrip(c: &mut Criterion) {
    let packet = Message::Packet {
        session: 1,
        group: 7,
        index: 3,
        k: 20,
        n: 255,
        payload: Bytes::from(
            (0..1024u32)
                .map(|i| (i * 31 % 251) as u8)
                .collect::<Vec<u8>>(),
        ),
    };
    let nak = Message::Nak {
        session: 1,
        group: 7,
        needed: 2,
        round: 1,
    };
    for (name, msg) in [("packet_k20_p1024", packet), ("nak", nak)] {
        let encoded = msg.encode();
        let mut g = c.benchmark_group(format!("wire_roundtrip/{name}"));
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_function("encode", |b| b.iter(|| black_box(&msg).encode()));
        g.bench_function("decode", |b| {
            b.iter(|| Message::decode(black_box(encoded.clone())).unwrap())
        });
        g.finish();
    }
}

criterion_group!(benches, bench_wire_roundtrip);
criterion_main!(benches);
