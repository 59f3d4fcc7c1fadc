//! Timing benches over individual simulator components: trace generation,
//! branch prediction, cache/LSQ models and the network engine.

use heterowire_bench::timing::bench;
use heterowire_frontend::{Combined, DirectionPredictor};
use heterowire_interconnect::{MessageKind, NetConfig, Network, Node, Topology, Transfer};
use heterowire_memory::{Cache, LoadStoreQueue};
use heterowire_trace::{by_name, TraceGenerator};
use heterowire_wires::{LinkComposition, WireClass, WirePlane};

fn main() {
    let samples = [
        bench("trace/generate_10k_gcc", 20, || {
            let gen = TraceGenerator::new(by_name("gcc").unwrap(), 1);
            gen.take(10_000).count()
        }),
        {
            let mut p = Combined::table1();
            bench("predictor/combined_10k", 20, move || {
                let mut correct = 0u32;
                for i in 0..10_000u64 {
                    let pc = 0x1000 + (i % 256) * 4;
                    let taken = (i / 7) % 3 != 0;
                    if p.predict(pc) == taken {
                        correct += 1;
                    }
                    p.update(pc, taken);
                }
                correct
            })
        },
        {
            let mut cache = Cache::l1d_table1();
            bench("cache/l1d_10k_accesses", 20, move || {
                let mut hits = 0u32;
                for i in 0..10_000u64 {
                    if cache.access((i * 4391) % (1 << 20)) {
                        hits += 1;
                    }
                }
                hits
            })
        },
        bench("lsq/1k_pairs", 20, || {
            let mut lsq = LoadStoreQueue::new(8);
            for i in 0..1_000u64 {
                let s = i * 2;
                let store = lsq.insert(s, true);
                let load = lsq.insert(s + 1, false);
                lsq.arrive_full_ref(store, 0x1000 + i * 64, i);
                lsq.arrive_full_ref(load, 0x9000 + i * 64, i);
                std::hint::black_box(lsq.load_status_ref(load, i, true));
                lsq.retire_through(s + 1);
            }
        }),
        bench("network/crossbar_4k_transfers", 20, || {
            let link = LinkComposition::new(vec![WirePlane::new(WireClass::B, 144)]).unwrap();
            let mut net = Network::new(NetConfig::new(Topology::crossbar4(), link));
            let mut delivered = 0usize;
            let mut buf = Vec::new();
            for cycle in 1..=1_000u64 {
                for src in 0..4usize {
                    net.send(
                        Transfer {
                            src: Node::Cluster(src),
                            dst: Node::Cache,
                            class: WireClass::B,
                            kind: MessageKind::FullAddress,
                        },
                        cycle - 1,
                    );
                }
                net.tick(cycle);
                net.take_delivered_into(cycle, &mut buf);
                delivered += buf.len();
            }
            delivered
        }),
    ];
    for s in &samples {
        println!("{}", s.report());
    }
}
