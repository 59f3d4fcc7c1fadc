//! Timing wrapper around the Table-3 code path: times single-benchmark
//! runs of the extreme 4-cluster models (homogeneous baseline, PW-only,
//! full heterogeneous). The full table is produced by the `table3` binary.

use heterowire_bench::timing::bench;
use heterowire_bench::{Cell, RunScale};
use heterowire_core::{InterconnectModel, ProcessorConfig};
use heterowire_interconnect::Topology;
use heterowire_trace::by_name;

fn main() {
    let scale = RunScale {
        window: 5_000,
        warmup: 1_000,
    };
    for model in [
        InterconnectModel::I,
        InterconnectModel::II,
        InterconnectModel::X,
    ] {
        let s = bench(&format!("table3/gcc_model_{}", model.name()), 10, || {
            let cfg = ProcessorConfig::for_model(model, Topology::crossbar4());
            let r = Cell::from_config(cfg)
                .run(by_name("gcc").expect("gcc exists"), scale)
                .expect("no stall");
            (r.ipc(), r.net.dynamic_energy)
        });
        println!("{}", s.report());
    }
}
