//! Timing wrapper around the Table-4 code path: times the 16-cluster
//! hierarchical topology (the paper's most interconnect-sensitive
//! configuration). The full table is produced by the `table4` binary.

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
    for model in [InterconnectModel::I, InterconnectModel::IX] {
        let s = bench(
            &format!("table4/swim_16cl_model_{}", model.name()),
            10,
            || {
                let cfg = ProcessorConfig::for_model(model, Topology::hier16());
                let r = Cell::from_config(cfg)
                    .run(by_name("swim").expect("swim exists"), scale)
                    .expect("no stall");
                r.ipc()
            },
        );
        println!("{}", s.report());
    }
}
