//! Timing wrapper around the Figure-3 experiment: times one
//! baseline-vs-L-Wires benchmark pair at reduced scale. The full figure is
//! produced by the `fig3` binary; this bench guards against simulator
//! performance regressions on the exact code path the figure uses.

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
    for model in [InterconnectModel::I, InterconnectModel::VII] {
        let s = bench(&format!("fig3/gzip_model_{}", model.name()), 10, || {
            let cfg = ProcessorConfig::for_model(model, Topology::crossbar4());
            let r = Cell::from_config(cfg)
                .run(by_name("gzip").expect("gzip exists"), scale)
                .expect("no stall");
            r.ipc()
        });
        println!("{}", s.report());
    }
}
