//! Regenerates **Table 3** of the paper: the ten interconnect models on the
//! 4-cluster crossbar — relative metal area, IPC, relative interconnect
//! dynamic and leakage energy, relative processor energy, and ED² at 10%
//! and 20% interconnect energy fractions, all normalised to Model I.

use heterowire_bench::{format_model_table, model_sweep_main};

fn main() {
    let (topo, rows) = model_sweep_main("crossbar4");
    println!(
        "Table 3: heterogeneous interconnect energy and performance, {} ({} clusters)",
        topo.name(),
        topo.topology().clusters()
    );
    println!("(all values except IPC are % of Model I)\n");
    print!("{}", format_model_table(&rows));

    let best = rows
        .iter()
        .min_by(|a, b| a.at_10.rel_ed2.total_cmp(&b.at_10.rel_ed2))
        .expect("ten rows");
    println!(
        "\nbest ED2(10%): {} at {:.1}% (paper: Model IX at 92.0%)",
        best.model.label(),
        best.at_10.rel_ed2
    );
    let best20 = rows
        .iter()
        .min_by(|a, b| a.at_20.rel_ed2.total_cmp(&b.at_20.rel_ed2))
        .expect("ten rows");
    println!(
        "best ED2(20%): {} at {:.1}% (paper: Model III at 92.1%)",
        best20.model.label(),
        best20.at_20.rel_ed2
    );
}
