//! Regenerates **Table 2** of the paper: delay and relative-energy
//! parameters of each wire class, with the canonical values printed next to
//! the values derived from the analytical wire models, plus the resulting
//! network latencies and the transmission-line headroom discussed in §2.

use heterowire_bench::{format_table2_csv, format_table2_json, or_exit, Args};
use heterowire_wires::classes::table2;
use heterowire_wires::geometry::WireGeometry;
use heterowire_wires::repeater::{DeviceParams, RepeatedWire};
use heterowire_wires::transmission::transmission_line_headroom;

fn main() {
    // `--model <token>` (preset or `custom:<spec>`) restricts the table to
    // the wire classes that model's link actually uses; repeated flags
    // union their classes. No flag prints every class.
    let args = or_exit(Args::from_env(&["--model", "--csv", "--json"], 0));
    let models = or_exit(args.models());
    let paths = or_exit(args.artifacts());
    let rows: Vec<_> = table2()
        .into_iter()
        .filter(|row| {
            models.is_empty() || models.iter().any(|spec| spec.link().lanes(row.class) > 0)
        })
        .collect();
    paths.emit(|| format_table2_csv(&rows), || format_table2_json(&rows));
    println!("Table 2: wire delay and relative energy parameters per wire class");
    println!("(canonical = paper values; derived = from the RC/repeater models)\n");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>10} {:>9}",
        "Wire", "rel delay", "derived", "rel dyn", "derived", "rel lkg", "crossbar", "ring hop"
    );
    for row in rows {
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2} {:>7} cyc {:>5} cyc",
            row.class.to_string(),
            row.relative_delay,
            row.derived_delay,
            row.relative_dynamic,
            row.derived_dynamic,
            row.relative_leakage,
            row.crossbar_latency,
            row.ring_hop_latency,
        );
    }

    println!("\nUnderlying physical model (10 mm global wire, 45 nm devices):");
    let devices = DeviceParams::node_45nm();
    let len = 10e-3;
    let geoms = [
        ("W (min pitch)", WireGeometry::minimum_45nm(), false),
        (
            "B (2x area)",
            WireGeometry::minimum_45nm().with_spacing_factor(3.0),
            false,
        ),
        (
            "L (8x pitch)",
            WireGeometry::minimum_45nm().scaled(8.0),
            false,
        ),
        ("PW (power rep.)", WireGeometry::minimum_45nm(), true),
    ];
    for (name, g, power) in geoms {
        let wire = if power {
            RepeatedWire::paper_power_optimal(g, devices)
        } else {
            RepeatedWire::delay_optimal(g, devices)
        };
        println!(
            "  {:<16} {:>7.0} ps delay, {:>6.2} pJ/transition, {} repeaters of {:.0}x min size",
            name,
            wire.delay(len) * 1e12,
            wire.dynamic_energy(len) * 1e12,
            wire.stages(len),
            wire.repeaters.size,
        );
    }

    println!(
        "\nTransmission-line headroom vs the RC L-wire over 10 mm: {:.1}x faster\n\
         (the paper restricts its evaluation to RC wires, as do we)",
        transmission_line_headroom()
    );
}
