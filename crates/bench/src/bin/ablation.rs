//! Ablation studies for the design choices the paper calls out:
//!
//! * `ls-bits`  — LS-bit count vs false-dependence rate (paper picks 8);
//! * `balance`  — load-balancer window/threshold sweep (paper picks N=5, T=10);
//! * `narrow`   — narrow-width threshold (paper picks 10 bits);
//! * `opts`     — each L-Wire optimization enabled alone;
//! * `ext`      — the paper's discussed-but-unevaluated extensions
//!   (frequent-value compaction, L2 critical-word-first, transmission-line
//!   L-Wires).
//!
//! Run `cargo run -p heterowire-bench --bin ablation -- <which>`; with no
//! study name, all five run, and an unknown name exits with status 2.
//! `--model <token>` (a preset or
//! `custom:<spec>`) swaps the default Model VII study machine;
//! `--topology <token>` (a preset, compact spec or spec file) swaps the
//! default 4-cluster crossbar; `--csv` / `--json` write every printed
//! scalar as machine-readable [`MetricRow`] artifacts.

use heterowire_bench::{
    completed, executor, format_metric_csv, format_metric_json, or_exit, sweep, Args, Cell,
    MetricRow, RunScale, SEED,
};
use heterowire_core::{
    Extensions, InterconnectModel, ModelSpec, Optimizations, ProcessorConfig, SimResults,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{by_name, spec2000, TraceGenerator};

fn ls_bits(scale: RunScale, study: &ModelSpec, topology: Topology, out: &mut Vec<MetricRow>) {
    println!("\n== LS-bit sweep: false partial-address dependences ==");
    println!("{:>8} {:>12} {:>10}", "LS bits", "false deps", "AM IPC");
    let widths = [4, 6, 8, 12, 16];
    let cells: Vec<Cell> = widths
        .iter()
        .map(|&bits| {
            let mut cfg = ProcessorConfig::for_model_spec(study, topology);
            cfg.ls_bits = bits;
            Cell::from_config(cfg)
        })
        .collect();
    let suites = completed(sweep(&cells, scale, executor::default_workers()));
    for (bits, suite) in widths.iter().zip(&suites) {
        let (fd, loads) = suite.runs.iter().fold((0, 0), |(fd, ld), r| {
            (fd + r.lsq.false_dependences, ld + r.lsq.loads)
        });
        let fd_pct = fd as f64 / loads as f64 * 100.0;
        println!("{:>8} {:>11.2}% {:>10.3}", bits, fd_pct, suite.mean_ipc());
        let label = bits.to_string();
        out.push(MetricRow::new("ls-bits", &label, "false_dep_pct", fd_pct));
        out.push(MetricRow::new(
            "ls-bits",
            &label,
            "am_ipc",
            suite.mean_ipc(),
        ));
    }
    println!("(paper: <9% of loads at 8 LS bits)");
}

fn balance(scale: RunScale, study: &ModelSpec, topology: Topology, out: &mut Vec<MetricRow>) {
    // The balancer needs both full-width planes; fall back to Model V
    // (144 B + 288 PW) when the study model lacks one.
    let link = study.link();
    let model = if link.lanes(heterowire_wires::WireClass::B) > 0
        && link.lanes(heterowire_wires::WireClass::Pw) > 0
    {
        study.clone()
    } else {
        InterconnectModel::V.spec()
    };
    println!(
        "\n== Load-balancer sweep ({}: {}) ==",
        model.label(),
        model.description()
    );
    println!("(the balancer diverts overflow traffic to the less congested plane)");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "window", "threshold", "AM IPC", "PW share"
    );
    // The balancer lives in the policy; window/threshold are fixed at the
    // paper's values in the public API, so this sweep exercises on/off and
    // the PW-steering criteria combinations instead.
    let variants = [
        (false, false, "off/off"),
        (true, false, "criteria only"),
        (false, true, "balance only"),
        (true, true, "paper (both)"),
    ];
    let cells: Vec<Cell> = variants
        .iter()
        .map(|&(pw, lb, _)| {
            let mut cfg = ProcessorConfig::for_model_spec(&model, topology);
            cfg.opts.pw_steering = pw;
            cfg.opts.load_balance = lb;
            Cell::from_config(cfg)
        })
        .collect();
    let suites = completed(sweep(&cells, scale, executor::default_workers()));
    for ((_, _, label), suite) in variants.iter().zip(&suites) {
        let (pw_t, total) = suite.runs.iter().fold((0u64, 0u64), |(p, t), r| {
            (p + r.net.transfers[1], t + r.net.total_transfers())
        });
        let pw_share = pw_t as f64 / total as f64 * 100.0;
        println!(
            "{:>21} {:>10.3} {:>9.1}%",
            label,
            suite.mean_ipc(),
            pw_share
        );
        out.push(MetricRow::new("balance", label, "am_ipc", suite.mean_ipc()));
        out.push(MetricRow::new("balance", label, "pw_share_pct", pw_share));
    }
}

fn narrow(_: RunScale, _: &ModelSpec, _: Topology, out: &mut Vec<MetricRow>) {
    println!("\n== Narrow-operand availability (trace property) ==");
    println!("{:>10} {:>16}", "threshold", "narrow results");
    for bits in [8u32, 10, 12, 16] {
        let mut narrow = 0u64;
        let mut total = 0u64;
        for p in spec2000() {
            for op in TraceGenerator::new(p, SEED).take(20_000) {
                if let Some(d) = op.dest() {
                    if d.class() == heterowire_isa::RegClass::Int {
                        total += 1;
                        if heterowire_isa::value::fits_in(op.result(), bits) {
                            narrow += 1;
                        }
                    }
                }
            }
        }
        let pct = narrow as f64 / total as f64 * 100.0;
        println!("{:>7} bit {:>15.1}%", bits, pct);
        out.push(MetricRow::new(
            "narrow",
            &bits.to_string(),
            "narrow_result_pct",
            pct,
        ));
    }
    println!("(paper uses 10 bits: 8-bit tag + 10-bit payload on 18 L-Wires)");
}

type OptVariant = (&'static str, fn(&mut Optimizations));

fn opts(scale: RunScale, study: &ModelSpec, topology: Topology, out: &mut Vec<MetricRow>) {
    println!(
        "\n== Individual L-Wire optimization contributions ({}) ==",
        study.label()
    );
    let bench_set = ["gzip", "gcc", "twolf", "swim", "mcf", "applu"];
    let variants: [OptVariant; 5] = [
        ("none (baseline wires)", |o| {
            o.cache_pipeline = false;
            o.narrow_operands = false;
            o.branch_signal = false;
        }),
        ("cache pipeline only", |o| {
            o.narrow_operands = false;
            o.branch_signal = false;
        }),
        ("narrow operands only", |o| {
            o.cache_pipeline = false;
            o.branch_signal = false;
        }),
        ("branch signal only", |o| {
            o.cache_pipeline = false;
            o.narrow_operands = false;
        }),
        ("all three (paper)", |_| {}),
    ];
    println!("{:<24} {:>10}", "variant", "AM IPC");
    for (label, tweak) in variants {
        let mut sum = 0.0;
        for b in bench_set {
            let mut cfg = ProcessorConfig::for_model_spec(study, topology);
            tweak(&mut cfg.opts);
            let r = run(cfg, b, scale);
            sum += r.ipc();
        }
        let am = sum / bench_set.len() as f64;
        println!("{:<24} {:>10.3}", label, am);
        out.push(MetricRow::new("opts", label, "am_ipc", am));
    }
    println!("(paper: the three optimizations contributed equally)");
}

fn extensions(scale: RunScale, study: &ModelSpec, topology: Topology, out: &mut Vec<MetricRow>) {
    println!(
        "\n== Paper-discussed extensions ({}, 2x wire-constrained latency) ==",
        study.label()
    );
    let bench_set = ["gzip", "gcc", "mcf", "swim", "applu", "twolf"];
    let variants: [(&str, Extensions); 5] = [
        ("paper (no extensions)", Extensions::default()),
        (
            "frequent-value compaction",
            Extensions {
                frequent_value: true,
                ..Default::default()
            },
        ),
        (
            "L2 critical-word-first",
            Extensions {
                l2_critical_word: true,
                ..Default::default()
            },
        ),
        (
            "transmission-line L-wires",
            Extensions {
                transmission_lines: true,
                ..Default::default()
            },
        ),
        (
            "all extensions",
            Extensions {
                frequent_value: true,
                l2_critical_word: true,
                transmission_lines: true,
            },
        ),
    ];
    println!("{:<28} {:>8} {:>12}", "variant", "AM IPC", "IC dyn (rel)");
    let mut base_energy = 0.0;
    for (i, (label, ext)) in variants.iter().enumerate() {
        let mut ipc = 0.0;
        let mut energy = 0.0;
        for b in bench_set {
            let mut cfg = ProcessorConfig::for_model_spec(study, topology);
            cfg.latency_scale = 2.0;
            cfg.extensions = *ext;
            let r = run(cfg, b, scale);
            ipc += r.ipc();
            energy += r.net.dynamic_energy;
        }
        if i == 0 {
            base_energy = energy;
        }
        let am = ipc / bench_set.len() as f64;
        let rel = energy / base_energy * 100.0;
        println!("{:<28} {:>8.3} {:>11.1}%", label, am, rel);
        out.push(MetricRow::new("ext", label, "am_ipc", am));
        out.push(MetricRow::new("ext", label, "ic_dynamic_pct", rel));
    }
}

/// Runs one named benchmark under a hand-built configuration.
fn run(cfg: ProcessorConfig, bench: &str, scale: RunScale) -> SimResults {
    Cell::from_config(cfg)
        .run(by_name(bench).expect("known benchmark"), scale)
        .unwrap_or_else(|stall| panic!("{bench}: {stall}"))
}

type Study = fn(RunScale, &ModelSpec, Topology, &mut Vec<MetricRow>);

/// Every study, by command-line name, in the order a bare run takes them.
const STUDIES: [(&str, Study); 5] = [
    ("ls-bits", ls_bits),
    ("balance", balance),
    ("narrow", narrow),
    ("opts", opts),
    ("ext", extensions),
];

fn main() {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &["--model", "--topology", "--csv", "--json"],
        1,
    ));
    let study = or_exit(args.model_or("VII"));
    let topology = or_exit(args.topology_or("crossbar4")).topology();
    let paths = or_exit(args.artifacts());
    let selected = match args.positional() {
        None => &STUDIES[..],
        Some(which) => {
            let i = STUDIES.iter().position(|(name, _)| *name == which);
            let i = or_exit(i.ok_or_else(|| {
                let names: Vec<_> = STUDIES.iter().map(|(name, _)| *name).collect();
                format!(
                    "unknown study {which:?}; expected one of {}",
                    names.join(", ")
                )
            }));
            &STUDIES[i..=i]
        }
    };
    let mut metrics = Vec::new();
    for (_, run_study) in selected {
        run_study(scale, &study, topology, &mut metrics);
    }
    paths.emit(
        || format_metric_csv(&metrics),
        || format_metric_json(&metrics),
    );
}
