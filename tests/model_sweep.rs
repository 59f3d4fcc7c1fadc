//! Integration tests over the Table-3/4 sweep machinery: the energy model,
//! normalisation, and the orderings that define the paper's conclusions;
//! plus the sweep binaries' refusal of undeclared flags and study names.

use heterowire_bench::{completed, executor, model_rows, sweep, Cell, ModelRow, RunScale};
use heterowire_core::{InterconnectModel, ModelSpec, ProcessorConfig};
use heterowire_interconnect::Topology;
use std::process::Command;

fn quick_rows() -> Vec<ModelRow> {
    let models = ModelSpec::paper_presets();
    let cells: Vec<Cell> = models
        .iter()
        .map(|m| Cell::from_config(ProcessorConfig::for_model_spec(m, Topology::crossbar4())))
        .collect();
    let scale = RunScale {
        window: 6_000,
        warmup: 2_000,
    };
    model_rows(
        &models,
        &completed(sweep(&cells, scale, executor::default_workers())),
    )
}

#[test]
fn sweep_covers_all_ten_models_in_order() {
    let rows = quick_rows();
    assert_eq!(rows.len(), 10);
    for (row, model) in rows.iter().zip(InterconnectModel::ALL) {
        assert_eq!(row.model.as_preset(), Some(model));
        // Every preset row's token re-parses to the same spec.
        assert_eq!(
            heterowire_core::ModelSpec::parse(&row.model.name()).unwrap(),
            row.model
        );
    }
}

#[test]
fn model_i_is_the_normalisation_point() {
    let rows = quick_rows();
    let m1 = &rows[0];
    assert!((m1.at_10.rel_ic_dynamic - 100.0).abs() < 1e-6);
    assert!((m1.at_10.rel_ic_leakage - 100.0).abs() < 1e-6);
    assert!((m1.at_10.rel_processor_energy - 100.0).abs() < 1e-6);
    assert!((m1.at_10.rel_ed2 - 100.0).abs() < 1e-6);
    assert!((m1.at_20.rel_ed2 - 100.0).abs() < 1e-6);
}

#[test]
fn table3_orderings_hold() {
    let rows = quick_rows();
    let get = |m: InterconnectModel| {
        rows.iter()
            .find(|r| r.model.as_preset() == Some(m))
            .expect("present")
    };

    // PW-only (II) saves roughly half the interconnect dynamic energy.
    let m2 = get(InterconnectModel::II);
    assert!(
        m2.at_10.rel_ic_dynamic < 65.0,
        "{}",
        m2.at_10.rel_ic_dynamic
    );
    // ... at an IPC cost vs Model I.
    assert!(m2.at_10.ipc < get(InterconnectModel::I).at_10.ipc);

    // Leakage scales with the wire inventory: VIII (432 B) ~3x Model I.
    let m8 = get(InterconnectModel::VIII);
    assert!(
        (250.0..350.0).contains(&m8.at_10.rel_ic_leakage),
        "{}",
        m8.at_10.rel_ic_leakage
    );

    // More wires never hurt IPC: IV >= I, VIII >= IV (within tolerance).
    let (i, iv, viii) = (
        get(InterconnectModel::I).at_10.ipc,
        get(InterconnectModel::IV).at_10.ipc,
        get(InterconnectModel::VIII).at_10.ipc,
    );
    assert!(iv >= i * 0.995, "IV {iv} vs I {i}");
    assert!(viii >= iv * 0.995, "VIII {viii} vs IV {iv}");

    // The heterogeneous models III and VI beat their homogeneous
    // same-power cousin II on IPC (the L-plane wins back the PW loss).
    assert!(get(InterconnectModel::III).at_10.ipc >= m2.at_10.ipc);
    assert!(get(InterconnectModel::VI).at_10.ipc >= m2.at_10.ipc);
}

#[test]
fn a_heterogeneous_model_wins_ed2() {
    // The paper's central conclusion: the best ED2 belongs to a
    // heterogeneous interconnect, not a homogeneous one.
    let rows = quick_rows();
    let homogeneous = [
        InterconnectModel::I,
        InterconnectModel::II,
        InterconnectModel::IV,
        InterconnectModel::VIII,
    ];
    let best = rows
        .iter()
        .min_by(|a, b| a.at_20.rel_ed2.total_cmp(&b.at_20.rel_ed2))
        .expect("rows");
    let best_preset = best
        .model
        .as_preset()
        .expect("paper sweep rows are presets");
    assert!(
        !homogeneous.contains(&best_preset),
        "best ED2(20%) model was homogeneous: {}",
        best.model.label()
    );
    assert!(best.at_20.rel_ed2 < 100.0, "{}", best.at_20.rel_ed2);
}

#[test]
fn metal_area_column_matches_the_paper() {
    let rows = quick_rows();
    let areas: Vec<f64> = rows.iter().map(|r| r.metal_area).collect();
    assert_eq!(
        areas,
        vec![1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    );
}

/// Runs a harness binary at quick scale (so a regression that ignores
/// the bad token sweeps for seconds, not minutes) and returns its exit
/// code and stderr.
fn run_bin(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("HETEROWIRE_SCALE", "quick")
        .output()
        .expect("spawn harness binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table3_refuses_undeclared_flags_with_exit_2() {
    let cases: [(&[&str], &str); 2] = [
        (&["--modle", "X"], "--modle"),
        (&["--model", "X", "extra"], "extra"),
    ];
    for (args, token) in cases {
        let (code, stderr) = run_bin(env!("CARGO_BIN_EXE_table3"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{token:?}")),
            "{args:?}: {token} is not named: {stderr}"
        );
        assert!(!stderr.contains("sweeping"), "{args:?} started a sweep");
    }
}

#[test]
fn ablation_refuses_unknown_studies_with_exit_2() {
    let (code, stderr) = run_bin(env!("CARGO_BIN_EXE_ablation"), &["lsbits"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("\"lsbits\""), "token not named: {stderr}");
    for study in ["ls-bits", "balance", "narrow", "opts", "ext"] {
        assert!(stderr.contains(study), "{study} not listed: {stderr}");
    }
    let (code, stderr) = run_bin(env!("CARGO_BIN_EXE_ablation"), &["--lsbits"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("\"--lsbits\""), "token not named: {stderr}");
}
