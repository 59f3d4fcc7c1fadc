//! The telemetry artifacts must be machine-valid: `trace.json` has to be
//! well-formed Chrome-trace JSON (checked against the telemetry crate's
//! own strict parser), and the utilization CSV's per-link totals have to
//! reconcile with the `NetStats` the same run reports.

use std::collections::HashMap;

use heterowire_bench::SEED;
use heterowire_core::{
    InterconnectModel, Processor, ProcessorConfig, RecordingConfig, RecordingProbe, SimResults,
};
use heterowire_interconnect::Topology;
use heterowire_telemetry::json::{parse, Json};
use heterowire_telemetry::{chrome_trace, utilization_csv, NUM_CLASSES};
use heterowire_trace::{by_name, TraceGenerator};
use heterowire_wires::WireClass;

/// One recorded run of Model X (all three wire planes) on gzip, warmup 0
/// so the probe's counters align exactly with the end-of-run statistics.
fn recorded_run() -> (Processor<RecordingProbe>, SimResults) {
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
    let labels = Processor::new(
        cfg.clone(),
        TraceGenerator::new(by_name("gzip").unwrap(), SEED),
    )
    .network()
    .link_labels();
    let probe = RecordingProbe::new(RecordingConfig::new(64, labels, 4));
    let mut p = Processor::with_probe(
        cfg,
        TraceGenerator::new(by_name("gzip").unwrap(), SEED),
        probe,
    );
    let results = p.run(5_000, 0);
    p.probe_mut().finish();
    (p, results)
}

#[test]
fn trace_json_is_valid_chrome_trace() {
    let (p, results) = recorded_run();
    let text = chrome_trace(p.probe());
    let doc = parse(&text).expect("trace.json parses as strict JSON");

    let events = doc
        .get("traceEvents")
        .expect("top-level traceEvents")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "trace has events");

    // Every event carries the mandatory Chrome-trace fields, and async
    // begin/end pairs balance per (cat, id).
    let mut open: HashMap<String, i64> = HashMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(
            ["M", "b", "e", "n", "C", "X"].contains(&ph),
            "unexpected phase {ph:?}"
        );
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(|p| p.as_num()).is_some());
        if ph != "M" {
            assert!(e.get("ts").and_then(|t| t.as_num()).is_some());
        }
        if ph == "b" || ph == "e" {
            let id = e.get("id").and_then(|i| i.as_num()).expect("async id");
            let cat = e.get("cat").and_then(Json::as_str).expect("async cat");
            *open.entry(format!("{cat}:{id}")).or_insert(0) += if ph == "b" { 1 } else { -1 };
        }
        if ph == "X" {
            assert!(e.get("dur").and_then(|d| d.as_num()).is_some());
        }
    }
    assert!(
        open.values().all(|&v| v == 0),
        "unbalanced async begin/end pairs: {open:?}"
    );

    // The summary block reconciles with the run's own statistics.
    let other = doc.get("otherData").expect("otherData summary");
    let last_cycle = other.get("cycles").unwrap().as_num().unwrap() as u64;
    assert!(last_cycle > 0 && last_cycle <= results.cycles);
    let injected: u64 = p.probe().injected.iter().sum();
    let inj = other.get("injected").expect("injected per class");
    let summed: u64 = WireClass::ALL
        .iter()
        .map(|c| inj.get(c.label()).unwrap().as_num().unwrap() as u64)
        .sum();
    assert_eq!(summed, injected);
    assert_eq!(injected, results.net.total_transfers());
}

#[test]
fn utilization_csv_reconciles_with_netstats() {
    let (p, results) = recorded_run();
    let probe = p.probe();

    // Injected-per-class equals NetStats transfer counts at warmup 0.
    for (i, c) in WireClass::ALL.iter().enumerate() {
        assert_eq!(
            probe.injected[i],
            results.net.transfers[i],
            "{} transfers disagree with NetStats",
            c.label()
        );
    }
    // Whatever was injected but never departed is still queued.
    let injected: u64 = probe.injected.iter().sum();
    let departed: u64 = probe.departed.iter().sum();
    assert_eq!(
        injected - departed,
        p.network().pending_len() as u64,
        "conservation: injected - departed = still pending"
    );

    // CSV per-(link, class) sums equal the probe's cumulative totals.
    let csv = utilization_csv(probe);
    let links = probe.config().link_labels.len();
    let mut sums = vec![0u64; links * NUM_CLASSES];
    for line in csv.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let link: usize = f[2].parse().expect("link index");
        let class = WireClass::ALL
            .iter()
            .position(|c| c.label() == f[4])
            .expect("class label");
        sums[link * NUM_CLASSES + class] += f[5].parse::<u64>().expect("busy count");
    }
    let mut total = 0u64;
    for link in 0..links {
        for class in 0..NUM_CLASSES {
            assert_eq!(
                sums[link * NUM_CLASSES + class],
                probe.link_total(link, class),
                "CSV total for link {link} class {class}"
            );
            total += sums[link * NUM_CLASSES + class];
        }
    }
    assert_eq!(total, probe.total_busy());
    assert!(total > 0, "the run produced link activity");
    assert_eq!(probe.dropped_samples, 0, "no rows dropped at this scale");
}

/// A `--window` that is not a positive cycle count is refused up front
/// with exit 2 naming the value, not a parse or probe-assertion panic.
#[test]
fn malformed_window_exits_2_naming_the_value() {
    for bad in ["abc", "0", "-3"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_telemetry"))
            .args(["--window", bad, "--out-dir"])
            .arg(std::env::temp_dir().join("hw-telemetry-never-written"))
            .env("HETEROWIRE_SCALE", "quick")
            .output()
            .expect("spawn telemetry");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--window {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("--window {bad:?}")),
            "--window {bad}: value not named: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--window {bad}: {stderr}");
    }
}
