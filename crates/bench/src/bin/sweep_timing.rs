//! Times the quick-scale Table-3 model sweep two ways — inline on one
//! worker and on the work-queue executor's pool — verifies the two
//! produce bit-identical results, and appends one CSV row per invocation
//! to `results/sweep_timing.csv` (pass `--label` to tag the row, `--out`
//! to redirect it). This is the reproducible before/after number behind
//! EXPERIMENTS.md's executor section.

use heterowire_bench::timing::{git_dirty, git_revision, time_once, BenchReport, Measurement};
use heterowire_bench::{completed, executor, or_exit, sweep, Args, Cell, RunScale};
use heterowire_core::{ModelSpec, ProcessorConfig};

const USAGE: &str = "usage: sweep_timing [--label NAME] [--out CSV_PATH] [--json-out JSON_PATH]\n\
    [--model TOKEN]... [--topology TOKEN]\n\
    times the quick-scale model sweep (serial vs. executor) and appends a\n\
    CSV row to --out (default results/sweep_timing.csv) plus a schema-checked\n\
    bench.json report to --json-out (default results/bench.json); repeated\n\
    --model flags (presets or custom:<spec>) replace the default Models I-X;\n\
    --topology (a preset, compact spec or spec file) replaces the default\n\
    4-cluster crossbar";

/// Unwraps a command-line result, or exits with status 2 printing the
/// error and the usage text.
fn or_usage<T>(result: Result<T, String>) -> T {
    or_exit(result.map_err(|e| format!("{e}\n{USAGE}")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = or_usage(Args::parse(
        argv,
        &["--label", "--out", "--json-out", "--model", "--topology"],
        0,
    ));
    let label = or_usage(args.value("--label")).unwrap_or("run").to_string();
    let out = or_usage(args.value("--out"))
        .unwrap_or("results/sweep_timing.csv")
        .to_string();
    let json_out = or_usage(args.value("--json-out"))
        .unwrap_or("results/bench.json")
        .to_string();
    let mut models = or_usage(args.models());
    if models.is_empty() {
        models = ModelSpec::paper_presets();
    }
    let topology = or_usage(args.topology_or("crossbar4")).topology();

    let scale = RunScale::quick();
    let workers = executor::default_workers();
    let cells: Vec<Cell> = models
        .iter()
        .map(|m| Cell::from_config(ProcessorConfig::for_model_spec(m, topology)))
        .collect();

    eprintln!(
        "quick-scale model sweep ({} models), one worker ...",
        models.len()
    );
    let (serial, t_serial) = time_once(|| completed(sweep(&cells, scale, 1)));
    eprintln!("quick-scale model sweep, executor ({workers} workers) ...");
    let (parallel, t_parallel) = time_once(|| completed(sweep(&cells, scale, workers)));

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.runs, p.runs, "executor must be bit-identical to serial");
    }

    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64();
    println!(
        "label={label} host_threads={workers} serial={:.3}s executor={:.3}s speedup={speedup:.2}x",
        t_serial.as_secs_f64(),
        t_parallel.as_secs_f64(),
    );

    let path = std::path::Path::new(&out);
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create results directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let header = "label,host_threads,window,warmup,serial_s,executor_s,speedup\n";
    let mut body = match std::fs::read_to_string(path) {
        Ok(existing) => existing,
        Err(_) => String::from(header),
    };
    body.push_str(&format!(
        "{},{},{},{},{:.3},{:.3},{:.2}\n",
        label,
        workers,
        scale.window,
        scale.warmup,
        t_serial.as_secs_f64(),
        t_parallel.as_secs_f64(),
        speedup
    ));
    if let Err(e) = std::fs::write(path, &body) {
        eprintln!("cannot write timing csv {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("appended to {out}");

    // Machine-readable perf-trajectory artifact, schema-validated on write
    // and after re-reading from disk (the CI gate fails on schema errors
    // only; the timing values themselves are warn-only on shared runners).
    let report = BenchReport {
        suite: "sweep_timing".to_string(),
        label,
        host_threads: workers as u64,
        git_rev: git_revision(),
        git_dirty: git_dirty(),
        measurements: vec![
            Measurement {
                name: "serial".to_string(),
                seconds: t_serial.as_secs_f64(),
            },
            Measurement {
                name: "executor".to_string(),
                seconds: t_parallel.as_secs_f64(),
            },
        ],
    };
    if let Err(e) = report.write(std::path::Path::new(&json_out)) {
        eprintln!("bench.json schema violation: {e}");
        std::process::exit(1);
    }
    println!("wrote {json_out}");
}
