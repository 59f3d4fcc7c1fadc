//! Minimal wall-clock timing harness (std-only stand-in for Criterion).
//!
//! Used by the `benches/` programs and the `sweep_timing` binary. Each
//! measurement runs one untimed warmup iteration, then `iters` timed
//! iterations, and reports the mean and minimum per-iteration wall-clock.
//!
//! [`BenchReport`] turns a set of measurements into the machine-readable
//! `results/bench.json` artifact CI tracks per PR (schema-checked by
//! [`validate_bench_json`]; timings themselves are warn-only on shared
//! runners, so only schema or determinism violations fail the gate).

use std::time::{Duration, Instant};

use heterowire_telemetry::json::{parse, JsonWriter};

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Measurement label.
    pub name: String,
    /// Timed iterations (excluding the warmup pass).
    pub iters: u32,
    /// Mean wall-clock per iteration.
    pub mean: Duration,
    /// Minimum wall-clock over all iterations.
    pub min: Duration,
}

impl Sample {
    /// Aligned one-line report.
    pub fn report(&self) -> String {
        format!(
            "{:<44} {:>4} iters  mean {:>12.3?}  min {:>12.3?}",
            self.name, self.iters, self.mean, self.min
        )
    }
}

/// Times `f` over `iters` iterations after one warmup pass.
pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Sample {
    assert!(iters > 0, "need at least one timed iteration");
    std::hint::black_box(f());
    let mut min = Duration::MAX;
    let start = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        min = min.min(t.elapsed());
    }
    let total = start.elapsed();
    Sample {
        name: name.to_string(),
        iters,
        mean: total / iters,
        min,
    }
}

/// Times a single run of `f`, returning its result and the elapsed time.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Version of the `bench.json` schema written by [`BenchReport::to_json`]
/// and required by [`validate_bench_json`].
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// One named wall-clock measurement inside a [`BenchReport`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Measurement label (e.g. `serial`, `executor`).
    pub name: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The machine-readable perf-trajectory artifact: which suite ran, where,
/// and how long each measured configuration took. Serialized to
/// `results/bench.json` so CI can track timings per PR instead of CSV-only.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Suite name (e.g. `sweep_timing`).
    pub suite: String,
    /// Free-form row label (mirrors the CSV `--label`).
    pub label: String,
    /// Worker threads the host offered the executor.
    pub host_threads: u64,
    /// Git revision the binary was run from (`unknown` outside a repo).
    pub git_rev: String,
    /// Whether tracked files differed from `git_rev` when the report was
    /// taken, so the measured tree was not that revision.
    pub git_dirty: bool,
    /// The timed configurations.
    pub measurements: Vec<Measurement>,
}

impl BenchReport {
    /// Serializes the report (schema version [`BENCH_SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("schema")
            .u64(BENCH_SCHEMA_VERSION)
            .key("suite")
            .string(&self.suite)
            .key("label")
            .string(&self.label)
            .key("host_threads")
            .u64(self.host_threads)
            .key("git_rev")
            .string(&self.git_rev)
            .key("git_dirty")
            .bool(self.git_dirty)
            .key("measurements")
            .begin_array();
        for m in &self.measurements {
            w.begin_object()
                .key("name")
                .string(&m.name)
                .key("seconds")
                .f64(m.seconds)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Writes the report to `path`, creating parent directories, and
    /// re-validates what landed on disk so a malformed artifact can never
    /// be published silently.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let json = self.to_json();
        validate_bench_json(&json)?;
        std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
        let back = std::fs::read_to_string(path)
            .map_err(|e| format!("re-read {}: {e}", path.display()))?;
        validate_bench_json(&back)
    }
}

/// Stdout of `git <args>` run in the working directory, or `None` when git
/// is missing or fails.
fn git(args: &[&str]) -> Option<Vec<u8>> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| o.stdout)
}

/// The git revision of the working tree: `GITHUB_SHA` when CI provides it,
/// otherwise `git rev-parse HEAD`, otherwise `unknown`.
pub fn git_revision() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    git(&["rev-parse", "HEAD"])
        .and_then(|out| String::from_utf8(out).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the working tree's tracked files differ from `HEAD` (`git
/// status --porcelain --untracked-files=no` prints anything). A tree git
/// cannot answer for counts as dirty.
pub fn git_dirty() -> bool {
    git(&["status", "--porcelain", "--untracked-files=no"]).is_none_or(|out| !out.is_empty())
}

/// Schema-checks a `bench.json` document: current schema version, string
/// identity fields, a boolean dirty flag, a positive thread count, and a
/// non-empty measurement
/// array of named finite non-negative timings. This is the CI perf gate's
/// failure condition — timing *values* are never judged here.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing key {k:?}"));
    let schema = field("schema")?.as_num().ok_or("schema must be a number")?;
    if schema != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema version {schema} (expected {BENCH_SCHEMA_VERSION})"
        ));
    }
    for k in ["suite", "label", "git_rev"] {
        let v = field(k)?;
        if v.as_str().is_none_or(str::is_empty) {
            return Err(format!("{k} must be a non-empty string"));
        }
    }
    if field("git_dirty")?.as_bool().is_none() {
        return Err("git_dirty must be true or false".to_string());
    }
    let threads = field("host_threads")?
        .as_num()
        .ok_or("host_threads must be a number")?;
    if threads < 1.0 {
        return Err(format!("host_threads must be >= 1, got {threads}"));
    }
    let ms = field("measurements")?
        .as_arr()
        .ok_or("measurements must be an array")?;
    if ms.is_empty() {
        return Err("measurements must not be empty".to_string());
    }
    for (i, m) in ms.iter().enumerate() {
        let name = m
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("measurement {i}: name must be a string"))?;
        if name.is_empty() {
            return Err(format!("measurement {i}: empty name"));
        }
        let secs = m
            .get("seconds")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("measurement {i} ({name}): seconds must be a number"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "measurement {i} ({name}): seconds must be finite and >= 0, got {secs}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_iterations() {
        let mut calls = 0u32;
        let s = bench("noop", 5, || calls += 1);
        assert_eq!(calls, 6, "5 timed + 1 warmup");
        assert_eq!(s.iters, 5);
        assert!(s.min <= s.mean);
    }

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 42u32);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(5));
    }

    fn report() -> BenchReport {
        BenchReport {
            suite: "sweep_timing".to_string(),
            label: "test \"quoted\"".to_string(),
            host_threads: 4,
            git_rev: "deadbeef".to_string(),
            git_dirty: true,
            measurements: vec![
                Measurement {
                    name: "serial".to_string(),
                    seconds: 3.625,
                },
                Measurement {
                    name: "executor".to_string(),
                    seconds: 1.5,
                },
            ],
        }
    }

    #[test]
    fn bench_report_round_trips_and_validates() {
        let json = report().to_json();
        validate_bench_json(&json).expect("well-formed report validates");
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("suite").unwrap().as_str(), Some("sweep_timing"));
        assert_eq!(doc.get("label").unwrap().as_str(), Some("test \"quoted\""));
        assert_eq!(doc.get("host_threads").unwrap().as_num(), Some(4.0));
        assert_eq!(doc.get("git_dirty").unwrap().as_bool(), Some(true));
        let ms = doc.get("measurements").unwrap().as_arr().unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].get("name").unwrap().as_str(), Some("serial"));
        assert_eq!(ms[0].get("seconds").unwrap().as_num(), Some(3.625));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").unwrap_err().contains("schema"));
        let mut r = report();
        r.measurements.clear();
        assert!(validate_bench_json(&r.to_json())
            .unwrap_err()
            .contains("empty"));
        let mut r = report();
        r.measurements[0].seconds = f64::NAN;
        assert!(validate_bench_json(&r.to_json()).is_err());
        let mut r = report();
        r.suite.clear();
        assert!(validate_bench_json(&r.to_json()).is_err());
        let wrong_schema = report()
            .to_json()
            .replacen("\"schema\":2", "\"schema\":9", 1);
        assert!(validate_bench_json(&wrong_schema)
            .unwrap_err()
            .contains("unsupported schema"));
        // Schema 1 predates the dirty flag.
        let v1 = report()
            .to_json()
            .replacen("\"schema\":2", "\"schema\":1", 1);
        assert!(validate_bench_json(&v1)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn validate_requires_a_boolean_dirty_flag() {
        let json = report().to_json();
        let missing = json.replacen("\"git_dirty\":true,", "", 1);
        assert_ne!(missing, json);
        assert!(validate_bench_json(&missing)
            .unwrap_err()
            .contains("git_dirty"));
        for bad in ["\"true\"", "1", "null"] {
            let wrong = json.replacen("\"git_dirty\":true", &format!("\"git_dirty\":{bad}"), 1);
            assert!(
                validate_bench_json(&wrong)
                    .unwrap_err()
                    .contains("git_dirty must be true or false"),
                "{bad}"
            );
        }
        let clean = json.replacen("\"git_dirty\":true", "\"git_dirty\":false", 1);
        validate_bench_json(&clean).expect("a clean tree validates");
    }

    #[test]
    fn git_revision_is_never_empty() {
        assert!(!git_revision().is_empty());
    }
}
