//! The topology spec layer's contract with the presets and the command
//! line: a `TopologySpec`-built topology simulates bit-identically to the
//! enum-built preset it mirrors, spec files resolve through the shared
//! bench token parser, and malformed `--topology` tokens terminate every
//! harness binary with exit status 2 and a pointed message.

use std::process::Command;

use heterowire_bench::{parse_topology_token, SEED};
use heterowire_core::{ModelSpec, Processor, ProcessorConfig};
use heterowire_interconnect::{Topology, TopologyPreset, TopologySpec};
use heterowire_trace::{by_name, TraceGenerator};

/// Every topology preset is exactly its spec string: same topology, same
/// routes, and the spec string round-trips through the parser.
#[test]
fn every_preset_round_trips_through_its_spec_string() {
    for preset in TopologyPreset::ALL {
        let by_name = TopologySpec::parse(preset.name()).unwrap();
        assert_eq!(by_name.preset(), Some(preset));
        assert_eq!(by_name.topology(), preset.topology());

        // The equivalent compact spec builds the identical topology but
        // keeps its spec spelling (mirroring ModelSpec custom-vs-preset).
        let by_spec = TopologySpec::parse(preset.spec_str()).unwrap();
        assert_eq!(by_spec.preset(), None);
        assert_eq!(by_spec.topology(), preset.topology());
        assert_eq!(by_spec.name(), preset.spec_str());
    }
}

/// A processor built on the spec-generated topology must produce the
/// exact same `SimResults` as one built on the enum preset — this is what
/// lets Table 3/4 rows be reproduced with `--topology xbar:4` /
/// `--topology ring:4x4`.
#[test]
fn spec_built_topologies_simulate_bit_identically_to_enum_built() {
    let window = 3_000;
    let warmup = 500;
    let model = ModelSpec::parse("X").unwrap();
    for (spec_str, enum_built) in [
        ("xbar:4", Topology::crossbar4()),
        ("ring:4x4", Topology::hier16()),
    ] {
        let spec = TopologySpec::parse(spec_str).unwrap();
        assert_eq!(spec.topology(), enum_built, "{spec_str}");

        let from_spec = ProcessorConfig::for_model_spec(&model, spec.topology());
        let from_enum = ProcessorConfig::for_model_spec(&model, enum_built);
        let bench = by_name("gcc").unwrap();
        let a = Processor::new(from_spec, TraceGenerator::new(bench, SEED)).run(window, warmup);
        let b = Processor::new(from_enum, TraceGenerator::new(bench, SEED)).run(window, warmup);
        assert_eq!(a, b, "{spec_str} diverged from the enum-built topology");
    }
}

/// The bench-layer token parser resolves spec files written to disk the
/// same way it resolves the equivalent compact spec.
#[test]
fn topology_spec_files_resolve_like_compact_specs() {
    let dir = std::env::temp_dir().join(format!("hw-topo-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("asym.topo");
    std::fs::write(
        &path,
        "# an asymmetric ring for the generated-topology tests\n\
         shape    = ring\n\
         quads    = 5\n\
         per_quad = 3\n\
         hop_len  = 3\n",
    )
    .unwrap();
    let from_file = parse_topology_token(path.to_str().unwrap()).unwrap();
    let from_compact = parse_topology_token("ring:5x3@hop3").unwrap();
    assert_eq!(from_file, from_compact);
    assert_eq!(from_file.topology().clusters(), 15);
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed `--topology` tokens exit with status 2 and a message that
/// names the problem, matching the `--model` CLI convention.
#[test]
fn malformed_topology_tokens_exit_2_with_pointed_messages() {
    let cases: [(&str, &str); 7] = [
        ("mesh:4", "unknown shape"),
        ("ring:2x4", "at least 3 quads"),
        ("ring:4x0", "clusters per quad must be a positive integer"),
        ("ring:4x4@hop2@hop3", "duplicate @hop"),
        ("ring:20x1", "at most 16 quads"),
        // The oversized-topology refusal comes from the one shared
        // capacity checker and names both the offending cluster count and
        // the simulator-wide cap.
        ("xbar:65", "65 clusters"),
        ("ring:13x5", "at most 64"),
    ];
    for (token, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_policy_ab"))
            .args(["--topology", token])
            .env("HETEROWIRE_SCALE", "quick")
            .output()
            .expect("policy_ab runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{token}: expected exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{token}: stderr lacks {needle:?}:\n{stderr}"
        );
        // The failing token itself is echoed so the user can see which
        // flag was wrong.
        assert!(
            stderr.contains(token),
            "{token}: token not echoed:\n{stderr}"
        );
    }
}

/// A segment length past `MAX_SEGMENT_LEN` exits 2 naming the token. Unbounded,
/// `@hop4000000000` sized the delivery wheel to 824 GB and aborted the
/// process, and `@hop100000` made every route outlast the stall watchdog.
#[test]
fn overlong_segment_lengths_exit_2_without_panicking() {
    for (token, bad) in [
        ("ring:4x4@hop4000000000", "hop4000000000"),
        ("xbar:4@xbar4000000000", "xbar4000000000"),
        ("ring:4x4@hop100000", "hop100000"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_policy_ab"))
            .args(["--topology", token, "--model", "X"])
            .env("HETEROWIRE_SCALE", "quick")
            .output()
            .expect("policy_ab runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{token}: {stderr}");
        assert!(
            stderr.contains(bad) && stderr.contains("1 to 64"),
            "{token}: stderr must name the token and the bound:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{token}: {stderr}");
    }
}

/// A `--topology` flag with no value is also a loud exit-2 error.
#[test]
fn dangling_topology_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_policy_ab"))
        .arg("--topology")
        .output()
        .expect("policy_ab runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--topology requires a value"), "{stderr}");
}
