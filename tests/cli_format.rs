//! Integration tests for the file-based release workflow used by the CLI:
//! dataset generation → text serialisation → re-loading → private synthesis →
//! serialisation of the publishable output, plus the categorical-attribute
//! encoding path of Section 7, the binary's behaviour when its reader goes
//! away (`agmdp stats g.agb | head -1`), the exact stdout of `agmdp
//! stats` and `agmdp synthesize`, the secret seed of `agmdp synthesize`
//! without `--seed`, and `agmdp lint` on a root with no sources.

use agmdp::graph::categorical::{CategoricalAttribute, CategoricalEncoder};
use agmdp::graph::io;
use agmdp::prelude::*;
use rand::SeedableRng;

#[test]
fn file_based_release_workflow_roundtrips() {
    let dir = std::env::temp_dir().join("agmdp_cli_format_test");
    std::fs::create_dir_all(&dir).unwrap();
    let input_path = dir.join("input.graph");
    let output_path = dir.join("private.graph");

    // Generate a small dataset and write it out as the CLI would.
    let spec = DatasetSpec::petster().scaled(0.1);
    let input = generate_dataset(&spec, 5).unwrap();
    io::write_file(&input, &input_path).unwrap();

    // Reload and run the private synthesis on the reloaded copy.
    let reloaded = io::read_file(&input_path).unwrap();
    assert_eq!(reloaded, input);
    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 1.0 },
        ..AgmConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let synthetic = synthesize(&reloaded, &config, &mut rng).unwrap();
    io::write_file(&synthetic, &output_path).unwrap();

    // The published file parses back to exactly the synthetic graph.
    let published = io::read_file(&output_path).unwrap();
    assert_eq!(published, synthetic);
    assert_eq!(published.num_nodes(), input.num_nodes());
    assert_eq!(published.schema(), input.schema());

    std::fs::remove_file(&input_path).ok();
    std::fs::remove_file(&output_path).ok();
}

#[test]
fn categorical_encoding_survives_synthesis_and_io() {
    let encoder = CategoricalEncoder::new(vec![
        CategoricalAttribute::new("status", &["a", "b", "c"]).unwrap(),
        CategoricalAttribute::new("bracket", &["low", "high"]).unwrap(),
    ])
    .unwrap();
    let mut graph = AttributedGraph::new(60, encoder.schema());
    for v in 0..60u32 {
        let status = ["a", "b", "c"][(v % 3) as usize];
        let bracket = if v < 30 { "low" } else { "high" };
        graph
            .set_attribute_code(v, encoder.encode_labels(&[status, bracket]).unwrap())
            .unwrap();
    }
    for v in 0..60u32 {
        let _ = graph.try_add_edge(v, (v + 1) % 60).unwrap();
        let _ = graph.try_add_edge(v, (v + 2) % 60).unwrap();
        let _ = graph.try_add_edge(v, (v + 7) % 60).unwrap();
    }

    let config = AgmConfig {
        privacy: Privacy::Dp { epsilon: 2.0 },
        ..AgmConfig::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let synthetic = synthesize(&graph, &config, &mut rng).unwrap();

    // Every synthetic attribute code decodes without panicking and the text
    // format preserves the codes bit-for-bit.
    let text = io::to_text(&synthetic);
    let parsed = io::from_text(&text).unwrap();
    assert_eq!(parsed.attribute_codes(), synthetic.attribute_codes());
    for v in parsed.nodes() {
        let labels = encoder.decode(parsed.attribute_code(v));
        assert_eq!(labels.len(), 2);
        assert!(["a", "b", "c"].contains(&labels[0]));
        assert!(["low", "high"].contains(&labels[1]));
    }
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::process::{Command, Stdio};
    let bin = env!("CARGO_BIN_EXE_agmdp");
    let dir = std::env::temp_dir().join(format!("agmdp_cli_pipe_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.graph");
    io::write_file(&agmdp::datasets::toy_social_graph(), &path).unwrap();

    // A pipe whose reader is already gone: the reader is a process that never
    // reads its stdin and has exited, so the first write to the pipe fails
    // with EPIPE — every time, not only when the test wins a race.
    let mut reader = Command::new(bin)
        .arg("help")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let closed = reader.stdin.take().unwrap();
    assert!(reader.wait().unwrap().success());

    let run = Command::new(bin)
        .arg("stats")
        .arg(&path)
        .stdout(Stdio::from(closed))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(run.status.code(), Some(101), "stderr: {stderr}");
    assert!(run.status.success(), "{:?}, stderr: {stderr}", run.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_synthesize_stdout_match_the_goldens() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_agmdp");
    let dir = std::env::temp_dir().join(format!("agmdp_cli_golden_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Relative paths: the synthesize header echoes them.
    let run = |args: &str| {
        let out = Command::new(bin)
            .args(args.split(' '))
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "agmdp {args}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let golden = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(path).unwrap()
    };
    run("generate-dataset --name lastfm --scale 0.1 --seed 2016 --output g.graph");
    assert_eq!(run("stats g.graph"), golden("cli_stats.txt"));
    for model in ["fcl", "tricycle"] {
        let stdout = run(&format!(
            "synthesize --input g.graph --output {model}.graph --epsilon 1 --seed 5 --model {model}"
        ));
        assert_eq!(stdout, golden(&format!("cli_synthesize_{model}.txt")));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--seed` the fit RNG is secret, so nobody can replay a release
/// from its command line: two runs on one input write different graphs.
/// With `--seed` the run is a reproducible experiment, and stderr says the
/// seed must then stay secret.
#[test]
fn synthesize_replays_only_with_a_seed() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_agmdp");
    let dir = std::env::temp_dir().join(format!("agmdp_cli_seed_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &str| {
        let out = Command::new(bin)
            .args(args.split(' '))
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "agmdp {args}: {stderr}");
        stderr
    };
    let release = |name: &str| std::fs::read(dir.join(name)).unwrap();
    run("generate-dataset --name lastfm --scale 0.1 --output g.graph");
    for name in ["a", "b"] {
        let stderr = run(&format!(
            "synthesize --input g.graph --output {name}.graph --epsilon 1"
        ));
        assert!(
            stderr.is_empty(),
            "a secret seed is never printed: {stderr}"
        );
    }
    assert_ne!(release("a.graph"), release("b.graph"));
    for name in ["c", "d"] {
        let stderr = run(&format!(
            "synthesize --input g.graph --output {name}.graph --epsilon 1 --seed 5"
        ));
        assert!(stderr.contains("kept secret"), "{stderr}");
    }
    assert_eq!(release("c.graph"), release("d.graph"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_refuses_a_root_with_no_sources() {
    let dir = std::env::temp_dir().join(format!("agmdp_cli_lint_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_agmdp"))
        .args(["lint", "--root", &dir.display().to_string()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&*dir.display().to_string()), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused root prints no report");
    std::fs::remove_dir_all(&dir).ok();
}
