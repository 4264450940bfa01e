//! Bad input through the real binary: a missing or malformed trace file
//! is a one-line `error:` and exit code 1 under either arrival pipeline,
//! never a panic; `--help` prints the usage text and succeeds.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_risa-cli");

fn cli(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args)
        .env_remove("RISA_FEL")
        .env_remove("RISA_ARRIVALS")
        .env_remove("RISA_EXEC")
        .env_remove("RISA_FAULTS")
        .env_remove("RISA_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn risa-cli")
}

/// Exit 1 with exactly one stderr line, `error: …` naming `path`.
fn assert_typed_failure(out: &Output, path: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what}: panicked:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{what}: expected one line:\n{stderr}");
    assert!(lines[0].starts_with("error: "), "{what}: {stderr}");
    assert!(lines[0].contains(path), "{what}: path not named: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: no report on failure");
}

#[test]
fn bad_trace_files_fail_with_one_error_line_in_both_arrival_modes() {
    let dir = std::env::temp_dir().join(format!("risa-cli-input-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad-header.csv");
    std::fs::write(&bad, "vm,cores\n0,1\n").unwrap();
    let bad = bad.to_string_lossy().to_string();
    let missing = dir.join("missing.csv").to_string_lossy().to_string();
    // Ids 0,5: the simulator addresses VMs by row rank, so a gap is
    // invalid input, not an index past the end of the trace.
    let sparse = dir.join("sparse-ids.csv");
    std::fs::write(
        &sparse,
        "id,cpu_cores,ram_gb,storage_gb,arrival,lifetime\n0,1,2,128,1.0,10.0\n5,1,2,128,2.0,10.0\n",
    )
    .unwrap();
    let sparse = sparse.to_string_lossy().to_string();

    for mode in ["materialized", "streaming"] {
        let env = [("RISA_ARRIVALS", mode)];
        let out = cli(&["run", "--workload", &bad], &env);
        assert_typed_failure(&out, &bad, &format!("bad header, {mode}"));
        assert!(String::from_utf8_lossy(&out.stderr).contains("bad CSV header"));

        let out = cli(&["run", "--workload", &missing], &env);
        assert_typed_failure(&out, &missing, &format!("missing file, {mode}"));

        let out = cli(&["run", "--workload", &sparse], &env);
        assert_typed_failure(&out, &sparse, &format!("sparse ids, {mode}"));
        assert!(String::from_utf8_lossy(&out.stderr).contains("expected 1, found 5"));
    }
    // `generate` reads the same spec and fails the same way.
    let out = cli(&["generate", "--workload", &bad], &[]);
    assert_typed_failure(&out, &bad, "generate, bad header");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["--help"][..], &["-h"], &["run", "--help"]] {
        let out = cli(args, &[]);
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: risa-cli"), "{args:?}: {stdout}");
        assert!(
            out.stderr.is_empty(),
            "{args:?}: help writes to stdout only"
        );
    }
}
