//! Spec validation through the binary: a fault aimed at a node the
//! machine does not have is an error naming the spec and the machine, for
//! every fault kind and for solo and loaded runs alike (an in-range fault
//! still runs and reports itself); specs whose clocks would overflow,
//! workloads past the query limit and checkpoints past the run's end
//! exit 1 with a message, never a panic.

use std::process::Command;

/// Runs `howsim <args> --no-cache`; returns (exit code, stdout, stderr).
fn howsim_code(args: &str) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(args.split_whitespace())
        .arg("--no-cache")
        .output()
        .expect("run howsim");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Runs `howsim <args> --no-cache`; returns (success, stdout, stderr).
fn howsim(args: &str) -> (bool, String, String) {
    let (code, stdout, stderr) = howsim_code(args);
    (code == Some(0), stdout, stderr)
}

const SOLO: &str = "--arch active --disks 2 --task select";
const LOADED: &str = "--arch active --disks 2 --load closed:1:1 --mix select";

#[test]
fn out_of_range_fault_targets_are_rejected() {
    for spec in ["disk:2@1s", "slow:7@1s:64", "link:99@1s:0.5"] {
        for base in [SOLO, LOADED] {
            let (ok, stdout, stderr) = howsim(&format!("{base} --fault {spec}"));
            assert!(!ok && stdout.is_empty(), "{spec} on `{base}` must fail");
            assert!(stderr.contains(spec), "error names the spec: {stderr}");
            assert!(stderr.contains("2-disk Active machine"), "{stderr}");
        }
    }
}

#[test]
fn in_range_fault_targets_run_and_report() {
    for spec in ["disk:1@1s", "slow:0@1s:64", "link:1@1s:0.5"] {
        for base in [SOLO, LOADED] {
            let (ok, stdout, stderr) = howsim(&format!("{base} --fault {spec}"));
            assert!(ok, "{spec} on `{base}`: {stderr}");
            assert!(stdout.contains("faults: 1 injected"), "{spec}: {stdout}");
        }
    }
}

#[test]
fn clock_overflowing_specs_are_rejected() {
    for extra in [
        "--load poisson:1e-300:3",
        "--load poisson:1e-12:3",
        "--load closed:1:3 --deadline 1e30s",
        "--deadline 18446744073709551615ns",
        "--deadline 1s:3:1e9s",
    ] {
        let (code, stdout, stderr) = howsim_code(&format!("{SOLO} {extra}"));
        assert_eq!(code, Some(1), "`{extra}` must exit 1: {stderr}");
        assert!(
            stdout.is_empty() && !stderr.contains("panicked"),
            "{stderr}"
        );
        let spec = extra.rsplit(' ').next().unwrap();
        assert!(
            stderr.contains(&format!("'{spec}'")),
            "names {spec}: {stderr}"
        );
    }
}

/// Oversized workloads are rejected while the arguments are parsed: the
/// counts below are never generated or allocated.
#[test]
fn oversized_workloads_are_rejected() {
    for (extra, message) in [
        (
            "--load closed:1:4000000000 --mix select",
            "asks for 4000000000 queries; the limit is 100000",
        ),
        (
            "--load poisson:0.5:100001 --mix select",
            "asks for 100001 queries; the limit is 100000",
        ),
        (
            "--load closed:1:2 --mix select --admission 4000000000:1",
            "'4000000000:1' exceeds the 100000-query limit",
        ),
        (
            "--load closed:1:2 --mix select --admission 2:18446744073709551615",
            "'2:18446744073709551615' exceeds the 100000-query limit",
        ),
    ] {
        let (code, stdout, stderr) = howsim_code(&format!("--arch active --disks 2 {extra}"));
        assert_eq!(code, Some(1), "`{extra}` must exit 1: {stderr}");
        assert!(
            stdout.is_empty() && !stderr.contains("panicked"),
            "{stderr}"
        );
        assert!(
            stderr.contains(message),
            "`{extra}` names the limit: {stderr}"
        );
    }
}

#[test]
fn checkpoint_past_the_end_of_the_run_is_rejected() {
    let path = std::env::temp_dir().join(format!("howsim-cli-late-{}.ckpt", std::process::id()));
    let (code, stdout, stderr) = howsim_code(&format!(
        "checkpoint --arch active --disks 4 --task select --at 100000s --out {}",
        path.display()
    ));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stdout.is_empty() && !stderr.contains("panicked"),
        "{stderr}"
    );
    assert!(
        stderr.contains("finishes at 283.606 s"),
        "names the run's end: {stderr}"
    );
    assert!(!path.exists(), "no checkpoint file is written");
}
