//! `howsim --fault` target validation through the binary: a fault aimed
//! at a node the machine does not have is an error naming the spec and
//! the machine, for every fault kind and for solo and loaded runs alike;
//! an in-range fault still runs and reports itself.

use std::process::Command;

/// Runs `howsim <args> --no-cache`; returns (success, stdout, stderr).
fn howsim(args: &str) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_howsim"))
        .args(args.split_whitespace())
        .arg("--no-cache")
        .output()
        .expect("run howsim");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.success(), text(out.stdout), text(out.stderr))
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
