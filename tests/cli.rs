//! Command-line robustness: bad configuration, traffic and fault flags
//! must end in a usage error (exit code 2 and an `error:` line on stderr)
//! instead of a panic or a run that never returns.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Kill timer per invocation: a flag that sends the driver into an endless
/// loop fails the test instead of hanging the suite.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Runs `bin args` under [`TIMEOUT`]; asserts exit code 2 and an `error:`
/// line on stderr.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    let start = Instant::now();
    while child.try_wait().expect("poll the child").is_none() {
        if start.elapsed() > TIMEOUT {
            child.kill().ok();
            child.wait().ok();
            panic!("{bin} {args:?} did not exit within {TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect the child");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "{args:?} must print an `error:` line; stderr:\n{stderr}"
    );
}

#[test]
fn fftx_rejects_bad_config_flags() {
    let bin = env!("CARGO_BIN_EXE_fftx");
    for args in [
        &["--nr", "0"][..],
        &["--ntg", "0"],
        &["--nbnd", "0"],
        &["--nbnd", "3", "--ntg", "2"],
        &["--ecutwfc", "nan"],
        &["--ecutwfc", "inf"],
        &["--alat", "-1"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn fftx_serve_rejects_bad_traffic_flags() {
    let bin = env!("CARGO_BIN_EXE_fftx-serve");
    for args in [
        &["--rate", "inf"][..],
        &["--rate", "0"],
        &["--rate", "-5"],
        &["--rate", "1e308", "--profile", "burst"],
        &["--duration", "nan"],
        &["--tenants", "0"],
        &["--queue-cap", "0"],
    ] {
        assert_usage_error(bin, args);
    }
}

#[test]
fn fftx_serve_rejects_bad_fault_flags() {
    let bin = env!("CARGO_BIN_EXE_fftx-serve");
    for args in [
        &["--fleet", "2", "--p-death", "2"][..],
        &["--fleet", "2", "--p-slow", "-0.1"],
        &["--fleet", "2", "--p-partition", "nan"],
        &["--fleet", "2", "--slow-max", "nan"],
        &["--fleet", "2", "--slow-max", "0.5"],
    ] {
        assert_usage_error(bin, args);
    }
}
