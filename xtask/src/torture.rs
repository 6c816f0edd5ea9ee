//! End-to-end checkpoint torture (`cargo xtask torture [--smoke]`).
//!
//! Drives the *release binary* — argument parsing, the real signal
//! handler, real exit codes — through the deterministic fault-injection
//! harness (`--fault-spec`, DESIGN.md §17) and asserts the robustness
//! contract from the outside:
//!
//! 1. **Write-fault grid** — every injectable fault kind at each early
//!    store-operation index must leave the run's *stdout report
//!    byte-identical* to an undisturbed reference (exit 0): hostile
//!    checkpoint I/O may cost durability, never correctness.
//! 2. **Sticky persistent failure** — a store that never recovers
//!    degrades the run (typed stderr warning, no snapshot file) but the
//!    report still matches the reference.
//! 3. **Fail-fast mode** — `--checkpoint-required` turns the same
//!    failure into a prompt exit 4.
//! 4. **Torn snapshot refusal** — a corrupted on-disk checkpoint makes
//!    `--resume` exit 4 instead of resuming into wrong statistics.
//! 5. **Double-SIGINT escape** — two interrupts during a fault-stalled
//!    checkpoint write must exit 5 promptly (watchdog-enforced), never
//!    deadlock behind the stalled I/O.
//! 6. **Stale-fingerprint refusal** — leg 4's healthy snapshot with its
//!    payload fingerprint overwritten and its checksum recomputed (a
//!    well-formed file from another run, as a build with another sampler
//!    version writes it) makes `--resume` exit 4 with the typed config
//!    mismatch, whose message lists the sampler version among the
//!    causes, instead of mixing two samplers' draws in one estimate.
//!
//! `--smoke` runs a reduced grid for CI; the full grid is for local
//! soak runs. Every leg is deterministic — same seed, same fault plan,
//! same expectations on every machine.

use crate::smoke::{build_cli, interrupt};
use crate::Finding;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The simulate arguments shared by the reference and every fault leg:
/// one scheduler batch (400 groups clamps to a single claim window), a
/// few hundred milliseconds of work.
const BASE_ARGS: [&str; 7] = [
    "simulate",
    "--groups",
    "400",
    "--seed",
    "11",
    "--mission-years",
    "2",
];

/// Arguments for the stall leg: long enough (~1.5 s of simulation) that
/// the first cadence-due checkpoint write — and its injected stall —
/// happens while plenty of work remains.
const STALL_ARGS: [&str; 7] = [
    "simulate",
    "--groups",
    "200000",
    "--seed",
    "7",
    "--mission-years",
    "10",
];

/// How long the injected stall parks the checkpoint write (the process
/// must escape via double-SIGINT long before this elapses).
const STALL_SPEC: &str = "0:stall30000";

/// Watchdog budget for the double-SIGINT leg: a healthy handler
/// `_exit`s within milliseconds of the second signal; a deadlocked one
/// would sit in the stalled write for the full 30 s.
const ESCAPE_BUDGET: Duration = Duration::from_secs(8);

fn finding(message: String) -> Finding {
    Finding {
        check: "torture",
        path: "crates/cli".into(),
        line: 0,
        message,
    }
}

/// Runs the full torture suite; `smoke` trims the write-fault grid to
/// the CI-sized subset.
pub fn check(root: &Path, smoke: bool) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let bin = match build_cli(root)? {
        Ok(bin) => bin,
        Err(message) => {
            findings.push(finding(message));
            return Ok(findings);
        }
    };

    // The undisturbed reference report every fault leg must reproduce.
    let reference = Command::new(&bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if !reference.status.success() {
        findings.push(finding(format!(
            "reference run failed ({}): {}",
            reference.status,
            String::from_utf8_lossy(&reference.stderr).trim()
        )));
        return Ok(findings);
    }
    let reference_out = String::from_utf8_lossy(&reference.stdout).into_owned();

    let ckpt = std::env::temp_dir().join("raidsim-torture.ckpt");
    let ckpt_str = ckpt.to_string_lossy().into_owned();

    write_fault_grid(root, &bin, &reference_out, &ckpt, smoke, &mut findings)?;
    sticky_degradation(root, &bin, &reference_out, &ckpt, &mut findings)?;
    required_fails_fast(root, &bin, &ckpt_str, &mut findings)?;
    let healthy = corrupt_resume_refused(root, &bin, &ckpt, &mut findings)?;
    double_sigint_escapes_stall(root, &bin, &mut findings)?;
    if let Some(healthy) = healthy {
        stale_fingerprint_refused(root, &bin, &ckpt, healthy, &mut findings)?;
    }

    let _ = std::fs::remove_file(&ckpt);
    Ok(findings)
}

/// Leg 1: `(kind, op)` grid of one-shot write faults. Transients are
/// retried, persistents degrade — either way exit 0 and a
/// byte-identical report.
fn write_fault_grid(
    root: &Path,
    bin: &Path,
    reference_out: &str,
    ckpt: &Path,
    smoke: bool,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let kinds: &[&str] = if smoke {
        &["enospc", "eintr", "torn"]
    } else {
        &[
            "enospc", "eintr", "partial", "fsync", "torn", "corrupt", "stall5",
        ]
    };
    let ops = if smoke { 0..2u64 } else { 0..3u64 };
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    for kind in kinds {
        for op in ops.clone() {
            let spec = format!("{op}:{kind}");
            let _ = std::fs::remove_file(ckpt);
            let output = Command::new(bin)
                .current_dir(root)
                .args(BASE_ARGS)
                .args([
                    "--checkpoint",
                    &ckpt_str,
                    "--checkpoint-every",
                    "100",
                    "--fault-spec",
                    &spec,
                ])
                .output()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
            if !output.status.success() {
                findings.push(finding(format!(
                    "fault {spec}: run failed ({}): {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                )));
                continue;
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            if stdout != reference_out {
                findings.push(finding(format!(
                    "fault {spec}: report differs from the undisturbed reference.\n\
                     --- reference ---\n{reference_out}\n--- faulted ---\n{stdout}"
                )));
            }
        }
    }
    Ok(())
}

/// Leg 2: a store that *never* recovers. The run must finish with the
/// reference report, warn that checkpointing degraded, and leave no
/// snapshot behind.
fn sticky_degradation(
    root: &Path,
    bin: &Path,
    reference_out: &str,
    ckpt: &Path,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let _ = std::fs::remove_file(ckpt);
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let output = Command::new(bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .args([
            "--checkpoint",
            &ckpt_str,
            "--checkpoint-every",
            "100",
            "--fault-spec",
            "0+:enospc",
        ])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if !output.status.success() {
        findings.push(finding(format!(
            "sticky enospc: degraded run must still exit 0, got {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
        return Ok(());
    }
    if String::from_utf8_lossy(&output.stdout) != reference_out {
        findings.push(finding(
            "sticky enospc: degraded run's report differs from the reference".into(),
        ));
    }
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !stderr.contains("degraded") {
        findings.push(finding(format!(
            "sticky enospc: expected a degradation warning on stderr, got:\n{}",
            stderr.trim()
        )));
    }
    if ckpt.is_file() {
        findings.push(finding(
            "sticky enospc: a snapshot file appeared although every write failed".into(),
        ));
    }
    Ok(())
}

/// Leg 3: the same persistent failure under `--checkpoint-required`
/// must abort with the checkpoint exit code (4).
fn required_fails_fast(
    root: &Path,
    bin: &Path,
    ckpt_str: &str,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let output = Command::new(bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .args([
            "--checkpoint",
            ckpt_str,
            "--checkpoint-every",
            "100",
            "--checkpoint-required",
            "--fault-spec",
            "0+:enospc",
        ])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if output.status.code() != Some(4) {
        findings.push(finding(format!(
            "required + sticky enospc: expected exit 4, got {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    Ok(())
}

/// Leg 4: corrupt the snapshot on disk, then `--resume`. The checksum
/// must refuse it (exit 4) — never resume into wrong statistics.
/// Returns the healthy snapshot's bytes for leg 6.
fn corrupt_resume_refused(
    root: &Path,
    bin: &Path,
    ckpt: &Path,
    findings: &mut Vec<Finding>,
) -> Result<Option<Vec<u8>>, String> {
    let _ = std::fs::remove_file(ckpt);
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let healthy = Command::new(bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .args(["--checkpoint", &ckpt_str])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if !healthy.status.success() {
        findings.push(finding(format!(
            "checkpointed run for the corruption leg failed ({})",
            healthy.status
        )));
        return Ok(None);
    }
    let healthy = match std::fs::read(ckpt) {
        Ok(bytes) if !bytes.is_empty() => bytes,
        Ok(_) => {
            findings.push(finding("corruption leg: snapshot file is empty".into()));
            return Ok(None);
        }
        Err(e) => {
            findings.push(finding(format!(
                "corruption leg: cannot read the snapshot: {e}"
            )));
            return Ok(None);
        }
    };
    let mut bytes = healthy.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(ckpt, &bytes).map_err(|e| format!("cannot corrupt the snapshot: {e}"))?;
    let resumed = Command::new(bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .args(["--checkpoint", &ckpt_str, "--resume"])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    if resumed.status.code() != Some(4) {
        findings.push(finding(format!(
            "resume from a corrupted snapshot: expected exit 4, got {:?}: {}",
            resumed.status.code(),
            String::from_utf8_lossy(&resumed.stderr).trim()
        )));
    }
    Ok(Some(healthy))
}

/// Leg 5: the first checkpoint write stalls for 30 s (injected). Two
/// SIGINTs must force a prompt exit 5 via the async-signal-safe escape
/// hatch — the stalled write must not be able to hold the process
/// hostage. A watchdog hard-kills and reports if the escape fails.
fn double_sigint_escapes_stall(
    root: &Path,
    bin: &Path,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let ckpt = std::env::temp_dir().join("raidsim-torture-stall.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let mut child = Command::new(bin)
        .current_dir(root)
        .args(STALL_ARGS)
        .args([
            "--checkpoint",
            &ckpt_str,
            "--checkpoint-every",
            "500",
            "--fault-spec",
            STALL_SPEC,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;

    // Let the run reach the first cadence-due write and park in the
    // injected stall, then interrupt twice.
    std::thread::sleep(Duration::from_millis(1200));
    interrupt(&mut child);
    std::thread::sleep(Duration::from_millis(200));
    interrupt(&mut child);

    match wait_with_deadline(&mut child, ESCAPE_BUDGET)? {
        Some(status) => {
            // 5 is the interruption exit. 0 is tolerated only for the
            // race where the whole run finished before the first
            // signal landed (it cannot: the stall is 30 s — but a
            // non-deterministic CI box gets the benefit of the doubt
            // rather than a flake).
            if !matches!(status.code(), Some(5) | Some(0)) {
                findings.push(finding(format!(
                    "double SIGINT during a stalled checkpoint write: expected a prompt \
                     exit 5, got {:?}",
                    status.code()
                )));
            }
        }
        None => {
            let _ = child.kill();
            let _ = child.wait();
            findings.push(finding(format!(
                "double SIGINT during a stalled checkpoint write: process still alive \
                 after {ESCAPE_BUDGET:?} — the escape hatch deadlocked behind the stall"
            )));
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    Ok(())
}

/// Leg 6: leg 4's healthy snapshot with another run fingerprint in
/// payload bytes 20..28 and the FNV-1a trailer recomputed, so the file
/// parses cleanly and only the fingerprint differs — what a snapshot
/// from a build with another sampler version looks like. `--resume`
/// must exit 4 with the config mismatch, whose message lists the
/// sampler version among the causes.
fn stale_fingerprint_refused(
    root: &Path,
    bin: &Path,
    ckpt: &Path,
    mut bytes: Vec<u8>,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    if bytes.len() < 36 {
        findings.push(finding(format!(
            "stale-fingerprint leg: the snapshot is {} byte(s), too short to rewrite",
            bytes.len()
        )));
        return Ok(());
    }
    let mut fingerprint = [0u8; 8];
    fingerprint.copy_from_slice(&bytes[20..28]);
    let stale = !u64::from_le_bytes(fingerprint);
    bytes[20..28].copy_from_slice(&stale.to_le_bytes());
    let n = bytes.len();
    let sum = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(ckpt, &bytes).map_err(|e| format!("cannot rewrite the snapshot: {e}"))?;
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let resumed = Command::new(bin)
        .current_dir(root)
        .args(BASE_ARGS)
        .args(["--checkpoint", &ckpt_str, "--resume"])
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    if resumed.status.code() != Some(4) || !stderr.contains("sampler version") {
        findings.push(finding(format!(
            "resume from a stale-fingerprint snapshot: expected exit 4 naming the \
             sampler version, got {:?}: {}",
            resumed.status.code(),
            stderr.trim()
        )));
    }
    Ok(())
}

/// FNV-1a 64, the checkpoint trailer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Polls the child until it exits or `budget` elapses (`Ok(None)`).
fn wait_with_deadline(
    child: &mut Child,
    budget: Duration,
) -> Result<Option<std::process::ExitStatus>, String> {
    let deadline = Instant::now() + budget;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status)),
            Ok(None) if Instant::now() >= deadline => return Ok(None),
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("waiting for the stalled child: {e}")),
        }
    }
}
