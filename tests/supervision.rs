//! Supervision suite: deadlines, cooperative cancellation, and
//! checkpoint/resume, exercised end to end.
//!
//! Three claims are pinned here:
//!
//! 1. **Deterministic interruption** — a seeded [`CancelToken`] stops a
//!    sequential check mid-run at exactly the same point every time; the
//!    partial report is fully classified (no verdict lost, only
//!    downgraded to interrupted) and reproducible byte for byte.
//! 2. **Graceful degradation** — an already-expired deadline degrades the
//!    whole CLI report to UNDETERMINED with exit 0, identically at any
//!    `--jobs`.
//! 3. **Checkpoint resume** — a run killed between phases leaves a
//!    checkpoint from which a later `adt check --checkpoint` produces a
//!    report byte-identical to an uninterrupted run, at `--jobs 1` and
//!    `--jobs 4`.

use std::fs;
use std::path::PathBuf;

use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, ConsistencyVerdict,
    ProbeConfig,
};
use adt_cli::checkpoint::Checkpoint;
use adt_core::{CancelToken, Supervisor};
use adt_structures::sources;

fn temp_path(name: &str, suffix: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "adt_supervision_{}_{name}{suffix}",
        std::process::id()
    ));
    path
}

fn temp_spec(name: &str, contents: &str) -> PathBuf {
    let path = temp_path(name, ".adt");
    fs::write(&path, contents).expect("temp file is writable");
    path
}

fn cli(args: &[&str]) -> adt_cli::Outcome {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    adt_cli::run(&owned)
}

fn cancelled_after(polls: u64) -> CheckConfig {
    CheckConfig::jobs(1)
        .with_supervisor(Supervisor::none().with_cancel(CancelToken::after_polls(polls)))
}

#[test]
fn seeded_cancellation_stops_consistency_at_the_same_point_every_time() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let probe = ProbeConfig::default();
    let mut summaries = Vec::new();
    for _ in 0..2 {
        let report = check_consistency_with_config(&spec, &probe, &cancelled_after(5));
        assert_eq!(
            report.verdict(),
            &ConsistencyVerdict::Interrupted,
            "{}",
            report.summary()
        );
        assert!(report.interrupted_items() > 0);
        // The report is partial, never truncated: every scheduled item
        // still carries a verdict string (some of them "interrupted").
        assert!(report
            .pair_verdicts()
            .iter()
            .chain(report.probe_verdicts())
            .all(|v| !v.is_empty()));
        assert!(
            report.summary().contains("interrupted:"),
            "{}",
            report.summary()
        );
        summaries.push(report.summary());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "a seeded cancellation must reproduce the identical partial report"
    );
}

#[test]
fn seeded_cancellation_downgrades_completeness_without_failing_it() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let report = check_completeness_with_config(&spec, &cancelled_after(2));
    assert!(report.interrupted_ops() > 0, "{}", report.prompts());
    // Interruption is never evidence of incompleteness: the undetermined
    // operations are prompted about, not counted as missing cases.
    assert!(!report.has_definite_missing());
    assert!(!report.undetermined_ops().is_empty());
    assert!(
        report
            .prompts()
            .contains("analysis interrupted (cancelled)"),
        "{}",
        report.prompts()
    );
}

#[test]
fn immediate_cancellation_interrupts_everything_deterministically() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let probe = ProbeConfig::default();
    // A token cancelled before the run starts is observed by the very
    // first poll of every worker, so even parallel runs are identical.
    let mut summaries = Vec::new();
    for jobs in [1, 4] {
        let token = CancelToken::new();
        token.cancel();
        let cfg = CheckConfig::jobs(jobs).with_supervisor(Supervisor::none().with_cancel(token));
        let report = check_consistency_with_config(&spec, &probe, &cfg);
        assert_eq!(report.verdict(), &ConsistencyVerdict::Interrupted);
        summaries.push(report.summary());
    }
    assert_eq!(summaries[0], summaries[1]);
}

#[test]
fn expired_deadline_degrades_the_cli_identically_at_any_job_count() {
    let path = temp_spec("deadline", sources::QUEUE);
    let mut outcomes = Vec::new();
    for jobs in ["1", "4"] {
        let out = cli(&[
            "check",
            "--jobs",
            jobs,
            "--deadline",
            "0ms",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
        assert!(
            out.output.contains("consistent: UNDETERMINED"),
            "jobs {jobs}: {}",
            out.output
        );
        outcomes.push(out);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    let _ = fs::remove_file(path);
}

#[test]
fn killed_run_resumes_from_checkpoint_byte_identical() {
    let path = temp_spec("resume", sources::QUEUE);
    let ck = temp_path("resume", ".json");
    let _ = fs::remove_file(&ck);

    let uninterrupted = cli(&["check", path.to_str().unwrap()]);
    assert_eq!(uninterrupted.code, 0, "{}", uninterrupted.output);

    // Populate the checkpoint with a full run, then simulate a run killed
    // after the completeness phase by dropping the consistency entry.
    let populated = cli(&[
        "check",
        "--checkpoint",
        ck.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(populated, uninterrupted);
    let full = Checkpoint::load(&ck).expect("checkpoint written");
    assert!(full.phase("completeness").is_some());
    assert!(full.phase("consistency").is_some());
    let mut killed = full.clone();
    killed.phases.retain(|p| p.name == "completeness");

    for jobs in ["1", "4"] {
        killed.save(&ck).expect("checkpoint is writable");
        let resumed = cli(&[
            "check",
            "--jobs",
            jobs,
            "--checkpoint",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            resumed, uninterrupted,
            "jobs {jobs}: resume must reproduce the uninterrupted report"
        );
        // The resumed run completes the checkpoint again.
        let after = Checkpoint::load(&ck).expect("checkpoint rewritten");
        assert!(after.phase("consistency").is_some(), "jobs {jobs}");
    }

    let _ = fs::remove_file(path);
    let _ = fs::remove_file(ck);
}

#[test]
fn batch_supervises_a_directory_of_specs() {
    let dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("adt_supervision_{}_batch", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("temp dir is writable");
        d
    };
    fs::write(dir.join("queue.adt"), sources::QUEUE).expect("spec is writable");
    fs::write(
        dir.join("loop.adt"),
        "type L\nops\n  C: -> L ctor\n  F: L -> L\nvars\n  x: L\naxioms\n  [1] F(x) = F(x)\nend\n",
    )
    .expect("spec is writable");

    let out = cli(&[
        "batch",
        "--fuel",
        "100",
        "--deadline",
        "10s",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.code, 0, "{}", out.output);
    assert!(out.output.contains("queue.adt: PASSED"), "{}", out.output);
    assert!(
        out.output.contains("loop.adt: UNDETERMINED"),
        "{}",
        out.output
    );
    assert!(
        out.output
            .contains("batch: 2 spec(s) — 1 passed, 0 failed, 1 undetermined, 0 quarantined"),
        "{}",
        out.output
    );
    let _ = fs::remove_dir_all(dir);
}
