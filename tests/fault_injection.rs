//! Fault-injection suite: the robustness claims of the checking engine,
//! exercised end to end.
//!
//! Three claims are pinned here:
//!
//! 1. **Panic isolation** — a worker panic on one work item (injected
//!    deterministically) leaves every other item's verdict byte-identical
//!    to a fault-free run, at any job count, and the sabotaged item is
//!    flagged rather than lost.
//! 2. **Fuel bounds** — a divergent axiom set (`F(x) = F(x)`) terminates
//!    with an `Exhausted` receipt at *exactly* the configured step budget
//!    in the rewriter, surfaces as a partial verdict in the checker, and
//!    as `UNDETERMINED` (exit 0) in the CLI.
//! 3. **Partial verdicts** — a deliberately incomplete specification
//!    (`queue_incomplete`, the paper's dropped axiom 4) produces a
//!    partial verdict and a clean exit-1 report; it never panics.
//!
//! The retry ladder is pinned here too, on every phase. None of the
//! shipped specifications has a critical pair, so a fixture supplies two.

use std::fs;
use std::path::PathBuf;

use adt_check::fault::{fault_isolation_check, PAIRS};
use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, ConsistencyVerdict,
    FaultSpec, ProbeConfig, RetryFuel,
};
use adt_core::{ExhaustionCause, Fuel};
use adt_rewrite::{RewriteError, Rewriter};
use adt_structures::sources;

/// Two critical pairs (`f0`/`f1` overlap on `F(ZERO)`), and an `F` that
/// needs more than two steps: at `--fuel 2` every phase climbs the ladder.
const PAIRS_FIXTURE: &str = include_str!("fixtures/f_h_pairs.adt");

/// Six heads with one contradictory pair of axioms each: twelve critical
/// pairs whose verdicts all differ, so a pair index that named a
/// different pair in the clean and the faulted run would show.
const OVERLAP_HEADS: &str = include_str!("fixtures/overlap_heads.adt");

/// A one-rule divergent system: every probe loops forever without fuel.
const LOOP: &str = "type L
ops
  C: -> L ctor
  F: L -> L
vars
  x: L
axioms
  [1] F(x) = F(x)
end
";

fn temp_spec(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("adt_fault_{}_{name}.adt", std::process::id()));
    fs::write(&path, contents).expect("temp file is writable");
    path
}

fn cli(args: &[&str]) -> adt_cli::Outcome {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    adt_cli::run(&owned)
}

#[test]
fn injected_panic_is_contained_at_any_job_count() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=7,panic=1").expect("plan parses");
    for jobs in [1, 4] {
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &plan,
            &CheckConfig::jobs(jobs),
        );
        assert!(
            report.faults_injected() > 0,
            "jobs {jobs}: the plan must actually arm faults"
        );
        assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
        // The sabotaged chunks are flagged, not silently dropped.
        assert!(
            report.phases.iter().any(|p| !p.faulted.is_empty()),
            "jobs {jobs}: no phase flags its faulted item"
        );
    }
}

#[test]
fn all_three_fault_kinds_are_contained_together() {
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=3,panic=1,exhaust=1,slow=1,slow-ms=1").expect("plan parses");
    for jobs in [1, 4] {
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &plan,
            &CheckConfig::jobs(jobs),
        );
        assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
    }
}

#[test]
fn faults_are_contained_on_pairs_under_six_heads() {
    let spec = adt_dsl::parse(OVERLAP_HEADS).expect("fixture parses");
    let plan = FaultSpec::parse("seed=7,panic=1,exhaust=1,slow=1,slow-ms=1").expect("plan parses");
    for jobs in [1, 4] {
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &plan,
            &CheckConfig::jobs(jobs),
        );
        let pairs = report
            .phases
            .iter()
            .find(|p| p.phase == PAIRS)
            .expect("the pairs phase is reported");
        assert_eq!(pairs.items, 12, "jobs {jobs}");
        assert!(
            !pairs.faulted.is_empty(),
            "jobs {jobs}: the plan arms a pair"
        );
        assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
    }
}

#[test]
fn slow_faults_change_nothing_at_all() {
    // Slowness is pure scheduling noise: unlike panics and exhaustion it
    // does not change any item's verdict, so the *entire* report — the
    // slowed items included — must be byte-identical to a clean run.
    let spec = adt_dsl::parse(sources::QUEUE).expect("shipped spec parses");
    let plan = FaultSpec::parse("seed=5,slow=3,slow-ms=1").expect("plan parses");
    let probe = ProbeConfig::default();
    let clean = check_consistency_with_config(&spec, &probe, &CheckConfig::jobs(4));
    let slowed = check_consistency_with_config(
        &spec,
        &probe,
        &CheckConfig::jobs(4).with_faults(plan.clone()),
    );
    assert_eq!(clean.verdict(), slowed.verdict());
    assert_eq!(clean.pair_verdicts(), slowed.pair_verdicts());
    assert_eq!(clean.probe_verdicts(), slowed.probe_verdicts());
    assert_eq!(clean.summary(), slowed.summary());
    assert!(slowed.failures().is_empty());

    let comp_clean = check_completeness_with_config(&spec, &CheckConfig::jobs(4));
    let comp_slowed =
        check_completeness_with_config(&spec, &CheckConfig::jobs(4).with_faults(plan));
    assert_eq!(comp_clean.coverage(), comp_slowed.coverage());
}

#[test]
fn rewriter_exhausts_at_exactly_the_configured_budget() {
    let spec = adt_dsl::parse(LOOP).expect("loop spec parses");
    let term = adt_dsl::parse_term(&spec, "F(C)").expect("term parses");
    let rw = Rewriter::new(&spec).with_fuel(100);
    match rw.normalize_full(&term) {
        Err(RewriteError::Exhausted { spent, budget }) => {
            assert_eq!(spent.steps, 100, "exhaustion must land on the exact budget");
            assert_eq!(spent.cause, ExhaustionCause::Steps);
            assert_eq!(budget.steps, 100);
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
}

#[test]
fn checker_surfaces_divergence_as_a_partial_verdict() {
    let spec = adt_dsl::parse(LOOP).expect("loop spec parses");
    let probe = ProbeConfig {
        samples: 10,
        max_depth: 3,
        seed: 1,
    };
    let mut summaries = Vec::new();
    for jobs in [1, 4] {
        let cfg = CheckConfig::jobs(jobs).with_fuel(Fuel::steps(100));
        let report = check_consistency_with_config(&spec, &probe, &cfg);
        assert_eq!(
            report.verdict(),
            &ConsistencyVerdict::Exhausted,
            "jobs {jobs}: {}",
            report.summary()
        );
        assert!(!report.exhausted_probes().is_empty());
        assert_eq!(report.exhausted_probes()[0].spent.steps, 100);
        summaries.push(report.summary());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "partial verdicts must not depend on the job count"
    );
}

#[test]
fn cli_fuel_flag_reports_undetermined_and_exits_zero() {
    let path = temp_spec("loop", LOOP);
    for jobs in ["1", "4"] {
        let out = cli(&[
            "check",
            "--jobs",
            jobs,
            "--fuel",
            "100",
            path.to_str().unwrap(),
        ]);
        assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
        assert!(
            out.output.contains("consistent: UNDETERMINED"),
            "jobs {jobs}: {}",
            out.output
        );
    }
    let _ = fs::remove_file(path);
}

#[test]
fn cli_faults_run_exits_zero_and_flags_the_chunk() {
    let path = temp_spec("queue", sources::QUEUE);
    let out = cli(&[
        "check",
        "--jobs",
        "4",
        "--faults",
        "seed=7,panic=1",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.code, 0, "{}", out.output);
    assert!(
        out.output.contains("non-faulted verdicts identical: yes"),
        "{}",
        out.output
    );
    assert!(out.output.contains("faulted item(s) ["), "{}", out.output);
    let _ = fs::remove_file(path);
}

#[test]
fn incomplete_spec_yields_partial_verdict_without_panicking() {
    let spec = adt_dsl::parse(sources::QUEUE_INCOMPLETE).expect("shipped spec parses");
    for jobs in [1, 4] {
        let cfg = CheckConfig::jobs(jobs);
        let comp = check_completeness_with_config(&spec, &cfg);
        assert!(!comp.is_sufficiently_complete(), "jobs {jobs}");
        assert!(comp.has_definite_missing(), "jobs {jobs}");
        assert_eq!(comp.missing_case_count(), 1, "jobs {jobs}");
        assert!(
            comp.prompts().contains("FRONT(ADD("),
            "jobs {jobs}: {}",
            comp.prompts()
        );
        // Consistency still runs to a verdict on the incomplete spec.
        let cons = check_consistency_with_config(&spec, &ProbeConfig::default(), &cfg);
        assert!(cons.failures().is_empty(), "jobs {jobs}");
    }

    // End to end: exit 1 (a definite negative), a prompt, and no panic.
    let path = temp_spec("incomplete", sources::QUEUE_INCOMPLETE);
    for jobs in ["1", "4"] {
        let out = cli(&["check", "--jobs", jobs, path.to_str().unwrap()]);
        assert_eq!(out.code, 1, "jobs {jobs}: {}", out.output);
        assert!(
            out.output.contains("sufficiently complete: NO"),
            "jobs {jobs}: {}",
            out.output
        );
    }
    let _ = fs::remove_file(path);
}

#[test]
fn exhaust_faults_are_never_rescued_by_the_retry_ladder() {
    // The retry ladder exists to rescue *honest* fuel exhaustion. An
    // injected exhaust fault must stay pinned at rung 0: if the ladder
    // re-ran the sabotaged item at a bigger budget it would come back
    // clean, and the isolation harness would be comparing the wrong run.
    let plan = FaultSpec::parse("seed=3,exhaust=2").expect("plan parses");
    let probe = ProbeConfig::default();
    // Queue has no critical pair; the plan sabotages both of the fixture's.
    let fixture = adt_dsl::parse(PAIRS_FIXTURE).expect("fixture parses");
    let pairs = check_consistency_with_config(&fixture, &probe, &CheckConfig::default());
    let armed: Vec<usize> = plan
        .arm(PAIRS, pairs.pairs_checked())
        .exhaust_indices()
        .collect();
    assert_eq!(armed, [0, 1]);
    for spec in [
        adt_dsl::parse(sources::QUEUE).expect("shipped spec parses"),
        fixture,
    ] {
        let name = spec.name();
        for jobs in [1, 4] {
            let base = CheckConfig::jobs(jobs).with_faults(plan.clone());
            let with_retry = base.clone().with_retry(RetryFuel::default());
            let plain = check_consistency_with_config(&spec, &probe, &base);
            let retried = check_consistency_with_config(&spec, &probe, &with_retry);
            assert_eq!(
                plain.pair_verdicts(),
                retried.pair_verdicts(),
                "{name}, jobs {jobs}: retry must not touch exhaust-faulted pairs"
            );
            assert_eq!(
                plain.probe_verdicts(),
                retried.probe_verdicts(),
                "{name}, jobs {jobs}: retry must not touch exhaust-faulted probes"
            );
            assert!(
                retried.stats().retries.is_empty(),
                "{name}, jobs {jobs}: no rung may claim a faulted rescue: {:?}",
                retried.stats().retries
            );

            let comp_plain = check_completeness_with_config(&spec, &base);
            let comp_retried = check_completeness_with_config(&spec, &with_retry);
            assert_eq!(
                comp_plain.coverage(),
                comp_retried.coverage(),
                "{name}, jobs {jobs}: retry must not touch exhaust-faulted operations"
            );
        }

        // The isolation harness agrees even with the ladder armed.
        let report = fault_isolation_check(
            &spec,
            &probe,
            &plan,
            &CheckConfig::jobs(4).with_retry(RetryFuel::default()),
        );
        assert!(report.isolated(), "{name}: {}", report.render());
    }
}

#[test]
fn the_retry_ladder_output_is_pinned_on_every_phase() {
    // At fuel 2 every phase climbs the ladder: completeness rescues `H`,
    // both critical pairs are rescued at rung 1, and 127 of the 200
    // probes are rescued, these 26 only at rung 2. The FNV-1a hash pins
    // every byte of the 130 lines. Probe steps are summed over the rungs.
    const RUNG_2_PROBES: [usize; 26] = [
        5, 27, 55, 61, 63, 65, 67, 69, 76, 86, 87, 103, 107, 123, 127, 138, 145, 149, 154, 160,
        163, 165, 169, 171, 188, 199,
    ];
    let spec = adt_dsl::parse(PAIRS_FIXTURE).expect("fixture parses");
    let retry = RetryFuel {
        factor: 2,
        rungs: 3,
        ..RetryFuel::default()
    };
    for jobs in [1, 4] {
        let config = CheckConfig::jobs(jobs)
            .with_fuel(Fuel::steps(2))
            .with_retry(retry);
        let comp = check_completeness_with_config(&spec, &config);
        let cons = check_consistency_with_config(&spec, &ProbeConfig::default(), &config);
        let lines: Vec<&str> = comp
            .stats()
            .retries
            .iter()
            .chain(&cons.stats().retries)
            .map(String::as_str)
            .collect();
        assert_eq!(lines.len(), 130, "jobs {jobs}");
        assert_eq!(
            lines[..3],
            [
                "operation `H`: rescued at rung 1 (budget 4)",
                "critical pair #0 (f0 / f1): rescued at rung 1 (fuel 4)",
                "critical pair #1 (f1 / f0): rescued at rung 1 (fuel 4)",
            ],
            "jobs {jobs}"
        );
        let mut rung_2 = Vec::new();
        for line in &lines[3..] {
            let index = line
                .strip_prefix("probe #")
                .and_then(|l| l.split(' ').next());
            let index: usize = index.and_then(|i| i.parse().ok()).expect("a probe line");
            if line.ends_with(": rescued at rung 2 (fuel 8)") {
                rung_2.push(index);
            } else {
                assert!(
                    line.ends_with(": rescued at rung 1 (fuel 4)"),
                    "jobs {jobs}: {line}"
                );
            }
        }
        assert_eq!(rung_2, RUNG_2_PROBES, "jobs {jobs}");
        assert_eq!(
            adt_core::fnv1a(&lines.join("\n")),
            0x9c9f_03f8_c811_d0b6,
            "jobs {jobs}"
        );
        assert_eq!(
            cons.pair_verdicts(),
            ["joins at ZERO", "joins at ZERO"],
            "jobs {jobs}"
        );
        assert_eq!(cons.stats().rewrite_steps, 887, "jobs {jobs}");
    }
}
