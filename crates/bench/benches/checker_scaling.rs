//! TB-4: the sufficient-completeness checker is mechanizable and cheap
//! (§3 promises a *system* that verifies completeness; this measures that
//! the check scales to specification sizes far beyond anything in the
//! paper).
//!
//! Synthetic family: one sort with `C` constructors (one recursive), `O`
//! observers, each fully case-covered — so the checker does its full
//! partition analysis on every operation. Expected shape: roughly linear
//! in `O × C`.
//!
//! The `parallel` section measures the work-pool checker
//! (`check_completeness_with_config` / `check_consistency_with_config` with
//! `CheckConfig::jobs(n)`) on a 64-operation
//! synthetic spec at 1 vs 4 workers and prints the speedup. On a machine
//! with ≥4 cores the combined speedup is expected (and asserted) to be
//! ≥2×; on smaller machines the numbers are reported but not enforced,
//! since the hardware cannot exhibit the parallelism.

use adt_bench::harness::Group;
use adt_bench::workloads::synthetic_spec as synthetic;
use adt_check::{
    check_completeness, check_completeness_with_config, check_consistency_with_config, CheckConfig,
    ProbeConfig,
};

fn main() {
    let group = Group::new("checker_scaling");

    for &(ctors, obs) in &[(2usize, 4usize), (4, 16), (8, 32), (16, 64)] {
        let spec = synthetic(ctors, obs);
        group.bench(&format!("complete/{ctors}ctors_{obs}obs"), || {
            let report = check_completeness(std::hint::black_box(&spec));
            assert!(report.is_sufficiently_complete());
            report.coverage().len()
        });
    }

    // The incomplete case (witness synthesis) on the paper's own example.
    let incomplete = adt_structures::specs::queue_spec_incomplete();
    group.bench("incomplete/queue_minus_axiom4", || {
        let report = check_completeness(std::hint::black_box(&incomplete));
        assert_eq!(report.missing_case_count(), 1);
        report.missing_case_count()
    });

    // The multi-threaded variant: one synthetic spec with 64 operations,
    // checked with 1 worker and with 4. Probing is capped so the run stays
    // within the bench budget; the per-item work (pattern analysis, pair
    // classification, probe normalization) is what the pool distributes.
    let spec = synthetic(8, 64);
    let probe = ProbeConfig {
        samples: 64,
        ..ProbeConfig::default()
    };
    let check_all = |jobs: usize| {
        let config = CheckConfig::jobs(jobs);
        let comp = check_completeness_with_config(&spec, &config);
        assert!(comp.is_sufficiently_complete());
        let cons = check_consistency_with_config(&spec, &probe, &config);
        (comp.coverage().len(), cons.pairs_checked())
    };
    let seq = group.bench("parallel/64ops_jobs1", || check_all(1));
    let par = group.bench("parallel/64ops_jobs4", || check_all(4));
    let speedup = par.speedup_over(&seq);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("checker_scaling/parallel speedup at 4 workers: {speedup:.2}x ({cores} core(s))");
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x speedup at 4 workers on {cores} cores, got {speedup:.2}x"
        );
    }
}
