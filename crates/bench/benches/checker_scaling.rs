//! TB-4's parallel claim: the work-pool checker
//! (`check_completeness_with_config` / `check_consistency_with_config` with
//! `CheckConfig::jobs(n)`) on a 64-operation synthetic spec at 1 vs 4
//! workers, printing the speedup. On a machine with ≥4 cores the combined
//! speedup is expected (and asserted) to be ≥2×; on smaller machines the
//! numbers are reported but not enforced, since the hardware cannot
//! exhibit the parallelism.
//!
//! The rest of TB-4 (the completeness size sweep) and these two rows are
//! measured by the `adt-bench` runner. The assertion stays here because
//! this workload cannot meet it: about 80% of a check is serial, which
//! caps the jobs-4 speedup near 1.25× (EXPERIMENTS.md, TB-4), and the
//! runner's gates run in CI on every change.

use adt_bench::harness::Group;
use adt_bench::workloads::synthetic_spec as synthetic;
use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, ProbeConfig,
};

fn main() {
    let group = Group::new("checker_scaling");

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
