//! Determinism contract of the `agmdp-eval` experiment harness: the same
//! plan and master seed must produce **byte-identical** JSON and CSV
//! artifacts at every thread count — trials fan out over the chunked
//! executor, so `threads` is scheduling only, exactly like the synthesis
//! engine one level down.
//!
//! Determinism covers failures too: at an unlucky seed a DP trial can fail
//! outright (e.g. an all-zero noisy degree sequence at small ε), and then it
//! must fail with the *same* error at every thread count.
//!
//! Every measure is covered: releases, the Θ_F estimators alone, and the
//! bare structural models.

use agmdp::eval::EvalPlan;
use proptest::prelude::*;

/// Both structural models, a DP level and the non-private baseline: every
/// release code path in one small grid.
const RELEASE: &str =
    "plan determinism\ndataset toy\nepsilon 1 inf\nmodel fcl tricycle\nrepetitions 2\n";
/// Every Θ_F estimator, at an exact and a decimal ε.
const THETA_F: &str = "plan determinism\nmeasure theta_f\ndataset toy\nepsilon ln2 0.5\n\
    variant t method=truncation k=3\nvariant s method=smooth\n\
    variant sa method=sample-aggregate k=6\nvariant n method=naive\n\
    variant nd method=node-dp\nvariant u method=uniform\nrepetitions 2\n";
/// Every bare structural model.
const STRUCTURE: &str = "plan determinism\nmeasure structure\ndataset toy\nepsilon inf\n\
    model fcl tcl tricycle uniform\nrepetitions 2\n";

/// All four artifact renderings of one plan run at a given thread count, or
/// the run's (deterministic) error message.
fn artifacts(
    text: &str,
    seed: u64,
    threads: usize,
) -> Result<(String, String, String, String), String> {
    let mut plan = EvalPlan::parse(text).expect("plan parses");
    plan.seed = seed;
    plan.threads = threads;
    let report = plan.run().map_err(|e| e.to_string())?;
    Ok((
        report.to_json(),
        report.aggregates_json(),
        report.trials_csv(),
        report.aggregates_csv(),
    ))
}

proptest! {
    // Each case runs 3 × 8 full synthesis trials on the toy graph; keep the
    // case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// threads = 1 and threads ∈ {2, 8} produce byte-identical artifacts —
    /// or byte-identical failures — for arbitrary master seeds (the grid
    /// covers both models and both privacy modes).
    #[test]
    fn eval_artifacts_are_thread_count_invariant(seed in 0u64..u64::MAX) {
        let serial = artifacts(RELEASE, seed, 1);
        for threads in [2usize, 8] {
            let parallel = artifacts(RELEASE, seed, threads);
            prop_assert_eq!(
                &parallel, &serial,
                "threads = {} diverged from serial at seed {}",
                threads, seed
            );
        }
    }

    /// The Θ_F and structure measures keep the same contract.
    #[test]
    fn theta_f_and_structure_artifacts_are_thread_count_invariant(seed in 0u64..u64::MAX) {
        for text in [THETA_F, STRUCTURE] {
            let serial = artifacts(text, seed, 1);
            prop_assert!(serial.is_ok(), "{:?}", serial);
            for threads in [2usize, 8] {
                let parallel = artifacts(text, seed, threads);
                prop_assert_eq!(&parallel, &serial, "threads = {} at seed {}", threads, seed);
            }
        }
    }

    /// Different master seeds produce different trials (the grid is actually
    /// seed-driven, not constant). Skipped when either seed's run fails —
    /// failure determinism is the other test's job.
    #[test]
    fn eval_artifacts_depend_on_the_master_seed(seed in 0u64..u64::MAX / 2) {
        if let (Ok(a), Ok(b)) = (artifacts(RELEASE, seed, 1), artifacts(RELEASE, seed + 1, 1)) {
            prop_assert_ne!(a.2, b.2);
        }
    }
}
