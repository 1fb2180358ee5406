//! Criterion benchmarks for the `agmdp-eval` experiment harness.
//!
//! Two costs matter for the harness as a utility-regression backstop:
//!
//! * `utility_report_compare` — profiling one (original, synthetic) pair
//!   and scoring it on every metric column with `UtilityReport::between`
//!   (degree histograms, CCDFs, assortativity, Θ_F, attribute correlations,
//!   triangles/clustering). The harness profiles each original once, so its
//!   per-trial overhead on top of synthesis is the synthetic half of this.
//! * `plan_run_toy_grid` — a complete small plan end to end (parse → grid →
//!   trials → aggregates → artifacts), the unit CI's `eval-smoke` pays for.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use agmdp_core::workflow::{synthesize, AgmConfig, Privacy, StructuralModelKind};
use agmdp_datasets::{generate_dataset, DatasetSpec};
use agmdp_eval::{EvalPlan, GraphProfile, UtilityReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evalharness(c: &mut Criterion) {
    let mut group = c.benchmark_group("evalharness");
    group.sample_size(10);

    group.bench_function("utility_report_compare_lastfm_030", |b| {
        let input = generate_dataset(&DatasetSpec::lastfm().scaled(0.3), 5).expect("dataset");
        let config = AgmConfig {
            privacy: Privacy::Dp { epsilon: 1.0 },
            model: StructuralModelKind::TriCycLe,
            ..AgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let synthetic = synthesize(&input, &config, &mut rng).expect("synthesis");
        b.iter(|| {
            let original = GraphProfile::of(&input);
            black_box(UtilityReport::between(
                &original,
                &GraphProfile::of(&synthetic),
            ))
        });
    });

    group.bench_function("plan_run_toy_grid", |b| {
        let plan = EvalPlan::parse(
            "plan bench\ndataset toy\nepsilon 1 inf\nmodel fcl tricycle\nrepetitions 2\nseed 3\n",
        )
        .expect("plan parses");
        b.iter(|| {
            let report = plan.run().expect("plan runs");
            black_box(report.aggregates_json().len())
        });
    });

    group.finish();
}

criterion_group!(benches, evalharness);
criterion_main!(benches);
