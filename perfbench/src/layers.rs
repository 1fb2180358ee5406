//! The fit, split into the public sub-steps the engine's opaque `fit` stage
//! runs: thaw, then θ_X → θ_F → noisy degree sequence → Ladder triangles on
//! one RNG seeded the way the engine seeds its fit. Each sub-step is timed
//! in its own span, and the result must equal the engine's own fitted
//! parameters, which proves the sub-step times describe the real fit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use agmdp_core::attributes_dp::learn_attributes_dp;
use agmdp_core::correlations_dp::{learn_correlations_dp, CorrelationMethod};
use agmdp_core::workflow::{AgmConfig, LearnedParameters, Privacy, StructuralModelKind};
use agmdp_core::ThetaM;
use agmdp_graph::truncation::{edge_truncation, heuristic_k};
use agmdp_privacy::constrained_inference::dp_degree_sequence;
use agmdp_privacy::ladder::dp_triangle_count;
use agmdp_service::registry::Dataset;
use agmdp_service::SynthesisRequest;

use crate::trace::Recorder;

/// Per-layer metric names of the fit sub-step spans.
pub const FIT_SPANS: [(&str, &str); 6] = [
    ("graph.thaw", "graph.thaw_s"),
    ("graph.truncation", "graph.truncation_s"),
    ("core.theta_x", "core.theta_x_s"),
    ("core.theta_f", "core.theta_f_s"),
    ("privacy.degree_seq", "privacy.degree_seq_s"),
    ("privacy.ladder", "privacy.ladder_s"),
];

/// Re-runs the fit of `request` sub-step by sub-step. Edge truncation runs
/// inside θ_F; it is also timed on its own, outside the RNG chain.
pub fn decompose(
    rec: &mut Recorder,
    run: u64,
    dataset: &Dataset,
    request: &SynthesisRequest,
) -> Result<LearnedParameters, String> {
    let (graph, _) = rec.span("graph.thaw", run, |_| dataset.thaw());
    if let CorrelationMethod::EdgeTruncation { k } = request.method {
        let k = k.unwrap_or_else(|| heuristic_k(graph.num_nodes()));
        rec.span("graph.truncation", run, |_| edge_truncation(&graph, k));
    }
    let config = AgmConfig {
        privacy: Privacy::Dp {
            epsilon: request.epsilon,
        },
        model: request.model,
        correlation_method: request.method,
        refinement_iterations: request.refinement_iterations,
        orphan_postprocessing: true,
        threads: request.threads,
    };
    let split = config.budget_split().map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(request.seed);
    let (theta_x, _) = rec.span("core.theta_x", run, |_| {
        learn_attributes_dp(&graph, split.attributes, &mut rng)
    });
    let (theta_f, _) = rec.span("core.theta_f", run, |_| {
        learn_correlations_dp(&graph, split.correlations, request.method, &mut rng)
    });
    let (degree_sequence, _) = rec.span("privacy.degree_seq", run, |_| {
        dp_degree_sequence(&graph.degrees(), split.degree_sequence, &mut rng)
    });
    let triangles = match request.model {
        StructuralModelKind::TriCycLe => {
            let (ladder, _) = rec.span("privacy.ladder", run, |_| {
                dp_triangle_count(&graph, split.triangles, &mut rng)
            });
            Some(ladder.map_err(|e| e.to_string())?.estimate.round().max(0.0) as u64)
        }
        StructuralModelKind::Fcl => None,
    };
    Ok(LearnedParameters {
        theta_x: theta_x.map_err(|e| e.to_string())?,
        theta_f: theta_f.map_err(|e| e.to_string())?,
        theta_m: ThetaM {
            degree_sequence: degree_sequence.map_err(|e| e.to_string())?,
            triangles,
        },
        num_nodes: graph.num_nodes(),
        schema: graph.schema(),
    })
}
