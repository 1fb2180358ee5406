//! Experiment: Figures 2 and 3 (Section 3.3) — structural-model validation.
//!
//! For every dataset, generates one synthetic graph from each non-private
//! structural model (FCL, TCL, TriCycLe) and reports
//!
//! * Figure 2: the degree-distribution CCDF, summarised by the KS statistic
//!   and Hellinger distance plus CCDF samples at a log-spaced grid of degrees;
//! * Figure 3: the local-clustering-coefficient CCDF, summarised by the error
//!   of the average coefficient plus CCDF samples at a grid of thresholds.
//!
//! ```text
//! cargo run -p agmdp-bench --release --bin exp_fig2_fig3
//! ```

use agmdp_bench::{load_datasets, maybe_write_json, rng_for, ExperimentArgs, ResultRecord};
use agmdp_graph::clustering::{average_local_clustering, local_clustering_coefficients};
use agmdp_graph::degree::DegreeSequence;
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::AttributedGraph;
use agmdp_metrics::ccdf::{ccdf_at, ccdf_points};
use agmdp_metrics::distance::{hellinger_distance, ks_statistic, relative_error};
use agmdp_models::{ChungLuModel, GenerateRequest, StructuralModel, TclModel, TriCycLeModel};

const DEGREE_GRID: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
const CLUSTERING_GRID: [f64; 7] = [0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8];

fn main() {
    let args = ExperimentArgs::parse();
    let datasets = load_datasets(&args);
    let mut records = Vec::new();

    for ds in &datasets {
        let input = &ds.graph;
        let mut rng = rng_for(&args, &format!("fig23-{}", ds.spec.name));
        let degrees = input.degrees();
        let triangles = count_triangles(input);

        let fcl = ChungLuModel::new(degrees.clone())
            .expect("valid degrees")
            .with_orphan_postprocessing(true)
            .generate(&GenerateRequest::default(), &mut rng)
            .expect("FCL generation");
        let tcl = TclModel::fit(input, 10)
            .expect("TCL fit")
            .generate(&GenerateRequest::default(), &mut rng)
            .expect("TCL generation");
        let tricycle = TriCycLeModel::new(degrees, triangles)
            .expect("valid parameters")
            .generate(&GenerateRequest::default(), &mut rng)
            .expect("TriCycLe generation");

        println!("\n=== {} ===", ds.spec.name);
        println!("\nFigure 2 (degree distribution) / Figure 3 (local clustering CCDF)\n");
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10} {:>12} {:>10}",
            "model", "KS(deg)", "H(deg)", "triangles", "tri RE", "avg clust", "clust RE"
        );
        let input_dist = DegreeSequence::from_graph(input).distribution();
        let input_clust = average_local_clustering(input);
        for (name, g) in [
            ("input", input),
            ("FCL", &fcl),
            ("TCL", &tcl),
            ("TriCycLe", &tricycle),
        ] {
            let dist = DegreeSequence::from_graph(g).distribution();
            let c = average_local_clustering(g);
            let tri = count_triangles(g);
            println!(
                "{:<10} {:>9.3} {:>9.3} {:>10} {:>10.3} {:>12.3} {:>10.3}",
                name,
                ks_statistic(&input_dist, &dist),
                hellinger_distance(&input_dist, &dist),
                tri,
                relative_error(triangles as f64, tri as f64),
                c,
                relative_error(input_clust, c),
            );
            records.push(
                ResultRecord::new("fig2_fig3", &ds.spec.name)
                    .with_param("model", name)
                    .with_metric("ks_degree", ks_statistic(&input_dist, &dist))
                    .with_metric("hellinger_degree", hellinger_distance(&input_dist, &dist))
                    .with_metric("triangles", tri as f64)
                    .with_metric("avg_clustering", c),
            );
        }

        print_ccdf_table(
            "degree d (Fig. 2: fraction of nodes with degree > d)",
            &DEGREE_GRID,
            &[
                ("input", input),
                ("FCL", &fcl),
                ("TCL", &tcl),
                ("TriCycLe", &tricycle),
            ],
            |g| DegreeSequence::from_graph(g).values().to_vec(),
        );
        print_ccdf_table(
            "local clustering c (Fig. 3: fraction of nodes with coefficient > c)",
            &CLUSTERING_GRID,
            &[
                ("input", input),
                ("FCL", &fcl),
                ("TCL", &tcl),
                ("TriCycLe", &tricycle),
            ],
            local_clustering_coefficients,
        );
    }
    println!("\nExpected shape (paper, Figs. 2-3): every model approximates the degree CCDF;");
    println!("FCL's clustering CCDF collapses to ~0 while TCL and TriCycLe track the input,");
    println!("with TriCycLe at least as close as TCL on most datasets.");
    maybe_write_json(&args, &records);
}

fn print_ccdf_table(
    title: &str,
    grid: &[f64],
    graphs: &[(&str, &AttributedGraph)],
    values: impl Fn(&AttributedGraph) -> Vec<f64>,
) {
    println!("\n{title}");
    print!("{:<10}", "x");
    for (name, _) in graphs {
        print!(" {name:>10}");
    }
    println!();
    let curves: Vec<Vec<agmdp_metrics::CcdfPoint>> = graphs
        .iter()
        .map(|(_, g)| ccdf_points(&values(g)))
        .collect();
    for &x in grid {
        print!("{x:<10.2}");
        for curve in &curves {
            print!(" {:>10.4}", ccdf_at(curve, x));
        }
        println!();
    }
}
