//! Experiment: Table 6 (Appendix A) — dataset properties.
//!
//! Prints, for every (synthetic stand-in) dataset, the columns of Table 6:
//! number of nodes `n`, edges `m`, maximum degree `d_max`, average degree
//! (the table's `m/n` convention), triangle count `n_Δ` and average local
//! clustering coefficient `C̄` — both the target values from the spec and the
//! values measured on the generated graph.
//!
//! ```text
//! cargo run -p agmdp-bench --release --bin exp_table6 [-- --full]
//! ```

use agmdp_bench::{load_datasets, maybe_write_json, ExperimentArgs, ResultRecord};
use agmdp_graph::clustering::average_local_clustering;
use agmdp_graph::triangles::count_triangles;
use agmdp_graph::GraphView;

fn main() {
    let args = ExperimentArgs::parse();
    let datasets = load_datasets(&args);
    let mut records = Vec::new();

    println!("\nTable 6: dataset properties (spec target -> measured on the synthetic stand-in)\n");
    println!(
        "{:<16} {:>9} {:>10} {:>7} {:>7} {:>12} {:>8}",
        "dataset", "n", "m", "d_max", "d_avg", "triangles", "C_avg"
    );
    for ds in &datasets {
        let g = &ds.graph;
        let triangles = count_triangles(g);
        let c_avg = average_local_clustering(g);
        let d_avg = g.num_edges() as f64 / g.num_nodes() as f64;
        println!(
            "{:<16} {:>9} {:>10} {:>7} {:>7.1} {:>12} {:>8.3}   (target m = {}, n_tri = {}, C = {:.3})",
            ds.spec.name,
            g.num_nodes(),
            g.num_edges(),
            g.max_degree(),
            d_avg,
            triangles,
            c_avg,
            ds.spec.edges,
            ds.spec.triangles,
            ds.spec.avg_clustering,
        );
        records.push(
            ResultRecord::new("table6", &ds.spec.name)
                .with_metric("n", g.num_nodes() as f64)
                .with_metric("m", g.num_edges() as f64)
                .with_metric("d_max", g.max_degree() as f64)
                .with_metric("d_avg", d_avg)
                .with_metric("triangles", triangles as f64)
                .with_metric("avg_clustering", c_avg)
                .with_metric("target_m", ds.spec.edges as f64)
                .with_metric("target_triangles", ds.spec.triangles as f64),
        );
    }
    println!(
        "\nPaper reference (Table 6): Last.fm 1843/12668/119/6.9/19651/0.183 | Petster 1788/12476/272/7.0/16741/0.143"
    );
    println!(
        "                           Epinions 26427/104075/625/3.9/231645/0.138 | Pokec 592627/3725424/1274/6.3/2492216/0.104"
    );
    maybe_write_json(&args, &records);
}
