//! Orphan-node post-processing (Algorithm 2 of the paper).
//!
//! CL-family models leave a noticeable fraction of low-degree nodes outside
//! the main connected component ("orphaned"). Algorithm 2 repairs this by
//! deleting the orphans' stray edges and rewiring each orphan into the main
//! component, preferring partner nodes whose desired degree has not been met,
//! and deleting a random edge whenever the total edge budget would otherwise
//! be exceeded. The paper applies this both to the CL seed graph and to the
//! final TriCycLe output.

use rand::Rng;

use agmdp_graph::components::connected_components;
use agmdp_graph::{AttributedGraph, GraphView, NodeId};

use crate::pi::PiSampler;

/// Maximum number of repair rounds before falling back to directly bridging
/// the remaining components (guards against pathological degree sequences).
const MAX_ROUNDS: usize = 50;

/// Maximum π draws when looking for an attachment partner before scanning.
const MAX_PARTNER_DRAWS: usize = 60;

/// Rewires orphaned nodes into the main connected component (Algorithm 2).
///
/// * `graph` — the generated graph to repair in place.
/// * `desired_degrees` — the degree sequence the generator was targeting
///   (`S` in the paper); partners are preferred while below their target.
/// * `pi` — the degree-proportional sampler used to propose partners.
///
/// The total edge count is kept at `round(Σ desired / 2)` as in the paper.
/// After `MAX_ROUNDS` (50) rounds the remaining components are bridged directly so the
/// output is always connected.
pub fn wire_orphans<R: Rng + ?Sized>(
    graph: &mut AttributedGraph,
    desired_degrees: &[usize],
    pi: &PiSampler,
    rng: &mut R,
) {
    let n = graph.num_nodes();
    if n <= 1 {
        return;
    }
    debug_assert_eq!(desired_degrees.len(), n);
    let total_desired: usize = desired_degrees.iter().sum();
    let target_edges = ((total_desired as f64) / 2.0).round() as usize;

    for _round in 0..MAX_ROUNDS {
        let comps = connected_components(graph);
        if comps.count() <= 1 {
            return;
        }
        let main_id = comps
            .largest()
            .expect("non-empty graph has a largest component");
        let mut in_main: Vec<bool> = comps.labels.iter().map(|&l| l == main_id).collect();
        let orphans = comps.orphaned_nodes();

        for &vi in &orphans {
            if in_main[vi as usize] {
                // A previous orphan may have pulled this node in already.
                continue;
            }
            // Drop any stray edges to other orphans.
            let stray: Vec<NodeId> = graph.neighbors(vi).to_vec();
            for w in stray {
                graph.remove_edge(vi, w).expect("neighbor edge must exist");
            }
            let want = desired_degrees[vi as usize].max(1);
            for _ in 0..want {
                if let Some(vk) = pick_partner(graph, desired_degrees, &in_main, vi, pi, rng) {
                    graph
                        .add_edge(vi, vk)
                        .expect("partner is distinct and unconnected");
                    in_main[vi as usize] = true;
                    if graph.num_edges() > target_edges {
                        remove_random_edge(graph, vi, rng);
                    }
                } else {
                    break;
                }
            }
        }
    }

    // Fallback: bridge whatever components remain so the result is connected.
    let comps = connected_components(graph);
    if comps.count() > 1 {
        let main_id = comps.largest().expect("non-empty graph");
        let anchor = comps
            .labels
            .iter()
            .position(|&l| l == main_id)
            .expect("largest component is non-empty") as NodeId;
        let mut attached = vec![false; comps.count()];
        attached[main_id as usize] = true;
        for v in 0..graph.num_nodes() as NodeId {
            let c = comps.labels[v as usize] as usize;
            if !attached[c] {
                attached[c] = true;
                let _ = graph.try_add_edge(v, anchor);
            }
        }
    }
}

fn pick_partner<R: Rng + ?Sized>(
    graph: &AttributedGraph,
    desired_degrees: &[usize],
    in_main: &[bool],
    vi: NodeId,
    pi: &PiSampler,
    rng: &mut R,
) -> Option<NodeId> {
    // Preferred: a π-sampled main-component node below its desired degree.
    for _ in 0..MAX_PARTNER_DRAWS {
        let vk = pi.sample(rng);
        if vk != vi
            && in_main[vk as usize]
            && graph.degree(vk) < desired_degrees[vk as usize]
            && !graph.has_edge(vi, vk)
        {
            return Some(vk);
        }
    }
    // Fallback: scan for any main-component node we can attach to, preferring
    // nodes that are still below their desired degree.
    let mut best: Option<(bool, usize, NodeId)> = None;
    for v in graph.nodes() {
        if v == vi || !in_main[v as usize] || graph.has_edge(vi, v) {
            continue;
        }
        let below = graph.degree(v) < desired_degrees[v as usize];
        let key = (below, usize::MAX - graph.degree(v), v);
        match &best {
            None => best = Some(key),
            Some(b) if (key.0, key.1) > (b.0, b.1) => best = Some(key),
            _ => {}
        }
    }
    best.map(|(_, _, v)| v)
}

/// Removes one edge chosen approximately uniformly at random, avoiding edges
/// incident to `protect` (the node we just attached, so it is not re-orphaned).
fn remove_random_edge<R: Rng + ?Sized>(graph: &mut AttributedGraph, protect: NodeId, rng: &mut R) {
    let n = graph.num_nodes() as u32;
    for _ in 0..200 {
        let u = rng.gen_range(0..n);
        if u == protect || graph.degree(u) == 0 {
            continue;
        }
        let nbrs = graph.neighbors(u);
        let v = nbrs[rng.gen_range(0..nbrs.len())];
        if v == protect {
            continue;
        }
        // Avoid disconnecting degree-one partners where we can help it.
        if graph.degree(v) <= 1 || graph.degree(u) <= 1 {
            continue;
        }
        graph.remove_edge(u, v).expect("sampled edge exists");
        return;
    }
    // Couldn't find a safe edge; leave the extra edge in place (a one-edge
    // surplus is preferable to disconnecting the graph).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chung_lu::sample_cl_edges;
    use agmdp_graph::components::is_connected;
    use agmdp_graph::AttributeSchema;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn connects_a_graph_with_isolated_nodes() {
        let desired = vec![2usize, 2, 2, 1, 1, 1];
        let mut g = AttributedGraph::unattributed(6);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(0, 2).unwrap();
        // Nodes 3, 4, 5 isolated.
        let pi = PiSampler::from_degrees(&desired).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        wire_orphans(&mut g, &desired, &pi, &mut rng);
        assert!(is_connected(&g));
        g.check_consistency().unwrap();
    }

    #[test]
    fn keeps_edge_count_near_target() {
        let n = 200;
        let mut desired = vec![1usize; n];
        for d in desired.iter_mut().take(40) {
            *d = 6;
        }
        let target: usize = desired.iter().sum::<usize>() / 2;
        let pi = PiSampler::from_degrees(&desired).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (mut g, _) = sample_cl_edges(n, &pi, target, AttributeSchema::new(0), None, &mut rng);
        wire_orphans(&mut g, &desired, &pi, &mut rng);
        assert!(is_connected(&g));
        let m = g.num_edges() as f64;
        assert!(
            (m - target as f64).abs() / target as f64 <= 0.15,
            "edge count {m} strays too far from target {target}"
        );
    }

    #[test]
    fn no_op_on_already_connected_graph() {
        let desired = vec![2usize; 4];
        let mut g = AttributedGraph::unattributed(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(2, 3).unwrap();
        g.add_edge(3, 0).unwrap();
        let before = g.edge_vec();
        let pi = PiSampler::from_degrees(&desired).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        wire_orphans(&mut g, &desired, &pi, &mut rng);
        assert_eq!(g.edge_vec(), before);
    }

    #[test]
    fn handles_tiny_graphs() {
        let mut g = AttributedGraph::unattributed(1);
        let pi = PiSampler::from_degrees(&[1]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        wire_orphans(&mut g, &[1], &pi, &mut rng);
        assert_eq!(g.num_edges(), 0);

        let mut g2 = AttributedGraph::unattributed(2);
        wire_orphans(
            &mut g2,
            &[1, 1],
            &PiSampler::from_degrees(&[1, 1]).unwrap(),
            &mut rng,
        );
        assert!(is_connected(&g2));
    }

    #[test]
    fn severely_fragmented_graph_is_always_connected_by_fallback() {
        // Desired degrees of zero would starve the partner search; the final
        // bridging fallback must still connect everything.
        let n = 30;
        let desired = vec![1usize; n];
        let mut g = AttributedGraph::unattributed(n);
        let pi = PiSampler::from_degrees(&desired).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        wire_orphans(&mut g, &desired, &pi, &mut rng);
        assert!(is_connected(&g));
    }
}
