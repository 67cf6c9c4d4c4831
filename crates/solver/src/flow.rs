//! Min-cost max-flow via successive shortest augmenting paths.
//!
//! An independent exact method used to cross-check the simplex/MILP stack:
//! when every client in an [`crate::AssignmentProblem`] has the same load,
//! the GAP collapses to a transportation problem that min-cost flow solves
//! exactly in polynomial time. No binary links it (it is on
//! `scripts/symbol-census.sh`'s allowlist): it is here as the exact
//! path's second opinion, kept because a trial of 25 mutations seeded
//! into `simplex`, `milp` and `gap`'s exact model found one — the
//! model's last capacity row dropped — that only the two flow-vs-MILP
//! tests catch (CHANGES.md, ISSUE 22).
//!
//! Implementation: successive shortest paths with Johnson potentials —
//! one initial Bellman–Ford pass absorbs the negative construction costs
//! into node potentials, after which every augmenting path is found by
//! Dijkstra over non-negative *reduced* costs and saturated along its
//! full bottleneck residual capacity (a "bottleneck bundle", not one
//! unit at a time).

/// Edge index in a [`FlowNetwork`].
pub type EdgeId = usize;

/// A directed flow network with per-edge capacity and cost.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    /// Adjacency: for each node, indices into `edges`.
    adj: Vec<Vec<EdgeId>>,
    to: Vec<usize>,
    cap: Vec<i64>,
    cost: Vec<f64>,
}

impl FlowNetwork {
    /// Creates a network with `nodes` nodes.
    pub fn new(nodes: usize) -> FlowNetwork {
        FlowNetwork {
            adj: vec![Vec::new(); nodes],
            ..Default::default()
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap` and unit cost
    /// `cost`; returns its id. A paired residual edge is added internally.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or negative capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: f64) -> EdgeId {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "node out of range"
        );
        assert!(cap >= 0, "capacity must be non-negative");
        let id = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.cost.push(cost);
        self.adj[from].push(id);
        // Residual edge.
        self.to.push(from);
        self.cap.push(0);
        self.cost.push(-cost);
        self.adj[to].push(id + 1);
        id
    }

    /// Flow currently on edge `id` (forward edges only).
    pub fn flow_on(&self, id: EdgeId, original_cap: i64) -> i64 {
        original_cap - self.cap[id]
    }

    /// Sends up to `max_flow` units from `source` to `sink` at minimum
    /// cost. Returns `(flow_sent, total_cost)`.
    ///
    /// Successive shortest paths with Johnson potentials: one initial
    /// Bellman–Ford absorbs negative construction costs into node
    /// potentials; every subsequent search is Dijkstra over the
    /// non-negative reduced costs, and each found path is saturated
    /// along its full bottleneck residual capacity.
    pub fn min_cost_flow(&mut self, source: usize, sink: usize, max_flow: i64) -> (i64, f64) {
        let n = self.num_nodes();
        let mut flow = 0i64;
        let mut total_cost = 0.0;

        // Johnson potentials from one Bellman–Ford over the initial
        // residual graph (edge costs may be negative at construction;
        // no negative cycles by construction, so n−1 passes settle).
        let mut pot = vec![f64::INFINITY; n];
        pot[source] = 0.0;
        for _ in 0..n.saturating_sub(1) {
            let mut relaxed = false;
            for e in 0..self.to.len() {
                if self.cap[e] == 0 {
                    continue;
                }
                let u = self.to[e ^ 1];
                if pot[u].is_infinite() {
                    continue;
                }
                let nd = pot[u] + self.cost[e];
                if nd < pot[self.to[e]] - 1e-12 {
                    pot[self.to[e]] = nd;
                    relaxed = true;
                }
            }
            if !relaxed {
                break;
            }
        }

        let mut dist = vec![f64::INFINITY; n];
        let mut prev_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut done = vec![false; n];
        while flow < max_flow {
            // Dijkstra from source on reduced costs.
            dist.iter_mut().for_each(|d| *d = f64::INFINITY);
            prev_edge.iter_mut().for_each(|p| *p = None);
            done.iter_mut().for_each(|d| *d = false);
            dist[source] = 0.0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(HeapEntry {
                dist: 0.0,
                node: source,
            });
            while let Some(HeapEntry { node: u, .. }) = heap.pop() {
                if done[u] {
                    continue;
                }
                done[u] = true;
                if u == sink {
                    break;
                }
                for &e in &self.adj[u] {
                    if self.cap[e] == 0 {
                        continue;
                    }
                    let v = self.to[e];
                    if done[v] || pot[v].is_infinite() {
                        continue;
                    }
                    // Reduced cost is ≥ 0 by the potential invariant;
                    // clamp float noise so Dijkstra's premise holds.
                    let reduced = (self.cost[e] + pot[u] - pot[v]).max(0.0);
                    let nd = dist[u] + reduced;
                    if nd < dist[v] - 1e-12 {
                        dist[v] = nd;
                        prev_edge[v] = Some(e);
                        heap.push(HeapEntry { dist: nd, node: v });
                    }
                }
            }
            if dist[sink].is_infinite() {
                break; // no augmenting path
            }
            // Fold the found distances into the potentials so the next
            // round's reduced costs stay non-negative. The search stops
            // at the sink, so a node it never settled holds a tentative
            // (or no) distance: cap every update at the sink's.
            for v in 0..n {
                if pot[v].is_finite() {
                    pot[v] += dist[v].min(dist[sink]);
                }
            }
            // Bottleneck bundle: saturate the path's full residual
            // capacity in one augmentation.
            let mut bottleneck = max_flow - flow;
            let mut v = sink;
            while v != source {
                let e = prev_edge[v].expect("path exists");
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = sink;
            while v != source {
                let e = prev_edge[v].expect("path exists");
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                total_cost += self.cost[e] * bottleneck as f64;
                v = self.to[e ^ 1];
            }
            flow += bottleneck;
        }
        (flow, total_cost)
    }
}

/// Dijkstra work-queue entry ordered as a min-heap by distance.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &HeapEntry) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &HeapEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &HeapEntry) -> std::cmp::Ordering {
        // Reverse on distance for min-heap behaviour; node index breaks
        // ties deterministically. Distances are finite by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Solves a *uniform-load* assignment exactly by min-cost flow.
///
/// `values[c][k]` is the value of assigning client `c` to bucket
/// `buckets[c][k]`; every assignment consumes one capacity unit
/// (`capacities` are in units of clients). Returns `(choice, objective)`
/// with `choice[c]` an index into `buckets[c]`, or `None` if total capacity
/// cannot host every client.
pub fn solve_unit_assignment(
    buckets: &[Vec<usize>],
    values: &[Vec<f64>],
    capacities: &[i64],
) -> Option<(Vec<usize>, f64)> {
    assert_eq!(buckets.len(), values.len());
    let clients = buckets.len();
    let nbuckets = capacities.len();
    // Nodes: 0 = source, 1..=clients = clients, then buckets, then sink.
    let bucket_base = 1 + clients;
    let sink = bucket_base + nbuckets;
    let mut net = FlowNetwork::new(sink + 1);
    // Max value (to convert maximization into min-cost).
    let vmax = values
        .iter()
        .flat_map(|v| v.iter())
        .copied()
        .fold(0.0f64, f64::max);
    let mut edge_of: Vec<Vec<EdgeId>> = Vec::with_capacity(clients);
    for c in 0..clients {
        net.add_edge(0, 1 + c, 1, 0.0);
        assert_eq!(buckets[c].len(), values[c].len());
        let mut edges = Vec::with_capacity(buckets[c].len());
        for (k, &b) in buckets[c].iter().enumerate() {
            assert!(b < nbuckets, "bucket out of range");
            edges.push(net.add_edge(1 + c, bucket_base + b, 1, vmax - values[c][k]));
        }
        edge_of.push(edges);
    }
    for (b, &cap) in capacities.iter().enumerate() {
        net.add_edge(bucket_base + b, sink, cap.max(0), 0.0);
    }
    let (flow, _) = net.min_cost_flow(0, sink, clients as i64);
    if flow < clients as i64 {
        return None;
    }
    let mut choice = vec![usize::MAX; clients];
    let mut objective = 0.0;
    for c in 0..clients {
        for (k, &e) in edge_of[c].iter().enumerate() {
            if net.flow_on(e, 1) == 1 {
                choice[c] = k;
                objective += values[c][k];
                break;
            }
        }
        assert_ne!(
            choice[c],
            usize::MAX,
            "client {c} unassigned despite full flow"
        );
    }
    Some((choice, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::{AssignmentProblem, CandidateOption};
    use crate::milp::MilpConfig;
    use vdx_units::Kbps;

    #[test]
    fn simple_flow() {
        // source(0) -> 1 -> sink(2), two parallel edges of different cost.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2, 1.0);
        net.add_edge(0, 1, 2, 3.0);
        net.add_edge(1, 2, 4, 0.0);
        let (flow, cost) = net.min_cost_flow(0, 2, 4);
        assert_eq!(flow, 4);
        assert!((cost - (2.0 * 1.0 + 2.0 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn flow_stops_at_capacity() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 3, 1.0);
        let (flow, _) = net.min_cost_flow(0, 1, 10);
        assert_eq!(flow, 3);
    }

    #[test]
    fn unit_assignment_prefers_value() {
        // 2 clients, 2 buckets, capacity 1 each.
        let buckets = vec![vec![0, 1], vec![0, 1]];
        let values = vec![vec![5.0, 1.0], vec![4.0, 2.0]];
        let (choice, obj) = solve_unit_assignment(&buckets, &values, &[1, 1]).expect("feasible");
        // Optimal: client 0 -> bucket 0 (5), client 1 -> bucket 1 (2) = 7.
        assert_eq!(choice, vec![0, 1]);
        assert!((obj - 7.0).abs() < 1e-9);
    }

    #[test]
    fn unit_assignment_reroutes_an_earlier_client_through_unsettled_nodes() {
        // Bucket 0 fits one client, and the best plan gives it to client 0
        // (4 + 7 + 5) although client 1 values it most (8 + 2 + 5): the
        // last augmentation must undo an earlier one through nodes the
        // previous early-exited search left unsettled.
        let buckets = vec![vec![0, 1]; 3];
        let values = vec![vec![4.0, 2.0], vec![8.0, 7.0], vec![3.0, 5.0]];
        let (choice, obj) = solve_unit_assignment(&buckets, &values, &[1, 2]).expect("feasible");
        assert_eq!(choice, vec![0, 1, 1]);
        assert!((obj - 16.0).abs() < 1e-9);
    }

    #[test]
    fn unit_assignment_infeasible_when_capacity_short() {
        let buckets = vec![vec![0], vec![0]];
        let values = vec![vec![1.0], vec![1.0]];
        assert!(solve_unit_assignment(&buckets, &values, &[1]).is_none());
    }

    #[test]
    fn dijkstra_handles_negative_costs_via_potentials() {
        // A path whose cheap route needs the negative edge: Dijkstra
        // without potentials would miss it.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1, 5.0);
        net.add_edge(0, 2, 1, 1.0);
        net.add_edge(2, 1, 1, -4.0); // 0→2→1 costs −3, beats direct 5
        net.add_edge(1, 3, 2, 0.0);
        let (flow, cost) = net.min_cost_flow(0, 3, 2);
        assert_eq!(flow, 2);
        assert!((cost - (-3.0 + 5.0)).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn flow_matches_milp_on_uniform_load_gap() {
        use vdx_rand::StdRng;
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..10 {
            let nbuckets = rng.gen_range(2..4);
            let clients = rng.gen_range(2..6);
            let caps: Vec<i64> = (0..nbuckets).map(|_| rng.gen_range(1..4)).collect();
            if caps.iter().sum::<i64>() < clients as i64 {
                continue;
            }
            let mut buckets = Vec::new();
            let mut values = Vec::new();
            let mut gap =
                AssignmentProblem::new(caps.iter().map(|&c| Kbps::new(c as f64)).collect());
            for _ in 0..clients {
                let bs: Vec<usize> = (0..nbuckets).collect();
                let vs: Vec<f64> = bs
                    .iter()
                    .map(|_| (rng.gen_range(0..100) as f64) / 10.0)
                    .collect();
                gap.add_client(
                    bs.iter()
                        .zip(&vs)
                        .map(|(&b, &v)| CandidateOption {
                            bucket: b,
                            value: v,
                            load: Kbps::new(1.0),
                        })
                        .collect(),
                );
                buckets.push(bs);
                values.push(vs);
            }
            let flow_sol = solve_unit_assignment(&buckets, &values, &caps);
            let milp_sol = gap.solve_exact(&MilpConfig::default());
            match (flow_sol, milp_sol) {
                (Some((_, fobj)), Some(m)) => {
                    assert!(
                        (fobj - m.objective).abs() < 1e-6,
                        "trial {trial}: flow {fobj} vs milp {}",
                        m.objective
                    );
                }
                (None, None) => {}
                (f, m) => panic!("trial {trial}: feasibility disagreement {f:?} vs {m:?}"),
            }
        }
    }
}
