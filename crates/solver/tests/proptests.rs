//! Property tests for the optimization substrate: the solvers must agree
//! with brute force and with each other on everything small enough to
//! enumerate, and never emit infeasible answers.

use proptest::prelude::*;
use vdx_solver::flow::solve_unit_assignment;
use vdx_solver::{
    solve_lp, solve_milp, AssignmentProblem, CandidateOption, LinearProgram, LpOutcome, MilpConfig,
    MilpOutcome, ProblemDelta, Relation,
};
use vdx_units::Kbps;

/// Brute-force optimum of a binary knapsack-ish MILP with ≤ 12 variables.
fn brute_force_binary(lp: &LinearProgram) -> Option<f64> {
    let n = lp.num_vars;
    assert!(n <= 12);
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
        if lp.is_feasible(&x, 1e-9) {
            let v = lp.objective_value(&x);
            best = Some(match best {
                None => v,
                Some(b) => {
                    if lp.maximize {
                        b.max(v)
                    } else {
                        b.min(v)
                    }
                }
            });
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn milp_matches_brute_force_on_binary_knapsacks(
        values in proptest::collection::vec(0.0f64..10.0, 3..7),
        weights in proptest::collection::vec(0.5f64..5.0, 3..7),
        capacity in 2.0f64..10.0,
    ) {
        let n = values.len().min(weights.len());
        let mut lp = LinearProgram::maximize(n);
        for i in 0..n {
            lp.set_objective(i, values[i]);
            lp.set_upper_bound(i, 1.0);
        }
        lp.add_constraint(
            (0..n).map(|i| (i, weights[i])).collect(),
            Relation::Le,
            capacity,
        );
        let vars: Vec<usize> = (0..n).collect();
        let milp = solve_milp(&lp, &vars, &MilpConfig::default());
        let brute = brute_force_binary(&lp).expect("x = 0 is always feasible");
        match milp {
            MilpOutcome::Solved { objective, values, proven_optimal } => {
                prop_assert!(proven_optimal);
                prop_assert!((objective - brute).abs() < 1e-6,
                    "milp {objective} vs brute {brute}");
                prop_assert!(lp.is_feasible(&values, 1e-6));
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn lp_relaxation_bounds_milp(
        values in proptest::collection::vec(-3.0f64..8.0, 3..6),
        weights in proptest::collection::vec(0.5f64..4.0, 3..6),
        capacity in 1.0f64..8.0,
    ) {
        let n = values.len().min(weights.len());
        let mut lp = LinearProgram::maximize(n);
        for i in 0..n {
            lp.set_objective(i, values[i]);
            lp.set_upper_bound(i, 1.0);
        }
        lp.add_constraint((0..n).map(|i| (i, weights[i])).collect(), Relation::Le, capacity);
        let relax = match solve_lp(&lp) {
            LpOutcome::Optimal(s) => s.objective,
            other => { prop_assert!(false, "lp failed: {:?}", other); unreachable!() }
        };
        let vars: Vec<usize> = (0..n).collect();
        if let MilpOutcome::Solved { objective, .. } =
            solve_milp(&lp, &vars, &MilpConfig::default())
        {
            prop_assert!(objective <= relax + 1e-6,
                "integer optimum {objective} above relaxation {relax}");
        }
    }

    #[test]
    fn ge_and_eq_constraints_are_honoured(
        demand in 1.0f64..10.0,
        c0 in 0.5f64..5.0,
        c1 in 0.5f64..5.0,
    ) {
        // min c0 x + c1 y  s.t. x + y = demand: optimum puts all mass on
        // the cheaper variable.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, c0).set_objective(1, c1);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, demand);
        match solve_lp(&lp) {
            LpOutcome::Optimal(s) => {
                prop_assert!(lp.is_feasible(&s.values, 1e-6));
                let expect = c0.min(c1) * demand;
                prop_assert!((s.objective - expect).abs() < 1e-6,
                    "got {} expected {}", s.objective, expect);
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }

    #[test]
    fn flow_and_milp_agree_on_unit_assignments(
        values in proptest::collection::vec(0.0f64..9.0, 6),
        cap0 in 1i64..3,
        cap1 in 1i64..3,
    ) {
        // 3 clients x 2 buckets.
        let buckets = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
        let vals: Vec<Vec<f64>> = values.chunks(2).map(|c| c.to_vec()).collect();
        let caps = vec![cap0, cap1];
        let flow = solve_unit_assignment(&buckets, &vals, &caps);

        let mut gap = AssignmentProblem::new(vec![Kbps::new(cap0 as f64), Kbps::new(cap1 as f64)]);
        for v in &vals {
            gap.add_client(
                v.iter()
                    .enumerate()
                    .map(|(b, &value)| CandidateOption { bucket: b, value, load: Kbps::new(1.0) })
                    .collect(),
            );
        }
        let milp = gap.solve_exact(&MilpConfig::default());
        match (flow, milp) {
            (Some((_, fobj)), Some(m)) => {
                prop_assert!((fobj - m.objective).abs() < 1e-6,
                    "flow {fobj} vs milp {}", m.objective);
            }
            (None, None) => {}
            (f, m) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}",
                f.map(|x| x.1), m.map(|x| x.objective)),
        }
    }

    #[test]
    fn greedy_assignment_is_complete_and_deterministic(
        caps in proptest::collection::vec(1.0f64..20.0, 1..5),
        loads in proptest::collection::vec(0.5f64..5.0, 1..10),
        seed in any::<u32>(),
    ) {
        let mut p = AssignmentProblem::new(caps.iter().map(|&c| Kbps::new(c)).collect());
        for (i, load) in loads.iter().enumerate() {
            let options: Vec<CandidateOption> = (0..caps.len())
                .map(|b| CandidateOption {
                    bucket: b,
                    value: ((seed as usize + i * 3 + b * 7) % 11) as f64,
                    load: Kbps::new(*load),
                })
                .collect();
            p.add_client(options);
        }
        let a1 = p.solve_greedy();
        let a2 = p.solve_greedy();
        prop_assert_eq!(&a1.choice, &a2.choice, "deterministic");
        prop_assert_eq!(a1.choice.len(), loads.len(), "complete");
        // Objective accounting is self-consistent.
        prop_assert!((a1.objective - p.value_of(&a1.choice)).abs() < 1e-9);
        // Local search never hurts.
        let improved = p.improve_local(a1.clone(), 4);
        prop_assert!(improved.objective >= a1.objective - 1e-9);
    }

    /// On feasible instances (every bucket alone can hold the whole
    /// workload) no solver may oversubscribe, and the demand placed by a
    /// choice vector must land on buckets in full — the conservation
    /// invariant the `strict-invariants` feature also checks inside
    /// `bucket_loads` via `debug_assert!`.
    #[test]
    fn solvers_conserve_demand_and_never_oversubscribe(
        n_buckets in 2usize..5,
        loads in proptest::collection::vec(0.5f64..4.0, 1..8),
        headroom in 0.0f64..10.0,
        seed in any::<u32>(),
    ) {
        let offered: f64 = loads.iter().sum();
        let caps: Vec<Kbps> = (0..n_buckets)
            .map(|_| Kbps::new(offered + headroom))
            .collect();
        let mut p = AssignmentProblem::new(caps);
        for (i, load) in loads.iter().enumerate() {
            p.add_client(
                (0..n_buckets)
                    .map(|b| CandidateOption {
                        bucket: b,
                        value: ((seed as usize + i * 5 + b * 3) % 13) as f64,
                        load: Kbps::new(*load),
                    })
                    .collect(),
            );
        }
        let tol = Kbps::new(1e-9);
        for a in [p.solve_greedy(), p.solve_heuristic()] {
            prop_assert!(p.respects_capacities(&a.choice, tol));
            let landed: f64 = p.bucket_loads(&a.choice).iter().map(|l| l.as_f64()).sum();
            prop_assert!((landed - offered).abs() <= 1e-6 * offered.max(1.0),
                "placed {offered} but buckets hold {landed}");
        }
        if let Some(exact) = p.solve_exact(&MilpConfig::default()) {
            prop_assert!(p.respects_capacities(&exact.choice, tol));
        }
    }

    /// Delta detection counts exactly the perturbed clients, for any
    /// random demand delta between consecutive problems. (What the broker
    /// does with the delta — replay or re-solve — is pinned by
    /// `vdx-broker`'s `warm_context_equals_cold_solves_across_demand_deltas`.)
    #[test]
    fn problem_delta_counts_exactly_the_perturbed_clients(
        caps in proptest::collection::vec(2.0f64..20.0, 2..5),
        loads in proptest::collection::vec(0.5f64..4.0, 2..10),
        seed in any::<u32>(),
        perturb_mask in any::<u16>(),
        nudge in 0.25f64..3.0,
    ) {
        let build = |mask: u16| {
            let mut p = AssignmentProblem::new(caps.iter().map(|&c| Kbps::new(c)).collect());
            for (i, load) in loads.iter().enumerate() {
                let shift = if (mask >> (i % 16)) & 1 == 1 { nudge } else { 0.0 };
                p.add_client(
                    (0..caps.len())
                        .map(|b| CandidateOption {
                            bucket: b,
                            value: ((seed as usize + i * 3 + b * 7) % 11) as f64 + shift,
                            load: Kbps::new(*load),
                        })
                        .collect(),
                );
            }
            p
        };
        let base = build(0);
        let moved = build(perturb_mask);
        let expected = (0..loads.len())
            .filter(|i| (perturb_mask >> (i % 16)) & 1 == 1)
            .count() as u64;
        let delta = ProblemDelta::between(&base, &moved);
        prop_assert_eq!(delta.changed_clients, expected);
        prop_assert_eq!(delta.changed_buckets, 0);
        prop_assert!(!delta.shape_changed);
        prop_assert_eq!(delta.is_empty(), expected == 0);
    }
}
