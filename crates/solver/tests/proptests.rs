//! Property tests for the optimization substrate: the solvers must agree
//! with brute force and with each other on everything small enough to
//! enumerate, and never emit infeasible answers.

use vdx_rand::prop::{check, vec_of};
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

const CASES: u64 = 64;

/// `max Σ values·x  s.t.  Σ weights·x <= capacity, 0 <= x <= 1` over the
/// first `min(len)` items of a drawn knapsack.
fn knapsack(values: &[f64], weights: &[f64], capacity: f64) -> (LinearProgram, Vec<usize>) {
    let n = values.len().min(weights.len());
    let mut lp = LinearProgram::maximize(n);
    for (i, &value) in values.iter().enumerate().take(n) {
        lp.set_objective(i, value);
        lp.set_upper_bound(i, 1.0);
    }
    lp.add_constraint(
        weights.iter().copied().enumerate().take(n).collect(),
        Relation::Le,
        capacity,
    );
    (lp, (0..n).collect())
}

#[test]
fn milp_matches_brute_force_on_binary_knapsacks() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 3..7, |r| r.gen_range(0.0..10.0)),
                vec_of(rng, 3..7, |r| r.gen_range(0.5..5.0)),
                rng.gen_range(2.0..10.0),
            )
        },
        |(values, weights, capacity)| {
            let (lp, vars) = knapsack(values, weights, *capacity);
            let milp = solve_milp(&lp, &vars, &MilpConfig::default());
            let brute = brute_force_binary(&lp).expect("x = 0 is always feasible");
            match milp {
                MilpOutcome::Solved {
                    objective,
                    values,
                    proven_optimal,
                } => {
                    assert!(proven_optimal);
                    assert!(
                        (objective - brute).abs() < 1e-6,
                        "milp {objective} vs brute {brute}"
                    );
                    assert!(lp.is_feasible(&values, 1e-6));
                }
                other => panic!("unexpected {other:?}"),
            }
        },
    );
}

#[test]
fn lp_relaxation_bounds_milp() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 3..6, |r| r.gen_range(-3.0..8.0)),
                vec_of(rng, 3..6, |r| r.gen_range(0.5..4.0)),
                rng.gen_range(1.0..8.0),
            )
        },
        |(values, weights, capacity)| {
            let (lp, vars) = knapsack(values, weights, *capacity);
            let relax = match solve_lp(&lp) {
                LpOutcome::Optimal(s) => s.objective,
                other => panic!("lp failed: {other:?}"),
            };
            if let MilpOutcome::Solved { objective, .. } =
                solve_milp(&lp, &vars, &MilpConfig::default())
            {
                assert!(
                    objective <= relax + 1e-6,
                    "integer optimum {objective} above relaxation {relax}"
                );
            }
        },
    );
}

#[test]
fn ge_and_eq_constraints_are_honoured() {
    check(
        CASES,
        |rng| {
            (
                rng.gen_range(1.0..10.0),
                rng.gen_range(0.5..5.0),
                rng.gen_range(0.5..5.0),
            )
        },
        |&(demand, c0, c1)| {
            // min c0 x + c1 y  s.t. x + y = demand: optimum puts all mass on
            // the cheaper variable.
            let mut lp = LinearProgram::minimize(2);
            lp.set_objective(0, c0).set_objective(1, c1);
            lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, demand);
            match solve_lp(&lp) {
                LpOutcome::Optimal(s) => {
                    assert!(lp.is_feasible(&s.values, 1e-6));
                    let expect = c0.min(c1) * demand;
                    assert!(
                        (s.objective - expect).abs() < 1e-6,
                        "got {} expected {}",
                        s.objective,
                        expect
                    );
                }
                other => panic!("{other:?}"),
            }
        },
    );
}

#[test]
fn flow_and_milp_agree_on_unit_assignments() {
    check(
        CASES,
        |rng| {
            let values: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..9.0)).collect();
            (values, rng.gen_range(1i64..3), rng.gen_range(1i64..3))
        },
        |(values, cap0, cap1)| {
            // 3 clients x 2 buckets.
            let buckets = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
            let vals: Vec<Vec<f64>> = values.chunks(2).map(|c| c.to_vec()).collect();
            let caps = vec![*cap0, *cap1];
            let flow = solve_unit_assignment(&buckets, &vals, &caps);

            let mut gap =
                AssignmentProblem::new(caps.iter().map(|&c| Kbps::new(c as f64)).collect());
            for v in &vals {
                gap.add_client(
                    v.iter()
                        .enumerate()
                        .map(|(b, &value)| CandidateOption {
                            bucket: b,
                            value,
                            load: Kbps::new(1.0),
                        })
                        .collect(),
                );
            }
            let milp = gap.solve_exact(&MilpConfig::default());
            match (flow, milp) {
                (Some((_, fobj)), Some(m)) => {
                    assert!(
                        (fobj - m.objective).abs() < 1e-6,
                        "flow {fobj} vs milp {}",
                        m.objective
                    );
                }
                (None, None) => {}
                (f, m) => panic!(
                    "feasibility disagreement: {:?} vs {:?}",
                    f.map(|x| x.1),
                    m.map(|x| x.objective)
                ),
            }
        },
    );
}

/// One client per load, each offered every bucket at a seed-derived value.
fn seeded_problem(
    caps: Vec<Kbps>,
    loads: &[f64],
    value: impl Fn(usize, usize) -> f64,
) -> AssignmentProblem {
    let n_buckets = caps.len();
    let mut p = AssignmentProblem::new(caps);
    for (i, load) in loads.iter().enumerate() {
        p.add_client(
            (0..n_buckets)
                .map(|b| CandidateOption {
                    bucket: b,
                    value: value(i, b),
                    load: Kbps::new(*load),
                })
                .collect(),
        );
    }
    p
}

#[test]
fn greedy_assignment_is_complete_and_deterministic() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 1..5, |r| r.gen_range(1.0..20.0)),
                vec_of(rng, 1..10, |r| r.gen_range(0.5..5.0)),
                rng.next_u32() as usize,
            )
        },
        |(caps, loads, seed)| {
            let caps = caps.iter().map(|&c| Kbps::new(c)).collect();
            let p = seeded_problem(caps, loads, |i, b| ((seed + i * 3 + b * 7) % 11) as f64);
            let a1 = p.solve_greedy();
            let a2 = p.solve_greedy();
            assert_eq!(&a1.choice, &a2.choice, "deterministic");
            assert_eq!(a1.choice.len(), loads.len(), "complete");
            // Objective accounting is self-consistent.
            assert!((a1.objective - p.value_of(&a1.choice)).abs() < 1e-9);
            // Local search never hurts.
            let improved = p.improve_local(a1.clone(), 4);
            assert!(improved.objective >= a1.objective - 1e-9);
        },
    );
}

/// On feasible instances (every bucket alone can hold the whole
/// workload) no solver may oversubscribe, and the demand placed by a
/// choice vector must land on buckets in full — the conservation
/// invariant a debug build also checks inside `bucket_loads` via
/// `debug_assert!`.
#[test]
fn solvers_conserve_demand_and_never_oversubscribe() {
    check(
        CASES,
        |rng| {
            (
                rng.gen_range(2usize..5),
                vec_of(rng, 1..8, |r| r.gen_range(0.5..4.0)),
                rng.gen_range(0.0..10.0),
                rng.next_u32() as usize,
            )
        },
        |(n_buckets, loads, headroom, seed)| {
            let offered: f64 = loads.iter().sum();
            let caps = vec![Kbps::new(offered + headroom); *n_buckets];
            let p = seeded_problem(caps, loads, |i, b| ((seed + i * 5 + b * 3) % 13) as f64);
            let tol = Kbps::new(1e-9);
            for a in [p.solve_greedy(), p.solve_heuristic()] {
                assert!(p.respects_capacities(&a.choice, tol));
                let landed: f64 = p.bucket_loads(&a.choice).iter().map(|l| l.as_f64()).sum();
                assert!(
                    (landed - offered).abs() <= 1e-6 * offered.max(1.0),
                    "placed {offered} but buckets hold {landed}"
                );
            }
            if let Some(exact) = p.solve_exact(&MilpConfig::default()) {
                assert!(p.respects_capacities(&exact.choice, tol));
            }
        },
    );
}

/// Delta detection counts exactly the perturbed clients, for any
/// random demand delta between consecutive problems. (What the broker
/// does with the delta — replay or re-solve — is pinned by
/// `vdx-broker`'s `warm_context_equals_cold_solves_across_demand_deltas`.)
#[test]
fn problem_delta_counts_exactly_the_perturbed_clients() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 2..5, |r| r.gen_range(2.0..20.0)),
                vec_of(rng, 2..10, |r| r.gen_range(0.5..4.0)),
                rng.next_u32() as usize,
                rng.next_u32() as u16,
                rng.gen_range(0.25..3.0),
            )
        },
        |(caps, loads, seed, perturb_mask, nudge)| {
            let perturbed = |mask: u16, i: usize| (mask >> (i % 16)) & 1 == 1;
            let build = |mask: u16| {
                let caps = caps.iter().map(|&c| Kbps::new(c)).collect();
                seeded_problem(caps, loads, |i, b| {
                    let shift = if perturbed(mask, i) { *nudge } else { 0.0 };
                    ((seed + i * 3 + b * 7) % 11) as f64 + shift
                })
            };
            let base = build(0);
            let moved = build(*perturb_mask);
            let expected = (0..loads.len())
                .filter(|&i| perturbed(*perturb_mask, i))
                .count() as u64;
            let delta = ProblemDelta::between(&base, &moved);
            assert_eq!(delta.changed_clients, expected);
            assert_eq!(delta.changed_buckets, 0);
            assert!(!delta.shape_changed);
            assert_eq!(delta.is_empty(), expected == 0);
        },
    );
}
