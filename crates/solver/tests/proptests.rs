//! Property tests for the optimization substrate through its public API:
//! the heuristic always answers, completely and deterministically, and
//! never oversubscribes a feasible instance. (How far the heuristic is from the optimum, and
//! that the dual bound never undercuts it, are `gap.rs`'s own tests: the
//! brute-force oracle lives there, `#[cfg(test)]`.)

use vdx_rand::prop::{check, vec_of};
use vdx_solver::{AssignmentProblem, CandidateOption};
use vdx_units::Kbps;

const CASES: u64 = 64;

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
        },
    );
}
