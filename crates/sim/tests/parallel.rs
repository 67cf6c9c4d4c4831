//! Serial-vs-parallel determinism: running an experiment on one thread
//! and on four must produce identical results — the contract the
//! experiment engine's indexed fan-out exists to uphold. Results are
//! compared through `Debug`, which prints every float to round-trip
//! precision.

use vdx_sim::experiment::{fig17, table3};
use vdx_sim::{Scenario, ScenarioConfig};

/// `run`'s result, printed, on a fresh small scenario at each thread count.
fn on_one_and_four_threads<R: std::fmt::Debug>(run: impl Fn(&Scenario) -> R) -> [String; 2] {
    let mut scenario = Scenario::build(ScenarioConfig::small());
    [1, 4].map(|threads| {
        scenario.set_threads(threads);
        format!("{:?}", run(&scenario))
    })
}

#[test]
fn table3_is_byte_identical_for_one_and_four_threads() {
    let [serial, parallel] = on_one_and_four_threads(table3::run);
    assert_eq!(serial, parallel);
}

#[test]
fn fig17_is_byte_identical_for_one_and_four_threads() {
    let [serial, parallel] = on_one_and_four_threads(fig17::run);
    assert_eq!(serial, parallel);
}
