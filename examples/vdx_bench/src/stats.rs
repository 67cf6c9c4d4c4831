//! Order statistics: nearest-rank percentiles for latency samples and the
//! quartiles `compare` judges spreads with.

/// Sorts `values` ascending; samples are finite by construction.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it. Empty input
/// gives 0, the value a metric reports on a workload that never runs it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` computes the spread the way the benchmark's gate does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `None` when it cannot be
/// computed (fewer than two values or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Checks the functions above on vectors with known answers.
pub fn selftest() -> Result<(), String> {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let checks = [
        ("p50 of 1..=10", percentile(&ten, 50.0), 5.0),
        ("p90 of 1..=10", percentile(&ten, 90.0), 9.0),
        ("p99 of 1..=10", percentile(&ten, 99.0), 10.0),
        ("p0 of 1..=10", percentile(&ten, 0.0), 1.0),
        ("p50 of one sample", percentile(&[7.0], 50.0), 7.0),
        ("p99 of nothing", percentile(&[], 99.0), 0.0),
        ("median of 3,1,2", median(&[3.0, 1.0, 2.0]), 2.0),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(format!("{what}: got {got}, want {want}"));
        }
    }
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    if quartiles(&ten) != Some([2.75, 5.5, 8.25]) {
        return Err(format!("quartiles of 1..=10: got {:?}", quartiles(&ten)));
    }
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    let five = [16.0, 1.0, 4.0, 2.0, 8.0];
    if quartiles(&five) != Some([1.5, 4.0, 12.0]) {
        return Err(format!(
            "quartiles of powers of two: got {:?}",
            quartiles(&five)
        ));
    }
    if spread(&five) != Some((12.0 - 1.5) / 4.0) {
        return Err(format!("spread of powers of two: got {:?}", spread(&five)));
    }
    if quartiles(&[1.0]).is_some() {
        return Err("quartiles of one value should be None".into());
    }
    Ok(())
}
