//! The broker's assignment problem (generalized assignment, GAP).
//!
//! This is the paper's Fig 9 ILP in structural form: every client picks
//! exactly one of its candidate options (client-to-cluster matchings), each
//! option has a *value* (the `wp·performance − wc·cost·bitrate` term) and a
//! *load* (the client's bitrate) against the option's capacity *bucket*
//! (the cluster). The broker maximizes total value subject to per-bucket
//! capacity.
//!
//! The problem is held in Fig 9's own shape. What an option is worth
//! depends on the option (its score and price) and on the client (its
//! sessions and bitrate), and on nothing else: an option of a bucket list
//! carries two coefficients `a` and `b`, a client two weights `x` and `y`
//! and one load, and a value is [`option_value`] `= a·x − b·y`, computed
//! where it is read. Nothing per (client, option) is stored.
//!
//! One solve path, and its oracle:
//!
//! * [`AssignmentProblem::solve_greedy`] — regret-ordered greedy: clients
//!   with the most to lose choose first; always produces a complete
//!   assignment (falling back to the least-overloading option when nothing
//!   fits, since a real broker must send every client *somewhere*).
//! * [`AssignmentProblem::improve_local`] — first-improvement local
//!   search on top of any assignment: single-client moves (no swaps).
//! * [`AssignmentProblem::dual_bound`] — a Lagrangian upper bound on the
//!   optimum, the number the heuristic is scored against at any scale
//!   (`repro gap`). The bound's own oracle is brute-force enumeration, in
//!   this module's tests.
//!
//! Both solve steps read each client through one pass over its list that
//! keeps its `PREFIX` (4) best options, in (value desc, index asc) order,
//! and its regret (the first two values' difference). Greedy takes the
//! first prefix entry that fits; local search moves a client to the
//! lowest-index entry ahead of its pick that is valued above it and fits.
//! Either reads the whole list, exactly as if there were no prefix, when
//! nothing in the prefix fits, when the client's pick lies outside it, or
//! when the client has a NaN value (which orders nothing). At full scale
//! picks sit at rank ≤ 2 (seed 2017) and ≤ 13 (seed 44), so a solve reads
//! each whole list once, in that pass. The bound reads every option on
//! each of its steps.
//!
//! Capacity semantics: the capacities given here are what the broker
//! *believes* (designs differ in how accurate that belief is); true-capacity
//! congestion is measured downstream in `vdx-sim`.

use vdx_units::Kbps;

/// Subgradient steps [`AssignmentProblem::dual_bound`] takes: constants,
/// not knobs, so the gaps `repro gap` prints are a function of the problem.
/// At full scale the bound moves in no printed digit between 300 and 5,000.
pub const DUAL_ITERATIONS: usize = 300;
/// Steps without improvement before the step length is halved.
const DUAL_PATIENCE: u32 = 10;
/// Options per client the solve holds in value order (module docs). Any
/// length gives the same answer; four covers every full-scale pick at
/// seed 2017 and all but a few groups a round at seed 44.
const PREFIX: usize = 4;

/// Fig 9's value of an option with coefficients `(a, b)` for a client with
/// weights `(x, y)`: `a·x − b·y`. The one copy of the formula: the broker's
/// `CpPolicy::value` evaluates it too, so a value read here has the bits
/// that one has.
pub fn option_value(a: f64, b: f64, x: f64, y: f64) -> f64 {
    a * x - b * y
}

/// One candidate option for a client, as readers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateOption {
    /// Capacity bucket (cluster) the option consumes.
    pub bucket: usize,
    /// Contribution to the objective if chosen (higher is better).
    pub value: f64,
    /// Load placed on the bucket if chosen (e.g. the client's bitrate).
    pub load: Kbps,
}

/// One option of a bucket list: its two coefficients ([`option_value`])
/// and its bucket, in 20 bytes (packed to 4-byte alignment; a full-scale
/// Omniscient GAP holds 140,400 of them). Read a field by value, as in
/// `{ o.bucket }`: a reference to a packed field does not compile.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub struct ListOption {
    /// The coefficient of a client's `x` (Fig 9: `−wp·score`).
    pub a: f64,
    /// The coefficient of a client's `y`, subtracted (Fig 9: `wc·price`).
    pub b: f64,
    /// Capacity bucket (cluster) the option consumes.
    pub bucket: u32,
}

const _: () = assert!(std::mem::size_of::<ListOption>() == 20);

/// A generalized assignment problem.
///
/// Clients offered the same options share one bucket list
/// ([`AssignmentProblem::add_bucket_list`]): a round gives every group of
/// a city the same candidates, so 2 718 clients name 400 lists at full
/// scale. A client is its list, its two weights and its load
/// ([`AssignmentProblem::add_client_on`]); [`AssignmentProblem::add_client`]
/// is a client with a list of its own. Every reader sees a client as its
/// [`CandidateOption`]s, in its list's order.
///
/// `PartialEq` compares that representation exactly (IEEE `==` on the
/// floats): equal problems offer every client equal options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentProblem {
    /// Capacity per bucket.
    pub capacities: Vec<Kbps>,
    /// Each bucket list, once.
    lists: Vec<Vec<ListOption>>,
    /// Per client, in client order.
    clients: Vec<Client>,
}

/// A client: the list it is offered, its weights and its load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Client {
    list: usize,
    x: f64,
    y: f64,
    load: Kbps,
}

/// One client's options: its list beside its weights and load.
#[derive(Clone, Copy)]
struct Options<'a> {
    list: &'a [ListOption],
    x: f64,
    y: f64,
    load: Kbps,
}

impl<'a> Options<'a> {
    fn len(&self) -> usize {
        self.list.len()
    }

    fn bucket(&self, i: usize) -> usize {
        self.list[i].bucket as usize
    }

    fn value(&self, i: usize) -> f64 {
        let o = self.list[i];
        option_value(o.a, o.b, self.x, self.y)
    }

    fn get(&self, i: usize) -> CandidateOption {
        CandidateOption {
            bucket: self.bucket(i),
            value: self.value(i),
            load: self.load,
        }
    }

    fn iter(self) -> impl ExactSizeIterator<Item = CandidateOption> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// What one pass over a client's list keeps for the solve.
struct Prefix {
    /// The best `len` options as `(index, value)`, in (value desc, index
    /// asc) order.
    top: [(usize, f64); PREFIX],
    len: usize,
    /// Whether a value is NaN: the client then has no value order, and
    /// every step reads its whole list.
    nan: bool,
    /// Best value minus second best; +∞ for a single option.
    regret: f64,
}

impl Prefix {
    const EMPTY: Prefix = Prefix {
        top: [(0, f64::NEG_INFINITY); PREFIX],
        len: 0,
        nan: false,
        regret: f64::INFINITY,
    };

    fn of(opts: Options<'_>) -> Prefix {
        let (x, y, head) = (opts.x, opts.y, opts.len().min(PREFIX));
        let mut p = Prefix {
            len: head,
            ..Prefix::EMPTY
        };
        let mut nan = false;
        for (i, o) in opts.list[..head].iter().enumerate() {
            let v = option_value(o.a, o.b, x, y);
            nan |= v.is_nan();
            p.insert(i, i, v);
        }
        // Past the head an option enters only strictly above the last
        // entry: an equal value later in the list ranks after it.
        let mut last = p.top[PREFIX - 1].1;
        for (i, o) in opts.list.iter().enumerate().skip(head) {
            let v = option_value(o.a, o.b, x, y);
            nan |= v.is_nan();
            if v > last {
                p.insert(PREFIX - 1, i, v);
                last = p.top[PREFIX - 1].1;
            }
        }
        p.nan = nan;
        if nan {
            p.regret = regret((0..opts.len()).map(|i| opts.value(i)));
        } else if opts.len() >= 2 {
            p.regret = p.top[0].1 - p.top[1].1;
        }
        p
    }

    /// Puts option `i` of value `v` at slot `j` or above it, past every
    /// entry valued at least `v`; what was in slot `j` drops out.
    fn insert(&mut self, mut j: usize, i: usize, v: f64) {
        while j > 0 && v > self.top[j - 1].1 {
            self.top[j] = self.top[j - 1];
            j -= 1;
        }
        self.top[j] = (i, v);
    }

    /// The entries, best first; none for a NaN client.
    fn entries(&self) -> &[(usize, f64)] {
        if self.nan {
            &[]
        } else {
            &self.top[..self.len]
        }
    }
}

/// A complete assignment: for each client, the index into its option list.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `choice[c]` = index into client `c`'s options.
    pub choice: Vec<usize>,
    /// Total value of the assignment.
    pub objective: f64,
}

impl AssignmentProblem {
    /// Creates a problem with the given bucket capacities.
    pub fn new(capacities: Vec<Kbps>) -> AssignmentProblem {
        AssignmentProblem {
            capacities,
            ..AssignmentProblem::default()
        }
    }

    /// Adds a client with its candidate options, on a bucket list of its
    /// own; returns the client index. Each option becomes `a = value`,
    /// `b = 0` for a client of weights `x = 1`, `y = 0`: `value·1 − 0·0`
    /// is `value`, bit for bit (NaN and ±0.0 included).
    ///
    /// # Panics
    /// Panics if `options` is empty, references an unknown bucket, carries
    /// a negative load, or carries loads that differ: a client has one
    /// load, whichever option it takes.
    pub fn add_client(&mut self, options: Vec<CandidateOption>) -> usize {
        let list = options.iter().map(|o| {
            let bucket = u32::try_from(o.bucket);
            assert!(bucket.is_ok(), "bucket {} out of range", o.bucket);
            ListOption {
                a: o.value,
                b: 0.0,
                bucket: bucket.unwrap_or(u32::MAX),
            }
        });
        let list = self.add_bucket_list(list.collect());
        let load = options[0].load;
        assert!(
            (options.iter()).all(|o| o.load.as_f64().to_bits() == load.as_f64().to_bits()),
            "a client's options must carry one load"
        );
        self.add_client_on(list, 1.0, 0.0, load)
    }

    /// Adds a bucket list that any number of clients can be offered
    /// ([`AssignmentProblem::add_client_on`]); returns its index.
    ///
    /// # Panics
    /// Panics if `options` is empty or references an unknown bucket.
    pub fn add_bucket_list(&mut self, options: Vec<ListOption>) -> usize {
        assert!(
            !options.is_empty(),
            "every client needs at least one option"
        );
        for o in &options {
            let bucket = o.bucket as usize;
            assert!(
                bucket < self.capacities.len(),
                "bucket {bucket} out of range"
            );
        }
        self.lists.push(options);
        self.lists.len() - 1
    }

    /// Adds a client offered the options of list `list`, with weights
    /// `(x, y)` ([`option_value`]) and `load` on whichever bucket it takes;
    /// returns the client index.
    ///
    /// # Panics
    /// Panics if `list` is unknown or `load` is negative.
    pub fn add_client_on(&mut self, list: usize, x: f64, y: f64, load: Kbps) -> usize {
        assert!(list < self.lists.len(), "bucket list {list} out of range");
        assert!(load >= Kbps::ZERO, "loads must be non-negative");
        self.clients.push(Client { list, x, y, load });
        self.clients.len() - 1
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Client `c`'s options, in order.
    ///
    /// # Panics
    /// Panics if `c` is not a client.
    pub fn options_of(&self, c: usize) -> impl ExactSizeIterator<Item = CandidateOption> + '_ {
        self.client(c).iter()
    }

    /// The bucket of option `option` of client `c`.
    ///
    /// # Panics
    /// Panics if `c` is not a client or `option` is not one of its options.
    pub fn bucket_of(&self, c: usize, option: usize) -> usize {
        self.client(c).bucket(option)
    }

    fn client(&self, c: usize) -> Options<'_> {
        let Client { list, x, y, load } = self.clients[c];
        Options {
            list: &self.lists[list],
            x,
            y,
            load,
        }
    }

    fn each_client(&self) -> impl Iterator<Item = Options<'_>> {
        (0..self.clients.len()).map(|c| self.client(c))
    }

    /// Total value of a choice vector.
    pub fn value_of(&self, choice: &[usize]) -> f64 {
        choice
            .iter()
            .enumerate()
            .map(|(c, &o)| self.client(c).value(o))
            .sum()
    }

    /// Load placed on each bucket by a choice vector.
    pub fn bucket_loads(&self, choice: &[usize]) -> Vec<Kbps> {
        let mut loads = vec![Kbps::ZERO; self.capacities.len()];
        for (c, &o) in choice.iter().enumerate() {
            let opts = self.client(c);
            loads[opts.bucket(o)] += opts.load;
        }
        // Conservation: the demand placed by the choice vector must equal
        // the load that lands on buckets — any drift is an accounting bug.
        #[cfg(debug_assertions)]
        {
            let placed: f64 = (0..choice.len())
                .map(|c| self.client(c).load.as_f64())
                .sum();
            let landed: f64 = loads.iter().map(|l| l.as_f64()).sum();
            debug_assert!(
                (placed - landed).abs() <= 1e-6 * placed.abs().max(1.0),
                "bucket loads lost demand: placed {placed}, landed {landed}"
            );
        }
        loads
    }

    /// Whether a choice vector respects all (believed) capacities.
    pub fn respects_capacities(&self, choice: &[usize], tol: Kbps) -> bool {
        self.bucket_loads(choice)
            .iter()
            .zip(&self.capacities)
            .all(|(l, c)| *l <= *c + tol)
    }

    /// Each client's prefix, in client order: the one pass over every
    /// option that the solve makes.
    fn prefixes(&self) -> Vec<Prefix> {
        self.each_client().map(Prefix::of).collect()
    }

    /// Regret-ordered greedy construction (see module docs). Always returns
    /// a complete assignment, whatever the option values are: every float
    /// comparison is total, so a NaN value (a hostile bid price reaches
    /// here through the daemon) is ordered like any other key, not a panic.
    pub fn solve_greedy(&self) -> Assignment {
        self.greedy(&self.prefixes())
    }

    fn greedy(&self, prefixes: &[Prefix]) -> Assignment {
        let n = self.num_clients();
        // Order clients by regret (gap between best and second-best value),
        // largest first; ties by client index for determinism.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            cmp_values(prefixes[b].regret, prefixes[a].regret).then(a.cmp(&b))
        });

        let mut remaining = self.capacities.clone();
        let mut choice = vec![0usize; n];
        for &c in &order {
            let opts = self.client(c);
            // The best-valued option that fits, lowest index among equals:
            // the first prefix entry that fits, or the whole list's scan.
            let fits = |&&(i, _): &&(usize, f64)| opts.load <= remaining[opts.bucket(i)];
            let pick = match prefixes[c].entries().iter().find(fits) {
                Some(&(i, _)) => i,
                None => best_fit(opts, &remaining, &self.capacities),
            };
            remaining[opts.bucket(pick)] -= opts.load;
            choice[c] = pick;
        }
        let objective = self.value_of(&choice);
        Assignment { choice, objective }
    }

    /// First-improvement local search: single-client moves (no two-client
    /// swaps), bounded by `max_rounds` full passes. Only accepts moves that
    /// keep (believed) capacities respected for every touched bucket, so a
    /// feasible input stays feasible; infeasible inputs can only improve.
    /// A client moves to the lowest-index option valued above its pick
    /// that fits.
    pub fn improve_local(&self, start: Assignment, max_rounds: usize) -> Assignment {
        self.local(&self.prefixes(), start, max_rounds)
    }

    fn local(&self, prefixes: &[Prefix], start: Assignment, max_rounds: usize) -> Assignment {
        let mut choice = start.choice;
        let mut loads = self.bucket_loads(&choice);
        for _ in 0..max_rounds {
            let mut improved = false;
            // Single-client moves.
            for ((opts, prefix), pick) in self.each_client().zip(prefixes).zip(choice.iter_mut()) {
                let (from, load) = (opts.bucket(*pick), opts.load);
                let fits = |to: usize| {
                    let after = if to == from {
                        loads[to] - load + load
                    } else {
                        loads[to] + load
                    };
                    after.as_f64() <= self.capacities[to].as_f64() + 1e-9
                };
                // Every option valued above the pick ranks ahead of it, so
                // a pick in the prefix has all its candidates there.
                let entries = prefix.entries();
                let to = match entries.iter().position(|&(i, _)| i == *pick) {
                    Some(k) => {
                        let cur = entries[k].1;
                        let ahead = entries[..k].iter().filter(|&&(_, v)| v > cur);
                        ahead
                            .map(|&(i, _)| i)
                            .filter(|&i| fits(opts.bucket(i)))
                            .min()
                    }
                    None => {
                        let cur = opts.value(*pick);
                        (0..opts.len()).find(|&i| {
                            if i == *pick || opts.value(i) <= cur {
                                return false;
                            }
                            fits(opts.bucket(i))
                        })
                    }
                };
                if let Some(i) = to {
                    loads[from] -= load;
                    loads[opts.bucket(i)] += load;
                    *pick = i;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        let objective = self.value_of(&choice);
        Assignment { choice, objective }
    }

    /// Greedy followed by local search — the production pipeline, over
    /// one pass of prefixes.
    pub fn solve_heuristic(&self) -> Assignment {
        let prefixes = self.prefixes();
        self.local(&prefixes, self.greedy(&prefixes), 8)
    }

    /// An upper bound on the value of any capacity-respecting assignment:
    /// the Lagrangian dual of the capacity rows. For per-bucket prices
    /// `λ ≥ 0`, `Σ_clients max_o (value − λ[bucket]·load) + Σ_buckets
    /// λ·capacity` bounds the optimum whatever the prices are. The prices
    /// take [`DUAL_ITERATIONS`] projected-subgradient steps of Polyak
    /// length towards `incumbent` (the heuristic's objective: only the
    /// step length reads it, the bound holds for any value), halved
    /// whenever ten steps in a row bring no improvement (`DUAL_PATIENCE`); the
    /// smallest bound seen is returned. One pass over every option per
    /// step, deterministic in the problem. This is the heuristic's oracle
    /// (`repro gap`, tests); no round calls it.
    pub fn dual_bound(&self, incumbent: f64) -> f64 {
        let caps: Vec<f64> = self.capacities.iter().map(|c| c.as_f64()).collect();
        let mut price = vec![0.0f64; caps.len()];
        let mut slack = caps.clone();
        let (mut best, mut theta, mut stalled) = (f64::INFINITY, 1.0f64, 0u32);
        for _ in 0..DUAL_ITERATIONS {
            slack.copy_from_slice(&caps);
            let mut bound: f64 = price.iter().zip(&caps).map(|(l, c)| l * c).sum();
            for opts in self.each_client() {
                let load = opts.load.as_f64();
                let mut top = (f64::NEG_INFINITY, 0usize);
                for o in opts.list {
                    let bucket = o.bucket as usize;
                    let reduced = option_value(o.a, o.b, opts.x, opts.y) - price[bucket] * load;
                    if reduced > top.0 {
                        top = (reduced, bucket);
                    }
                }
                bound += top.0;
                slack[top.1] -= load;
            }
            if bound < best {
                (best, stalled) = (bound, 0);
            } else {
                stalled += 1;
                if stalled % DUAL_PATIENCE == 0 {
                    theta /= 2.0;
                }
            }
            // Projection: a free bucket with room to spare stays free.
            for (s, &l) in slack.iter_mut().zip(&price) {
                if l == 0.0 && *s > 0.0 {
                    *s = 0.0;
                }
            }
            let norm: f64 = slack.iter().map(|s| s * s).sum();
            if bound <= incumbent || norm == 0.0 {
                break;
            }
            let step = theta * (bound - incumbent) / norm;
            for (l, &s) in price.iter_mut().zip(&slack) {
                *l = (*l - step * s).max(0.0);
            }
        }
        best
    }
}

/// The best-valued option that fits, lowest index among equals, read off
/// the whole list; when nothing fits, the least relative overload, then
/// the higher value.
fn best_fit(opts: Options<'_>, remaining: &[Kbps], capacities: &[Kbps]) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, o) in opts.iter().enumerate() {
        if o.load <= remaining[o.bucket] && best.is_none_or(|(_, v)| o.value > v) {
            best = Some((i, o.value));
        }
    }
    match best {
        Some((i, _)) => i,
        None => (0..opts.len())
            .min_by(|&a, &b| {
                let (oa, ob) = (opts.get(a), opts.get(b));
                let ra = overload_ratio(oa, remaining, capacities);
                let rb = overload_ratio(ob, remaining, capacities);
                cmp_values(ra, rb).then(cmp_values(ob.value, oa.value))
            })
            .unwrap_or(0),
    }
}

fn overload_ratio(o: CandidateOption, remaining: &[Kbps], capacities: &[Kbps]) -> f64 {
    let cap = capacities[o.bucket].as_f64().max(1e-12);
    // How far past capacity this bucket would go, relative to capacity.
    (o.load.as_f64() - remaining[o.bucket].as_f64()).max(0.0) / cap
}

/// A regret read off a whole list, for a client the prefix cannot order
/// (a NaN value): the best value minus the second best, in one scan with
/// no allocation. Single-option clients are fully constrained and choose
/// first.
fn regret(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    // `top` is the first of the largest values and `second` the largest of
    // the rest in list order — what a stable descending sort puts at [0]
    // and [1], so the difference has the same bits.
    let (mut top, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for v in values {
        if v > top {
            second = top;
            top = v;
        } else if v > second {
            second = v;
        }
    }
    top - second
}

/// Total order on solver keys: `partial_cmp` wherever that is defined
/// (adding `+0.0` folds `-0.0` into `+0.0`, the one pair `total_cmp`
/// tells apart and `partial_cmp` does not), and NaN at the ends instead
/// of a panic.
fn cmp_values(a: f64, b: f64) -> std::cmp::Ordering {
    (a + 0.0).total_cmp(&(b + 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(bucket: usize, value: f64, load: f64) -> CandidateOption {
        CandidateOption {
            bucket,
            value,
            load: Kbps::new(load),
        }
    }

    fn caps(v: &[f64]) -> Vec<Kbps> {
        v.iter().map(|&c| Kbps::new(c)).collect()
    }

    /// The optimum by enumeration — the oracle of both the heuristic and
    /// [`AssignmentProblem::dual_bound`]: the best value over every choice
    /// vector that respects the capacities, `None` when none does. Values
    /// are summed in client order, as [`AssignmentProblem::value_of`] does.
    fn brute_force_optimum(p: &AssignmentProblem) -> Option<f64> {
        fn descend(
            p: &AssignmentProblem,
            client: usize,
            loads: &mut [f64],
            value: f64,
            best: &mut Option<f64>,
        ) {
            if client == p.num_clients() {
                *best = Some(best.map_or(value, |b| b.max(value)));
                return;
            }
            for o in p.options_of(client) {
                let before = loads[o.bucket];
                if before + o.load.as_f64() <= p.capacities[o.bucket].as_f64() + 1e-9 {
                    loads[o.bucket] = before + o.load.as_f64();
                    descend(p, client + 1, loads, value + o.value, best);
                    loads[o.bucket] = before;
                }
            }
        }
        let mut best = None;
        descend(p, 0, &mut vec![0.0; p.capacities.len()], 0.0, &mut best);
        best
    }

    /// `a ≤ b` up to rounding in sums of a few dozen terms.
    fn at_most(a: f64, b: f64) -> bool {
        a <= b + 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn brute_force_and_bound_on_a_hand_computed_case() {
        // Three clients of load 3 all prefer bucket 0, which has room for
        // one: giving it to client 2 is best (3 + 2 + 5 = 10, against 9
        // and 8). The relaxation also puts two thirds of client 1 there,
        // 7 + 3 + 2·⅔ = 11⅓, which is where the prices settle (3λ = 2).
        let mut p = AssignmentProblem::new(caps(&[5.0, 10.0]));
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 3.0, 3.0)]);
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 2.0, 3.0)]);
        p.add_client(vec![opt(0, 5.0, 3.0), opt(1, 2.0, 3.0)]);
        assert_eq!(brute_force_optimum(&p), Some(10.0));
        let bound = p.dual_bound(10.0);
        assert!(
            (34.0 / 3.0..34.0 / 3.0 + 0.01).contains(&bound),
            "bound {bound}"
        );
        // Nothing fits anywhere: no optimum, the bound is still a number.
        let mut none = AssignmentProblem::new(caps(&[1.0]));
        none.add_client(vec![opt(0, 1.0, 2.0)]);
        assert_eq!(brute_force_optimum(&none), None);
        assert!(none.dual_bound(1.0).is_finite());
    }

    /// A GAP small enough to enumerate (≤ 8 clients × ≤ 3 options) and
    /// built to be awkward: values from a palette, so ties are the common
    /// case; loads from a lumpy palette; one bucket in five fits nobody;
    /// and in half the cases the *last* bucket holds the best value of
    /// every client it is offered to and room for about half of them.
    fn awkward_gap(rng: &mut vdx_rand::StdRng) -> AssignmentProblem {
        const VALUES: [f64; 6] = [-40.0, -12.5, -12.5, -3.0, 0.0, 6.0];
        const LOADS: [f64; 4] = [1.0, 2.5, 4.0, 7.0];
        let buckets = rng.gen_range(2usize..6);
        let prized_last = rng.gen_bool(0.5);
        let mut capacities: Vec<f64> = (0..buckets)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.5
                } else {
                    rng.gen_range(6.0..30.0)
                }
            })
            .collect();
        let clients: Vec<Vec<CandidateOption>> = (0..rng.gen_range(1usize..9))
            .map(|_| {
                let load = LOADS[rng.gen_range(0..LOADS.len())];
                vdx_rand::prop::vec_of(rng, 1..4, |r| {
                    let bucket = r.gen_range(0..buckets);
                    let value = if prized_last && bucket == buckets - 1 {
                        9.0
                    } else {
                        VALUES[r.gen_range(0..VALUES.len())]
                    };
                    opt(bucket, value, load)
                })
            })
            .collect();
        if prized_last {
            let wanted: f64 = clients
                .iter()
                .filter(|c| c.iter().any(|o| o.bucket == buckets - 1))
                .map(|c| c[0].load.as_f64())
                .sum();
            capacities[buckets - 1] = (wanted / 2.0).max(1.0);
        }
        let mut p = AssignmentProblem::new(caps(&capacities));
        for options in clients {
            p.add_client(options);
        }
        p
    }

    #[test]
    fn heuristic_at_most_optimum_at_most_dual_bound() {
        use std::cell::Cell;
        let (feasible, last_binds) = (Cell::new(0u32), Cell::new(0u32));
        vdx_rand::prop::check(2048, awkward_gap, |p| {
            let heur = p.solve_heuristic();
            let optimum = brute_force_optimum(p);
            if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                feasible.set(feasible.get() + 1);
                let optimum = optimum.expect("the heuristic's own answer is feasible");
                assert!(at_most(heur.objective, optimum), "{heur:?} over {optimum}");
            }
            let Some(optimum) = optimum else { return };
            let bound = p.dual_bound(heur.objective);
            assert!(at_most(optimum, bound), "optimum {optimum} over {bound}");
            // Only the step length may depend on the incumbent.
            assert!(at_most(optimum, p.dual_bound(optimum - 100.0)));
            assert!(at_most(optimum, p.dual_bound(optimum + 100.0)));
            // Does the last bucket bind? Lift its capacity and look again.
            let mut lifted = p.clone();
            lifted.capacities[p.capacities.len() - 1] = Kbps::new(1e9);
            if brute_force_optimum(&lifted).expect("a superset is feasible") > optimum + 1e-9 {
                last_binds.set(last_binds.get() + 1);
            }
        });
        // The family is not vacuous where it matters.
        assert!(feasible.get() >= 1000, "{} feasible", feasible.get());
        assert!(last_binds.get() >= 200, "{} last-bound", last_binds.get());
    }

    #[test]
    fn greedy_prefers_value_within_capacity() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        let a = p.solve_greedy();
        // Both fit on bucket 0 (8 <= 10): both take the high-value option.
        assert_eq!(a.objective, 10.0);
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
    }

    #[test]
    fn greedy_splits_when_capacity_binds() {
        let mut p = AssignmentProblem::new(caps(&[4.0, 10.0]));
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 1.0, 4.0)]);
        let a = p.solve_greedy();
        // Client 1 has regret 4 (5-1) > client 0's regret 2, so client 1
        // grabs bucket 0; client 0 falls to bucket 1. Total 5 + 3 = 8.
        assert_eq!(a.objective, 8.0);
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
    }

    #[test]
    fn greedy_overloads_least_when_forced() {
        let mut p = AssignmentProblem::new(caps(&[1.0, 100.0]));
        p.add_client(vec![opt(0, 9.0, 5.0), opt(1, 8.0, 5.0)]);
        let a = p.solve_greedy();
        // Nothing fits bucket 0 (cap 1), bucket 1 fits: overload ratio 0.
        assert_eq!(a.choice, vec![1]);
    }

    #[test]
    fn overload_fallback_weighs_the_excess_against_the_capacity() {
        // Single-option fillers choose first (infinite regret) and leave
        // 2 of 10 and 1 of 100; the load-5 client fits neither. Bucket 0
        // would run 3 over (30 %), bucket 1 4 over (4 %): it goes to 1.
        let mut p = AssignmentProblem::new(caps(&[10.0, 100.0]));
        p.add_client(vec![opt(0, 0.0, 8.0)]);
        p.add_client(vec![opt(1, 0.0, 99.0)]);
        p.add_client(vec![opt(0, 9.0, 5.0), opt(1, 1.0, 5.0)]);
        assert_eq!(p.solve_greedy().choice, vec![0, 0, 1]);
        // The excess, not the load: 4 of 10 left (1 over, 10 %) beats
        // nothing of 20 left (5 over, 25 %), though 5/20 < 5/10.
        let mut p = AssignmentProblem::new(caps(&[10.0, 20.0]));
        p.add_client(vec![opt(0, 0.0, 6.0)]);
        p.add_client(vec![opt(1, 0.0, 20.0)]);
        p.add_client(vec![opt(0, 1.0, 5.0), opt(1, 9.0, 5.0)]);
        assert_eq!(p.solve_greedy().choice, vec![0, 0, 0]);
    }

    #[test]
    fn a_nan_valued_option_yields_a_complete_assignment() {
        // What a wire bid with a NaN price becomes once `CpPolicy::value`
        // has priced it; bucket 0 fits nobody, so the overload fallback
        // compares NaN values too.
        let mut p = AssignmentProblem::new(caps(&[1.0, 10.0]));
        p.add_client(vec![opt(0, f64::NAN, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, f64::NAN, 4.0)]);
        p.add_client(vec![opt(0, f64::NAN, 40.0), opt(1, f64::NAN, 40.0)]);
        p.add_client(vec![opt(0, 2.0, 4.0)]);
        let a = p.solve_heuristic();
        assert_eq!(a.choice.len(), 4);
        for (c, &pick) in a.choice.iter().enumerate() {
            assert!(pick < p.options_of(c).len(), "client {c} picked {pick}");
        }
    }

    /// The parent's `solve_greedy`, regret recomputed inside the sort
    /// comparator: the reference the one-scan version must reproduce.
    fn greedy_with_comparator_time_regret(p: &AssignmentProblem) -> Assignment {
        let options: Vec<Vec<CandidateOption>> = (0..p.num_clients())
            .map(|c| p.options_of(c).collect())
            .collect();
        let regret = |c: usize| -> f64 {
            let mut values: Vec<f64> = options[c].iter().map(|o| o.value).collect();
            values.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            if values.len() >= 2 {
                values[0] - values[1]
            } else {
                f64::INFINITY
            }
        };
        let mut order: Vec<usize> = (0..p.num_clients()).collect();
        order.sort_by(|&a, &b| {
            regret(b)
                .partial_cmp(&regret(a))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut remaining = p.capacities.clone();
        let mut choice = vec![0usize; p.num_clients()];
        for &c in &order {
            let mut best: Option<(usize, f64)> = None;
            for (i, o) in options[c].iter().enumerate() {
                if o.load <= remaining[o.bucket] && best.is_none_or(|(_, v)| o.value > v) {
                    best = Some((i, o.value));
                }
            }
            let pick = best.map(|(i, _)| i).unwrap_or_else(|| {
                (0..options[c].len())
                    .min_by(|&a, &b| {
                        let (oa, ob) = (options[c][a], options[c][b]);
                        let ra = overload_ratio(oa, &remaining, &p.capacities);
                        let rb = overload_ratio(ob, &remaining, &p.capacities);
                        ra.partial_cmp(&rb)
                            .expect("finite")
                            .then(ob.value.partial_cmp(&oa.value).expect("finite"))
                    })
                    .expect("client has options")
            });
            let o = options[c][pick];
            remaining[o.bucket] -= o.load;
            choice[c] = pick;
        }
        let objective = p.value_of(&choice);
        Assignment { choice, objective }
    }

    #[test]
    fn greedy_equals_the_comparator_time_regret_reference() {
        use vdx_rand::prop::{check, vec_of};
        // Values from a palette of eight (signed zeros included), so tied
        // regrets and duplicated top values are the common case; one
        // bucket in four is too small for any load drawn.
        const VALUES: [f64; 8] = [-3.5, -0.0, 0.0, 1.0, 1.0, 2.5, 7.0, 1e6];
        check(
            256,
            |rng| {
                let buckets = rng.gen_range(1usize..6);
                let capacities = (0..buckets)
                    .map(|_| {
                        if rng.gen_bool(0.25) {
                            Kbps::new(0.5)
                        } else {
                            Kbps::new(rng.gen_range(2.0..30.0))
                        }
                    })
                    .collect();
                let mut p = AssignmentProblem::new(capacities);
                for _ in 0..rng.gen_range(1usize..24) {
                    let load = rng.gen_range(1.0..6.0);
                    p.add_client(vec_of(rng, 1..7, |r| {
                        opt(
                            r.gen_range(0..buckets),
                            VALUES[r.gen_range(0..VALUES.len())],
                            load,
                        )
                    }));
                }
                p
            },
            |p| {
                let (new, old) = (p.solve_greedy(), greedy_with_comparator_time_regret(p));
                assert_eq!(new.choice, old.choice);
                assert_eq!(new.objective.to_bits(), old.objective.to_bits());
            },
        );
    }

    #[test]
    fn local_search_improves_bad_start() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 1.0, 2.0), opt(1, 9.0, 2.0)]);
        let start = Assignment {
            choice: vec![0],
            objective: 1.0,
        };
        let improved = p.improve_local(start, 4);
        assert_eq!(improved.choice, vec![1]);
        assert_eq!(improved.objective, 9.0);
    }

    #[test]
    fn local_search_frees_the_room_a_move_leaves_behind() {
        // Client 0 moves from bucket 0 to the empty bucket 1; only then
        // does client 1's better option, bucket 0, have room.
        let mut p = AssignmentProblem::new(caps(&[4.0, 4.0, 4.0]));
        p.add_client(vec![opt(0, 1.0, 4.0), opt(1, 5.0, 4.0)]);
        p.add_client(vec![opt(2, 1.0, 4.0), opt(0, 5.0, 4.0)]);
        let start = Assignment {
            choice: vec![0, 0],
            objective: 2.0,
        };
        let improved = p.improve_local(start, 4);
        assert_eq!(improved.choice, vec![1, 1]);
        assert_eq!(improved.objective, 10.0);
    }

    #[test]
    fn local_search_respects_capacity() {
        let mut p = AssignmentProblem::new(caps(&[2.0, 10.0]));
        p.add_client(vec![opt(0, 9.0, 2.0), opt(1, 5.0, 2.0)]);
        p.add_client(vec![opt(0, 9.0, 2.0), opt(1, 5.0, 2.0)]);
        let a = p.solve_heuristic();
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
        assert_eq!(a.objective, 14.0); // one on each bucket
    }

    #[test]
    fn heuristic_close_to_exact_on_random_instances() {
        use vdx_rand::StdRng;
        let mut rng = StdRng::seed_from_u64(21);
        let mut total_gap = 0.0;
        for _ in 0..20 {
            let buckets = rng.gen_range(2..5);
            let mut p = AssignmentProblem::new(
                (0..buckets)
                    .map(|_| Kbps::new(rng.gen_range(5.0..20.0)))
                    .collect(),
            );
            let clients = rng.gen_range(3..8);
            for _ in 0..clients {
                let k = rng.gen_range(1..=buckets);
                let load = rng.gen_range(1.0..4.0);
                let opts: Vec<CandidateOption> = (0..k)
                    .map(|b| opt(b, rng.gen_range(0.0..10.0), load))
                    .collect();
                p.add_client(opts);
            }
            let heur = p.solve_heuristic();
            // The heuristic may overload capacity as a last resort (a
            // broker must place every client); only a *feasible*
            // heuristic solution is bounded by the optimum.
            if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                let optimum = brute_force_optimum(&p).expect("the heuristic's answer is feasible");
                assert!(at_most(heur.objective, optimum));
                if optimum.abs() > 1e-9 {
                    total_gap += (optimum - heur.objective) / optimum.abs();
                }
            }
        }
        // Average optimality gap should be modest on these easy instances.
        assert!(total_gap / 20.0 < 0.15, "avg gap {}", total_gap / 20.0);
    }

    /// Every client is offered every bucket at a seed-derived integer
    /// value (moved here from the facade's `tests/properties.rs`, where
    /// the oracle was the MILP).
    #[test]
    fn feasible_heuristic_is_bounded_by_the_brute_force_optimum() {
        use vdx_rand::prop::{check, vec_of};
        check(
            64,
            |rng| {
                (
                    vec_of(rng, 2..4, |r| r.gen_range(3.0..20.0)),
                    vec_of(rng, 1..6, |r| r.gen_range(0.5..3.0)),
                    rng.next_u32(),
                )
            },
            |(capacities, client_loads, seed)| {
                let mut p = AssignmentProblem::new(caps(capacities));
                for (i, load) in client_loads.iter().enumerate() {
                    p.add_client(
                        (0..capacities.len())
                            .map(|b| opt(b, ((*seed as usize + i * 7 + b * 13) % 17) as f64, *load))
                            .collect(),
                    );
                }
                let heur = p.solve_heuristic();
                if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                    let optimum =
                        brute_force_optimum(&p).expect("the heuristic's answer is feasible");
                    assert!(at_most(heur.objective, optimum));
                }
            },
        );
    }

    #[test]
    fn bucket_loads_accounting() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 1.0, 3.0)]);
        p.add_client(vec![opt(0, 1.0, 4.0), opt(1, 1.0, 4.0)]);
        let loads = p.bucket_loads(&[0, 1]);
        assert_eq!(loads, vec![Kbps::new(3.0), Kbps::new(4.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one option")]
    fn empty_options_panics() {
        AssignmentProblem::new(caps(&[1.0])).add_client(vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bucket_panics() {
        AssignmentProblem::new(caps(&[1.0])).add_client(vec![opt(5, 1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "one load")]
    fn loads_that_differ_within_a_client_panic() {
        AssignmentProblem::new(caps(&[1.0])).add_client(vec![opt(0, 1.0, 1.0), opt(0, 1.0, 2.0)]);
    }

    /// The per-client GAP this module held before bucket lists were
    /// shared: one `Vec<CandidateOption>` per client, and the solve path,
    /// bound and loads written over it. The reference the shared
    /// form must reproduce bit for bit.
    struct PerClient {
        options: Vec<Vec<CandidateOption>>,
        capacities: Vec<Kbps>,
    }

    impl PerClient {
        fn value_of(&self, choice: &[usize]) -> f64 {
            (choice.iter().enumerate())
                .map(|(c, &o)| self.options[c][o].value)
                .sum()
        }

        fn bucket_loads(&self, choice: &[usize]) -> Vec<Kbps> {
            let mut loads = vec![Kbps::ZERO; self.capacities.len()];
            for (c, &o) in choice.iter().enumerate() {
                let opt = self.options[c][o];
                loads[opt.bucket] += opt.load;
            }
            loads
        }

        fn solve_greedy(&self) -> Assignment {
            let n = self.options.len();
            let regrets: Vec<f64> = (self.options.iter())
                .map(|opts| regret(opts.iter().map(|o| o.value)))
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by(|&a, &b| cmp_values(regrets[b], regrets[a]).then(a.cmp(&b)));
            let mut remaining = self.capacities.clone();
            let mut choice = vec![0usize; n];
            for &c in &order {
                let mut best: Option<(usize, f64)> = None;
                for (i, o) in self.options[c].iter().enumerate() {
                    if o.load <= remaining[o.bucket] && best.is_none_or(|(_, v)| o.value > v) {
                        best = Some((i, o.value));
                    }
                }
                let pick = match best {
                    Some((i, _)) => i,
                    None => (0..self.options[c].len())
                        .min_by(|&a, &b| {
                            let (oa, ob) = (self.options[c][a], self.options[c][b]);
                            let ra = overload_ratio(oa, &remaining, &self.capacities);
                            let rb = overload_ratio(ob, &remaining, &self.capacities);
                            cmp_values(ra, rb).then(cmp_values(ob.value, oa.value))
                        })
                        .unwrap_or(0),
                };
                let o = self.options[c][pick];
                remaining[o.bucket] -= o.load;
                choice[c] = pick;
            }
            let objective = self.value_of(&choice);
            Assignment { choice, objective }
        }

        fn improve_local(&self, start: Assignment, max_rounds: usize) -> Assignment {
            let mut choice = start.choice;
            let mut loads = self.bucket_loads(&choice);
            for _ in 0..max_rounds {
                let mut improved = false;
                for (options, pick) in self.options.iter().zip(choice.iter_mut()) {
                    let cur = options[*pick];
                    for (i, o) in options.iter().enumerate() {
                        if i == *pick || o.value <= cur.value {
                            continue;
                        }
                        let fits = if o.bucket == cur.bucket {
                            (loads[o.bucket] - cur.load + o.load).as_f64()
                                <= self.capacities[o.bucket].as_f64() + 1e-9
                        } else {
                            (loads[o.bucket] + o.load).as_f64()
                                <= self.capacities[o.bucket].as_f64() + 1e-9
                        };
                        if fits {
                            loads[cur.bucket] -= cur.load;
                            loads[o.bucket] += o.load;
                            *pick = i;
                            improved = true;
                            break;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            let objective = self.value_of(&choice);
            Assignment { choice, objective }
        }

        fn dual_bound(&self, incumbent: f64) -> f64 {
            let caps: Vec<f64> = self.capacities.iter().map(|c| c.as_f64()).collect();
            let mut price = vec![0.0f64; caps.len()];
            let mut slack = caps.clone();
            let (mut best, mut theta, mut stalled) = (f64::INFINITY, 1.0f64, 0u32);
            for _ in 0..DUAL_ITERATIONS {
                slack.copy_from_slice(&caps);
                let mut bound: f64 = price.iter().zip(&caps).map(|(l, c)| l * c).sum();
                for options in &self.options {
                    let mut top = (f64::NEG_INFINITY, 0usize, 0.0f64);
                    for o in options {
                        let reduced = o.value - price[o.bucket] * o.load.as_f64();
                        if reduced > top.0 {
                            top = (reduced, o.bucket, o.load.as_f64());
                        }
                    }
                    bound += top.0;
                    slack[top.1] -= top.2;
                }
                if bound < best {
                    (best, stalled) = (bound, 0);
                } else {
                    stalled += 1;
                    if stalled % DUAL_PATIENCE == 0 {
                        theta /= 2.0;
                    }
                }
                for (s, &l) in slack.iter_mut().zip(&price) {
                    if l == 0.0 && *s > 0.0 {
                        *s = 0.0;
                    }
                }
                let norm: f64 = slack.iter().map(|s| s * s).sum();
                if bound <= incumbent || norm == 0.0 {
                    break;
                }
                let step = theta * (bound - incumbent) / norm;
                for (l, &s) in price.iter_mut().zip(&slack) {
                    *l = (*l - step * s).max(0.0);
                }
            }
            best
        }
    }

    /// A GAP whose clients mostly share bucket lists, as a round's groups
    /// share their city's: a few lists (one in three of a single bucket),
    /// many clients on them with weights that make their values differ,
    /// coefficients from a palette with NaN and both zeros, one load per
    /// client, and a random start for local search.
    #[derive(Debug)]
    struct SharedCase {
        capacities: Vec<f64>,
        /// Per list, `(bucket, a, b)` per option.
        lists: Vec<Vec<(usize, f64, f64)>>,
        /// Per client: its list, its weights `x` and `y`, and its load.
        clients: Vec<(usize, f64, f64, f64)>,
        /// One index into each client's list.
        start: Vec<usize>,
    }

    impl SharedCase {
        fn draw(rng: &mut vdx_rand::StdRng) -> SharedCase {
            const A: [f64; 8] = [f64::NAN, -0.0, 0.0, -3.5, 1.0, 1.0, 7.0, 1e6];
            const B: [f64; 3] = [0.0, -0.0, 0.5];
            const X: [f64; 3] = [1.0, 1.0, 2.0];
            const Y: [f64; 2] = [0.0, 1.0];
            const LOADS: [f64; 4] = [0.0, 1.0, 2.5, 6.0];
            let buckets = rng.gen_range(1usize..6);
            let capacities = vdx_rand::prop::vec_of(rng, buckets..buckets + 1, |r| {
                if r.gen_bool(0.25) {
                    0.5
                } else {
                    r.gen_range(2.0..30.0)
                }
            });
            let lists = vdx_rand::prop::vec_of(rng, 1..5, |r| {
                let len = if r.gen_bool(1.0 / 3.0) {
                    1
                } else {
                    r.gen_range(2usize..6)
                };
                vdx_rand::prop::vec_of(r, len..len + 1, |r| {
                    let bucket = r.gen_range(0..buckets);
                    (
                        bucket,
                        A[r.gen_range(0..A.len())],
                        B[r.gen_range(0..B.len())],
                    )
                })
            });
            let clients = vdx_rand::prop::vec_of(rng, 1..24, |r| {
                (
                    r.gen_range(0..lists.len()),
                    X[r.gen_range(0..X.len())],
                    Y[r.gen_range(0..Y.len())],
                    LOADS[r.gen_range(0..LOADS.len())],
                )
            });
            SharedCase::with_start(rng, capacities, lists, clients)
        }

        fn with_start(
            rng: &mut vdx_rand::StdRng,
            capacities: Vec<f64>,
            lists: Vec<Vec<(usize, f64, f64)>>,
            clients: Vec<(usize, f64, f64, f64)>,
        ) -> SharedCase {
            let start = (clients.iter())
                .map(|&(list, ..)| rng.gen_range(0..lists[list].len()))
                .collect();
            SharedCase {
                capacities,
                lists,
                clients,
                start,
            }
        }

        fn shared(&self) -> AssignmentProblem {
            let mut p = AssignmentProblem::new(caps(&self.capacities));
            for list in &self.lists {
                let list = list.iter().map(|&(bucket, a, b)| ListOption {
                    a,
                    b,
                    bucket: bucket as u32,
                });
                p.add_bucket_list(list.collect());
            }
            for &(list, x, y, load) in &self.clients {
                p.add_client_on(list, x, y, Kbps::new(load));
            }
            p
        }

        fn per_client_options(&self) -> Vec<Vec<CandidateOption>> {
            (self.clients.iter())
                .map(|&(list, x, y, load)| {
                    (self.lists[list].iter())
                        .map(|&(bucket, a, b)| opt(bucket, a * x - b * y, load))
                        .collect()
                })
                .collect()
        }

        fn one_list_each(&self) -> AssignmentProblem {
            let mut p = AssignmentProblem::new(caps(&self.capacities));
            for options in self.per_client_options() {
                p.add_client(options);
            }
            p
        }

        fn reference(&self) -> PerClient {
            PerClient {
                options: self.per_client_options(),
                capacities: caps(&self.capacities),
            }
        }
    }

    fn assignment_bits(a: &Assignment) -> (Vec<usize>, u64) {
        (a.choice.clone(), a.objective.to_bits())
    }

    fn load_bits(loads: &[Kbps]) -> Vec<u64> {
        loads.iter().map(|l| l.as_f64().to_bits()).collect()
    }

    impl SharedCase {
        /// A GAP built to send the solve past each client's value-ordered
        /// prefix: lists of one to twelve options over two to eight
        /// buckets, two in five of which fit nobody and tend to hold the
        /// top values, and coefficients and weights from palettes with
        /// ties, ±0.0, −∞ (a NaN where a weight is 0) and a rare NaN.
        fn draw_past_prefix(rng: &mut vdx_rand::StdRng) -> SharedCase {
            const A: [f64; 9] = [-0.0, 0.0, -3.5, 1.0, 1.0, 7.0, 7.0, 1e6, f64::NEG_INFINITY];
            const HIGH: [f64; 3] = [7.0, 1e6, 1e6];
            const B: [f64; 4] = [0.0, -0.0, 0.5, 2.0];
            const X: [f64; 4] = [1.0, 1.0, 2.0, 0.0];
            const Y: [f64; 3] = [0.0, 1.0, 2.5];
            const LOADS: [f64; 5] = [0.0, 1.0, 2.0, 2.5, 4.0];
            let buckets = rng.gen_range(2usize..9);
            let tiny: Vec<bool> = (0..buckets).map(|_| rng.gen_bool(0.4)).collect();
            let capacities = (tiny.iter())
                .map(|&t| if t { 0.5 } else { rng.gen_range(2.0..12.0) })
                .collect();
            let lists = vdx_rand::prop::vec_of(rng, 1..6, |r| {
                let len = if r.gen_bool(0.2) {
                    1
                } else {
                    r.gen_range(2usize..13)
                };
                vdx_rand::prop::vec_of(r, len..len + 1, |r| {
                    let bucket = r.gen_range(0..buckets);
                    let a = if r.gen_bool(1.0 / 80.0) {
                        f64::NAN
                    } else if tiny[bucket] && r.gen_bool(0.6) {
                        HIGH[r.gen_range(0..HIGH.len())]
                    } else {
                        A[r.gen_range(0..A.len())]
                    };
                    (bucket, a, B[r.gen_range(0..B.len())])
                })
            });
            let clients: Vec<(usize, f64, f64, f64)> = vdx_rand::prop::vec_of(rng, 1..30, |r| {
                (
                    r.gen_range(0..lists.len()),
                    X[r.gen_range(0..X.len())],
                    Y[r.gen_range(0..Y.len())],
                    LOADS[r.gen_range(0..LOADS.len())],
                )
            });
            SharedCase::with_start(rng, capacities, lists, clients)
        }
    }

    /// Where option `pick` stands in its client's (value desc, index asc)
    /// order; `None` for a client with a NaN value, which has no order.
    fn rank_of(options: &[CandidateOption], pick: usize) -> Option<usize> {
        if options.iter().any(|o| o.value.is_nan()) {
            return None;
        }
        let v = options[pick].value;
        let ahead = |(i, o): (usize, &CandidateOption)| o.value > v || (o.value == v && i < pick);
        Some(options.iter().enumerate().filter(|&e| ahead(e)).count())
    }

    /// Both builds of `case` — shared lists and one list per client —
    /// solve from the greedy start and from the case's random one, bound,
    /// load and value as the per-client reference does, bit for bit.
    /// Returns the reference's greedy choice.
    fn answers_like_the_reference(case: &SharedCase) -> Vec<usize> {
        let reference = case.reference();
        let greedy = reference.solve_greedy();
        let local = reference.improve_local(greedy.clone(), 8);
        let start = Assignment {
            objective: reference.value_of(&case.start),
            choice: case.start.clone(),
        };
        let from_start = reference.improve_local(start.clone(), 8);
        for p in [&case.shared(), &case.one_list_each()] {
            assert_eq!(assignment_bits(&p.solve_greedy()), assignment_bits(&greedy));
            assert_eq!(
                assignment_bits(&p.solve_heuristic()),
                assignment_bits(&local)
            );
            let improved = p.improve_local(greedy.clone(), 8);
            assert_eq!(assignment_bits(&improved), assignment_bits(&local));
            let improved = p.improve_local(start.clone(), 8);
            assert_eq!(assignment_bits(&improved), assignment_bits(&from_start));
            for choice in [
                &greedy.choice,
                &local.choice,
                &start.choice,
                &from_start.choice,
            ] {
                assert_eq!(
                    load_bits(&p.bucket_loads(choice)),
                    load_bits(&reference.bucket_loads(choice))
                );
                assert_eq!(
                    p.value_of(choice).to_bits(),
                    reference.value_of(choice).to_bits()
                );
            }
            for incumbent in [local.objective, 0.0] {
                assert_eq!(
                    p.dual_bound(incumbent).to_bits(),
                    reference.dual_bound(incumbent).to_bits()
                );
            }
        }
        greedy.choice
    }

    /// The solve reads a value-ordered prefix of each client's options and
    /// falls back to the whole list; either way it must answer as the
    /// per-client reference does. Of the 512 cases, at least 100 each
    /// have a greedy pick past the prefix (so a prefix miss), a local
    /// search start outside the prefix, and a client with a NaN value.
    #[test]
    fn the_prefix_solve_answers_like_the_full_list_reference() {
        use std::cell::Cell;
        let (misses, outside, nan) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        vdx_rand::prop::check(512, SharedCase::draw_past_prefix, |case| {
            let greedy = answers_like_the_reference(case);
            let options = case.per_client_options();
            let beyond = |choice: &[usize]| {
                (options.iter().zip(choice))
                    .any(|(o, &pick)| rank_of(o, pick).is_some_and(|r| r >= PREFIX))
            };
            misses.set(misses.get() + u32::from(beyond(&greedy)));
            outside.set(outside.get() + u32::from(beyond(&case.start)));
            let has_nan = options.iter().any(|o| rank_of(o, 0).is_none());
            nan.set(nan.get() + u32::from(has_nan));
        });
        let counts = (misses.get(), outside.get(), nan.get());
        assert!(
            counts.0 >= 100 && counts.1 >= 100 && counts.2 >= 100,
            "{counts:?}"
        );
    }

    #[test]
    fn shared_lists_solve_bound_and_diff_like_one_list_per_client() {
        vdx_rand::prop::check(512, SharedCase::draw, |case| {
            answers_like_the_reference(case);
        });
    }
}
