//! Seeded panic-path violations reachable from the `entry` root: an
//! indexing site one call down, and an `expect` two calls down — the
//! shape of the analysis's unique catch in the ISSUE 21 trial (row P1,
//! `run_agent -> run_agent_probed -> run_session`). The lock-poison
//! `expect` is sanctioned, a bare `unwrap` is clippy's to refuse, and
//! the fn no root reaches must stay silent.
//! (This file is never compiled; the lint parses it.)

pub struct Registry {
    inner: Mutex<u32>,
}

pub fn entry(r: &Registry, xs: &[u32]) {
    step(r, xs);
}

fn step(r: &Registry, xs: &[u32]) {
    let g = r.inner.lock().expect("lock poisoned: a holder panicked");
    let v = maybe().unwrap();
    let w = xs[0];
    announce(xs);
}

fn announce(xs: &[u32]) {
    deliver(xs).expect("announce sent");
}

fn not_reached() {
    let v = maybe().expect("never");
}
