//! Seeded lock-discipline violations: a blocking channel send while a
//! slot lock is held (through a helper, so the witness has a hop), an
//! inconsistent acquisition order, and a double acquire. The
//! `drop`-then-relock path must stay silent. Below those, two of the
//! analysis's unique catches in the ISSUE 21 trial, reduced: a
//! `recv_timeout` under a slot lock (row L2) and a guard held across a
//! `shutdown()` (row L1).
//! (This file is never compiled; the lint parses it.)

pub struct Channel;

impl Channel {
    pub fn push(&self, tx: &Sender<u32>) {
        tx.send(1).unwrap();
    }
}

pub struct Slots {
    slots: Mutex<Vec<u32>>,
    stats: Mutex<u32>,
}

impl Slots {
    pub fn blocking_hold(&self, ch: &Channel, tx: &Sender<u32>) {
        let g = self.slots.lock().unwrap();
        ch.push(tx);
        drop(g);
    }

    pub fn ordered_ab(&self) {
        let a = self.slots.lock().unwrap();
        let b = self.stats.lock().unwrap();
    }

    pub fn ordered_ba(&self) {
        let b = self.stats.lock().unwrap();
        let a = self.slots.lock().unwrap();
    }

    pub fn double(&self) {
        let a = self.slots.lock().unwrap();
        let b = self.slots.lock().unwrap();
    }

    pub fn relock_after_drop(&self) {
        let a = self.slots.lock().unwrap();
        drop(a);
        let b = self.slots.lock().unwrap();
    }

    pub fn drain_under_lock(&self, rx: &Receiver<u32>, left: Duration) {
        let slot = self.slots.lock().unwrap();
        let _ = rx.recv_timeout(left);
    }

    // `peer`'s type is not in the crate, so `.shutdown()` resolves by
    // name — to `Server::shutdown` below, which joins a thread. That is
    // how the real catch fired too: the socket's own `shutdown` is not
    // on the blocking list.
    pub fn close_under_lock(&self, peer: &Peer) {
        let mut slot = self.slots.lock().unwrap();
        let _ = peer.writer.shutdown();
    }
}

pub struct Server {
    reader: JoinHandle<()>,
}

impl Server {
    pub fn shutdown(self) {
        let _ = self.reader.join();
    }
}
