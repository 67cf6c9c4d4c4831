//! Stale-bid cache: degradation level 1 of the failure model.
//!
//! When a CDN's Announce misses the broker's round deadline (DESIGN.md §9),
//! the broker may substitute the CDN's most recent bids from an earlier
//! round — prices and capacities a few rounds old are usually still close
//! to the truth, and serving on slightly stale terms beats excluding the
//! CDN outright. Reuse is bounded by a TTL measured in rounds: past it the
//! cached information is considered misleading and the CDN is excluded
//! instead.
//!
//! The cache is generic over the bid payload so this crate stays
//! independent of `vdx-proto`'s wire types; the exchange instantiates it
//! with `Vec<vdx_proto::Bid>`.

/// Per-CDN cache of the last bids seen, with a freshness bound.
#[derive(Debug, Clone)]
pub struct StaleBidCache<T> {
    ttl_rounds: u64,
    slots: Vec<Option<(u64, T)>>,
}

impl<T> StaleBidCache<T> {
    /// A cache for `cdns` CDNs whose entries may be reused while they are
    /// at most `ttl_rounds` rounds old.
    pub fn new(cdns: usize, ttl_rounds: u64) -> StaleBidCache<T> {
        StaleBidCache {
            ttl_rounds,
            slots: (0..cdns).map(|_| None).collect(),
        }
    }

    /// Records `bids` as CDN `cdn`'s latest, seen in `round`.
    pub fn store(&mut self, cdn: usize, round: u64, bids: T) {
        self.slots[cdn] = Some((round, bids));
    }

    /// CDN `cdn`'s cached bids if they are still within the TTL as of
    /// `round`, as `(age_in_rounds, bids)`. `None` when nothing was ever
    /// cached or the entry has aged out.
    pub fn fetch(&self, cdn: usize, round: u64) -> Option<(u64, &T)> {
        let (stored_round, bids) = self.slots.get(cdn)?.as_ref()?;
        let age = round.saturating_sub(*stored_round);
        (age <= self.ttl_rounds).then_some((age, bids))
    }

    /// Forgets CDN `cdn`'s entry (e.g. on a known infrastructure failure:
    /// a down CDN's cached prices must not be reused).
    pub fn clear(&mut self, cdn: usize) {
        self.slots[cdn] = None;
    }

    /// Raw view of CDN `cdn`'s slot **regardless of TTL**, as
    /// `(stored_round, bids)`. This exists for checkpointing (the
    /// exchange WAL snapshots slots verbatim and re-`store`s them on
    /// recovery); routing decisions must keep using [`fetch`], which is
    /// the only accessor that enforces the freshness bound.
    ///
    /// [`fetch`]: StaleBidCache::fetch
    pub fn entry(&self, cdn: usize) -> Option<(u64, &T)> {
        let (stored_round, bids) = self.slots.get(cdn)?.as_ref()?;
        Some((*stored_round, bids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_respects_the_ttl() {
        let mut cache: StaleBidCache<Vec<u32>> = StaleBidCache::new(2, 2);
        cache.store(0, 10, vec![1, 2, 3]);
        assert_eq!(cache.fetch(0, 10), Some((0, &vec![1, 2, 3])));
        assert_eq!(cache.fetch(0, 11), Some((1, &vec![1, 2, 3])));
        assert_eq!(cache.fetch(0, 12), Some((2, &vec![1, 2, 3])));
        assert_eq!(cache.fetch(0, 13), None, "age 3 exceeds ttl 2");
    }

    #[test]
    fn empty_slots_and_clear_yield_nothing() {
        let mut cache: StaleBidCache<Vec<u32>> = StaleBidCache::new(2, 5);
        assert_eq!(cache.fetch(1, 0), None);
        assert_eq!(cache.fetch(7, 0), None, "out of range is not a panic");
        cache.store(1, 3, vec![9]);
        assert!(cache.fetch(1, 4).is_some());
        cache.clear(1);
        assert_eq!(cache.fetch(1, 4), None);
    }

    #[test]
    fn store_overwrites_and_refreshes() {
        let mut cache: StaleBidCache<&'static str> = StaleBidCache::new(1, 1);
        cache.store(0, 0, "old");
        assert_eq!(cache.fetch(0, 2), None, "aged out");
        cache.store(0, 2, "new");
        assert_eq!(cache.fetch(0, 3), Some((1, &"new")));
    }

    #[test]
    fn entry_exactly_at_the_ttl_is_the_last_reusable_round() {
        // The boundary itself: with ttl T, an entry stored in round R is
        // usable through round R+T inclusive and dead at R+T+1. Pin both
        // sides of the edge for ttl 0 (same-round only) and a larger ttl.
        let mut cache: StaleBidCache<u8> = StaleBidCache::new(1, 0);
        cache.store(0, 7, 1);
        assert_eq!(cache.fetch(0, 7), Some((0, &1)), "ttl 0: same round ok");
        assert_eq!(cache.fetch(0, 8), None, "ttl 0: next round dead");

        let mut cache: StaleBidCache<u8> = StaleBidCache::new(1, 5);
        cache.store(0, 100, 2);
        assert_eq!(cache.fetch(0, 105), Some((5, &2)), "age == ttl passes");
        assert_eq!(cache.fetch(0, 106), None, "age == ttl + 1 is expired");
    }

    #[test]
    fn fetch_before_the_stored_round_is_age_zero() {
        // A recovered cache can be consulted for a re-run of the very
        // round its entry was stored in (round numbers never rewind past
        // that): saturating age keeps the entry usable, never panics.
        let mut cache: StaleBidCache<u8> = StaleBidCache::new(1, 1);
        cache.store(0, 9, 3);
        assert_eq!(cache.fetch(0, 9), Some((0, &3)));
    }

    #[test]
    fn entry_ignores_the_ttl_and_restore_round_trips() {
        // `entry` is the checkpoint view: it must surface even an
        // expired slot (the WAL decides what to do with it), and
        // re-`store`-ing what it returns reproduces the slot exactly —
        // including the original round, so the TTL keeps counting from
        // the bids' true age, not from the recovery point.
        let mut cache: StaleBidCache<Vec<u32>> = StaleBidCache::new(2, 1);
        cache.store(0, 4, vec![1, 2]);
        assert_eq!(cache.fetch(0, 9), None, "expired for routing");
        assert_eq!(
            cache.entry(0),
            Some((4, &vec![1, 2])),
            "visible to checkpoints"
        );
        assert_eq!(cache.entry(1), None);
        assert_eq!(cache.entry(9), None, "out of range is not a panic");

        let (round, bids) = cache.entry(0).map(|(r, b)| (r, b.clone())).unwrap();
        let mut recovered: StaleBidCache<Vec<u32>> = StaleBidCache::new(2, 1);
        recovered.store(0, round, bids);
        assert_eq!(
            recovered.fetch(0, 5),
            Some((1, &vec![1, 2])),
            "still within ttl"
        );
        assert_eq!(
            recovered.fetch(0, 6),
            None,
            "recovery did not reset the age"
        );
    }
}
