//! Relaxed statistics counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter for statistics no control flow depends on
/// (cache hit/lookup counts, dropped-work tallies).
///
/// Deliberately *not* suitable for claim protocols or publication — use
/// [`crate::ClaimCursor`] or [`crate::Generation`] for those.
///
/// ```
/// use bns_sync::Counter;
///
/// let hits = Counter::new();
/// hits.incr();
/// assert_eq!(hits.get(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    count: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        #[cfg(bns_model_check)]
        crate::model::point("Counter::incr");
        // ordering: Relaxed — pure statistics: the total only needs each
        // increment to land exactly once (RMW atomicity); nothing reads the
        // counter to make a synchronization decision.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(bns_model_check)]
        crate::model::point("Counter::add");
        // ordering: Relaxed — as for `incr`: statistics only.
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the current total.
    #[inline]
    pub fn get(&self) -> u64 {
        #[cfg(bns_model_check)]
        crate::model::point("Counter::get");
        // ordering: Relaxed — a statistics snapshot; staleness is
        // acceptable and no other memory hangs off the value.
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_from_zero() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.incr();
        assert_eq!(c.get(), 2);
        c.add(40);
        c.add(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..500 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 2000);
    }
}
