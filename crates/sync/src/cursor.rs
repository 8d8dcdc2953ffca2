//! Work-stealing claim cursor.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A monotonically advancing index cursor whose `fetch_add` claims are
/// exclusive.
///
/// This is the primitive under the serve engine's sharded work-stealing
/// loop: each shard has one cursor, every worker (owner or thief) claims
/// the next index with [`claim`](Self::claim), and RMW atomicity alone
/// guarantees no index is handed out twice. Claims past the shard's end
/// are simply discarded by the caller's bounds check.
///
/// ```
/// use bns_sync::ClaimCursor;
///
/// let cursor = ClaimCursor::new(10);
/// assert_eq!(cursor.claim(), 10);
/// assert_eq!(cursor.claim(), 11);
/// ```
#[derive(Debug)]
pub struct ClaimCursor {
    next: AtomicUsize,
}

impl ClaimCursor {
    /// Creates a cursor whose first claim returns `start`.
    pub fn new(start: usize) -> Self {
        Self {
            next: AtomicUsize::new(start),
        }
    }

    /// Claims and returns the next index. Each index is returned to
    /// exactly one caller.
    #[inline]
    pub fn claim(&self) -> usize {
        #[cfg(bns_model_check)]
        crate::model::point("ClaimCursor::claim");
        // ordering: Relaxed — exclusivity of claims needs only the
        // atomicity of the RMW, not any ordering: the data each claimed
        // index refers to was published before the worker threads were
        // spawned (scope-spawn is a synchronization point), and nothing is
        // published back through the cursor.
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_are_sequential_from_start() {
        let c = ClaimCursor::new(3);
        assert_eq!((c.claim(), c.claim(), c.claim()), (3, 4, 5));
    }

    #[test]
    fn concurrent_claims_are_exclusive_and_complete() {
        let c = ClaimCursor::new(0);
        let mut seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = &c;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = c.claim();
                            if i >= 1000 {
                                break;
                            }
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }
}
