//! Shared claim cursor.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A monotonically advancing index cursor whose `fetch_add` claims are
/// exclusive.
///
/// This is the primitive under the serve engine's batch loop: the workers
/// share one cursor, each claims the next request index with
/// [`claim`](Self::claim), and RMW atomicity alone guarantees no index is
/// handed out twice. Claims past the batch's end are simply discarded by
/// the caller's bounds check.
///
/// ```
/// use bns_sync::ClaimCursor;
///
/// let cursor = ClaimCursor::new();
/// assert_eq!(cursor.claim(), 0);
/// assert_eq!(cursor.claim(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ClaimCursor {
    next: AtomicUsize,
}

impl ClaimCursor {
    /// Creates a cursor whose first claim returns 0.
    pub const fn new() -> Self {
        Self {
            next: AtomicUsize::new(0),
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
        let c = ClaimCursor::new();
        assert_eq!((c.claim(), c.claim(), c.claim()), (0, 1, 2));
    }

    #[test]
    fn concurrent_claims_are_exclusive_and_complete() {
        let c = ClaimCursor::new();
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
