//! Top-K extraction with training-positive masking.
//!
//! The recommendation list for user `u` ranks the user's **un-interacted**
//! items by predicted score (§II of the paper: "his recommendation list,
//! consisting of his un-interacted items ranked according to their predicted
//! scores"). Training positives are masked out; held-out test positives
//! remain candidates — finding them is the whole game.

/// Returns the item ids of the `k` highest-scored items, excluding the
/// (sorted) `masked` items, ordered by descending score. Ties break toward
/// the lower item id for determinism.
///
/// Allocates two vectors per call; hot loops over many users should hold a
/// [`TopKBuffer`] and call [`top_k_masked_into`] instead.
pub fn top_k_masked(scores: &[f32], masked: &[u32], k: usize) -> Vec<u32> {
    let mut buffer = TopKBuffer::default();
    let mut out = Vec::with_capacity(k);
    top_k_masked_into(scores, masked, k, &mut buffer, &mut out);
    out
}

/// Reusable scratch for [`top_k_masked_into`]: the running best-k list.
/// Steady-state allocation-free once its capacity has reached `k + 1`.
///
/// The buffer is also an **incremental** selector: [`begin`](Self::begin)
/// resets it for a cutoff, [`offer`](Self::offer) feeds one `(score, id)`
/// candidate, and [`emit`](Self::emit) writes the ranked ids out. Every
/// selection path in the workspace — the dense scan of
/// [`top_k_masked_into`] and the cluster-at-a-time candidate stream of the
/// IVF serving path — funnels through the same `offer`, so the ordering
/// rule (descending score, ties toward the lower id) has exactly one
/// implementation.
#[derive(Debug, Default, Clone)]
pub struct TopKBuffer {
    best: Vec<(f32, u32)>,
    k: usize,
}

impl TopKBuffer {
    /// Resets the selector for a fresh top-`k` extraction.
    pub fn begin(&mut self, k: usize) {
        self.k = k;
        self.best.clear();
        self.best.reserve(k + 1);
    }

    /// Feeds one candidate. Kept iff it beats the current `k`-th best
    /// under the (score desc, id asc) order. Candidates may arrive in any
    /// id order; equal `(score, id)` re-offers are idempotent in effect
    /// because ids are unique per extraction.
    #[inline]
    pub fn offer(&mut self, score: f32, id: u32) {
        if self.k == 0 {
            return;
        }
        debug_assert!(score.is_finite(), "score for item {id} is not finite");
        let better = |&(bs, bi): &(f32, u32)| score > bs || (score == bs && id < bi);
        if self.best.len() < self.k {
            let pos = self.best.iter().position(better).unwrap_or(self.best.len());
            self.best.insert(pos, (score, id));
        } else if better(self.best.last().expect("k > 0")) {
            let pos = self.best.iter().position(better).expect("strictly better");
            self.best.insert(pos, (score, id));
            self.best.pop();
        }
    }

    /// The score of the current `k`-th best candidate, or `None` while the
    /// selection is not yet full. A candidate stream whose per-block upper
    /// bound falls **strictly** below this floor cannot change the
    /// selection — the admission test behind bound-ordered probe
    /// termination in the IVF serving path. (At the floor exactly, a
    /// lower-id tie could still displace, so equality must keep probing.)
    #[inline]
    pub fn floor(&self) -> Option<f32> {
        (self.k > 0 && self.best.len() == self.k).then(|| self.best.last().expect("k > 0").0)
    }

    /// Writes the ranked ids (best first) into `out`, replacing its
    /// contents.
    pub fn emit(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.best.iter().map(|&(_, i)| i));
    }
}

/// [`top_k_masked`] writing into caller-owned buffers: `out` receives the
/// ranked ids, `buffer` holds the selection scratch. Neither allocates
/// once warm — the per-user hot path of the ranking protocol.
pub fn top_k_masked_into(
    scores: &[f32],
    masked: &[u32],
    k: usize,
    buffer: &mut TopKBuffer,
    out: &mut Vec<u32>,
) {
    debug_assert!(
        masked.windows(2).all(|w| w[0] < w[1]),
        "mask must be sorted unique"
    );
    if k == 0 {
        out.clear();
        return;
    }
    // A fixed-size sorted buffer beats BinaryHeap for the small k used in
    // recommendation (k ≤ 20 in the paper). Ids arrive ascending, so once
    // the buffer is full a score at or below its floor can never enter (an
    // equal score loses the id tie): that test comes first, and most items
    // stop there. Survivors advance one cursor over the sorted mask, and
    // the unmasked ones go through the shared `offer` selector.
    buffer.begin(k);
    let mut floor = None;
    let mut mask_idx = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        if floor.is_some_and(|f| s <= f) {
            continue;
        }
        let i = i as u32;
        while mask_idx < masked.len() && masked[mask_idx] < i {
            mask_idx += 1;
        }
        if mask_idx < masked.len() && masked[mask_idx] == i {
            continue;
        }
        buffer.offer(s, i);
        floor = buffer.floor();
    }
    buffer.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        let scores = [0.1f32, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_masked(&scores, &[], 3), vec![1, 3, 2]);
        assert_eq!(top_k_masked(&scores, &[], 5), vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn masking_removes_train_positives() {
        let scores = [0.1f32, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_masked(&scores, &[1, 3], 3), vec![2, 4, 0]);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let scores = [0.5f32, 0.4];
        assert!(top_k_masked(&scores, &[], 0).is_empty());
        assert_eq!(top_k_masked(&scores, &[], 10), vec![0, 1]);
        assert_eq!(top_k_masked(&scores, &[0, 1], 10), Vec::<u32>::new());
    }

    #[test]
    fn ties_break_by_lower_id() {
        let scores = [0.5f32, 0.5, 0.5, 0.5];
        assert_eq!(top_k_masked(&scores, &[], 2), vec![0, 1]);
        assert_eq!(top_k_masked(&scores, &[0], 2), vec![1, 2]);
    }

    #[test]
    fn incremental_offer_is_order_invariant() {
        // Feeding candidates in scrambled order (the IVF path visits items
        // cluster by cluster, not by ascending id) must produce the same
        // ranking as the dense ascending scan.
        let scores: Vec<f32> = (0..97)
            .map(|i| (((i * 31 + 7) % 89) as f32) / 89.0)
            .collect();
        let expected = top_k_masked(&scores, &[], 10);
        let mut buffer = TopKBuffer::default();
        buffer.begin(10);
        let mut order: Vec<u32> = (0..97).collect();
        order.reverse();
        order.swap(3, 60);
        for &i in &order {
            buffer.offer(scores[i as usize], i);
        }
        let mut out = Vec::new();
        buffer.emit(&mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn floor_tracks_the_kth_best_score() {
        let mut buffer = TopKBuffer::default();
        buffer.begin(0);
        buffer.offer(1.0, 0);
        assert_eq!(buffer.floor(), None, "k = 0 never fills");

        buffer.begin(2);
        assert_eq!(buffer.floor(), None);
        buffer.offer(0.5, 10);
        assert_eq!(buffer.floor(), None, "not full at 1 of 2");
        buffer.offer(0.9, 11);
        assert_eq!(buffer.floor(), Some(0.5));
        buffer.offer(0.7, 12);
        assert_eq!(
            buffer.floor(),
            Some(0.7),
            "floor rises as better candidates land"
        );
        buffer.offer(0.1, 13);
        assert_eq!(
            buffer.floor(),
            Some(0.7),
            "rejected candidates leave the floor alone"
        );
    }

    #[test]
    fn matches_full_sort_reference() {
        // Pseudo-random scores, then scores quantised to 5 levels (many ties
        // at the k-th score, so the floor skip and the id tie-break decide)
        // with several of the top-scored ids masked; compare each against a
        // full sort.
        let distinct: Vec<f32> = (0..200)
            .map(|i| (((i * 7919) % 997) as f32) / 997.0)
            .collect();
        let every_7th: Vec<u32> = (0..200).filter(|i| i % 7 == 0).collect();
        let quantised: Vec<f32> = (0..200).map(|i| ((i * 37 + 11) % 5) as f32).collect();
        let top_level: Vec<u32> = (0..200).filter(|&i| quantised[i as usize] == 4.0).collect();
        let masked_top: Vec<u32> = top_level.iter().copied().step_by(3).collect();
        for (scores, masked) in [(&distinct, &every_7th), (&quantised, &masked_top)] {
            for k in [1, 10, 45] {
                let got = top_k_masked(scores, masked, k);

                let mut all: Vec<(f32, u32)> = scores
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (s, i as u32))
                    .filter(|(_, i)| masked.binary_search(i).is_err())
                    .collect();
                all.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                let expected: Vec<u32> = all.into_iter().take(k).map(|(_, i)| i).collect();
                assert_eq!(got, expected, "k = {k}");
            }
        }
    }
}
