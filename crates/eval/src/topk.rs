//! Top-K extraction with training-positive masking.
//!
//! The recommendation list for user `u` ranks the user's **un-interacted**
//! items by predicted score (§II of the paper: "his recommendation list,
//! consisting of his un-interacted items ranked according to their predicted
//! scores"). Training positives are masked out; held-out test positives
//! remain candidates — finding them is the whole game.

/// Returns the item ids of the `k` highest-scored items, excluding the
/// (sorted) `masked` items, ordered by descending score. Ties break toward
/// the lower item id for determinism; NaN scores are never ranked.
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
/// selection path in the workspace — the dense [`MaskedScan`] of
/// [`top_k_masked_into`], the ranking protocol's tile scan and serving's
/// pre-filtered scan, over the whole catalog or the probed IVF clusters —
/// funnels through the same `offer`, so the
/// ordering rule (descending score, ties toward the lower id, NaN never
/// kept) has exactly one implementation.
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
    ///
    /// A NaN score is never kept (it has no place in the order, and once
    /// in the `k`-th slot nothing could displace it); `±∞` are ordered
    /// like any other score. So a non-finite row in a model's table (an
    /// artifact accepts one) drops out of every selection that funnels
    /// through here instead of corrupting it.
    #[inline]
    pub fn offer(&mut self, score: f32, id: u32) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        let better = |&(bs, bi): &(f32, u32)| score > bs || (score == bs && id < bi);
        if self.best.len() < self.k {
            self.best.push((score, id));
        } else if better(self.best.last().expect("k > 0")) {
            *self.best.last_mut().expect("k > 0") = (score, id);
        } else {
            return;
        }
        // The candidate sits in the last slot: walk it up past every entry
        // it beats, so it lands in the first slot whose entry it beats in
        // one pass over the sorted list.
        let best = &mut self.best[..];
        let mut at = best.len() - 1;
        while at > 0 && better(&best[at - 1]) {
            best[at] = best[at - 1];
            at -= 1;
        }
        best[at] = (score, id);
    }

    /// The score of the current `k`-th best candidate, or `None` while the
    /// selection is not yet full. A candidate whose upper bound falls
    /// **strictly** below this floor cannot change the selection — the
    /// test behind the pre-filtered scans of ranking evaluation and
    /// serving. (At the floor exactly, a lower-id tie could still
    /// displace, so equality must be offered.)
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
/// once warm — the per-user hot path of exact serving.
pub fn top_k_masked_into(
    scores: &[f32],
    masked: &[u32],
    k: usize,
    buffer: &mut TopKBuffer,
    out: &mut Vec<u32>,
) {
    if k == 0 {
        out.clear();
        return;
    }
    buffer.begin(k);
    MaskedScan::default().feed(scores, 0, masked, buffer);
    buffer.emit(out);
}

/// The masked dense scan behind [`top_k_masked_into`] (and the ranking
/// protocol for a model without row tables), resumable across blocks of
/// consecutive item ids: after [`TopKBuffer::begin`], feed the
/// catalog in ascending blocks to one `MaskedScan` and the same buffer,
/// then [`TopKBuffer::emit`]. The result does not depend on where the
/// blocks split.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaskedScan {
    /// The buffer's floor after the last admitted candidate.
    floor: Option<f32>,
    /// Cursor into the sorted mask: no masked id before it is ≥ the next
    /// id to be fed.
    mask_idx: usize,
}

impl MaskedScan {
    /// Offers `scores[i]` as item `first_id + i` to `buffer`, skipping the
    /// ids in the sorted `masked` list. Blocks must arrive in ascending id
    /// order, and `masked` must be the same list on every call.
    pub fn feed(&mut self, scores: &[f32], first_id: u32, masked: &[u32], buffer: &mut TopKBuffer) {
        debug_assert!(
            masked.windows(2).all(|w| w[0] < w[1]),
            "mask must be sorted unique"
        );
        // A fixed-size sorted buffer beats BinaryHeap for the small k used
        // in recommendation (k ≤ 20 in the paper). Ids arrive ascending, so
        // once the buffer is full a score at or below its floor can never
        // enter (an equal score loses the id tie): that test comes first,
        // once for a group of eight scores (a vector compare) and then per
        // score, and most items stop there. Survivors advance one cursor
        // over the sorted mask, and the unmasked ones go through the shared
        // `offer` selector.
        let (mut floor, mut mask_idx) = (self.floor, self.mask_idx);
        let (chunks, rest) = scores.as_chunks::<8>();
        let groups = chunks.iter().map(|c| &c[..]).chain(std::iter::once(rest));
        for (g, group) in (0u32..).step_by(8).zip(groups) {
            if floor.is_some_and(|f| group.iter().fold(true, |all, &s| all & (s <= f))) {
                continue;
            }
            for (i, &s) in (first_id + g..).zip(group) {
                if floor.is_some_and(|f| s <= f) {
                    continue;
                }
                while mask_idx < masked.len() && masked[mask_idx] < i {
                    mask_idx += 1;
                }
                if mask_idx < masked.len() && masked[mask_idx] == i {
                    continue;
                }
                buffer.offer(s, i);
                floor = buffer.floor();
            }
        }
        (self.floor, self.mask_idx) = (floor, mask_idx);
    }
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
    fn nan_is_never_kept_and_infinities_rank_like_scores() {
        let inf = f32::INFINITY;
        let scores = [f32::NAN, 0.5, -inf, inf, f32::NAN, 0.5, inf, -0.0];
        assert_eq!(top_k_masked(&scores, &[], 3), vec![3, 6, 1]);
        assert_eq!(top_k_masked(&scores, &[], 8), vec![3, 6, 1, 5, 7, 2]);
        assert_eq!(top_k_masked(&scores, &[3], 2), vec![6, 1]);
        // A NaN offered while the buffer is not full is not kept, so it
        // never becomes the floor.
        let mut buffer = TopKBuffer::default();
        buffer.begin(2);
        buffer.offer(f32::NAN, 0);
        buffer.offer(-inf, 1);
        assert_eq!(buffer.floor(), None);
        buffer.offer(f32::NAN, 2);
        buffer.offer(-inf, 3);
        assert_eq!(buffer.floor(), Some(-inf));
        buffer.offer(-1.0, 4);
        let mut out = Vec::new();
        buffer.emit(&mut out);
        assert_eq!(out, vec![4, 1]);
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
        // with several of the top-scored ids masked; compare each, in one
        // pass and fed through `MaskedScan` in blocks, against a full sort.
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

                // The same scan resumed block by block.
                for block in [1, 7, 64] {
                    let mut buffer = TopKBuffer::default();
                    buffer.begin(k);
                    let mut scan = MaskedScan::default();
                    for (b, chunk) in scores.chunks(block).enumerate() {
                        scan.feed(chunk, (b * block) as u32, masked, &mut buffer);
                    }
                    let mut blocked = Vec::new();
                    buffer.emit(&mut blocked);
                    assert_eq!(blocked, expected, "k = {k}, blocks of {block}");
                }
            }
        }
    }
}
