//! Ranking metrics.
//!
//! The paper reports Precision, Recall and NDCG at K ∈ {5, 10, 20}
//! (Tables II–IV). All metrics take the ranked recommendation list and the
//! user's **sorted** held-out positive set.

/// Whether `item` is in the sorted `relevant` set.
#[inline]
fn is_relevant(relevant: &[u32], item: u32) -> bool {
    relevant.binary_search(&item).is_ok()
}

/// Precision@K: fraction of the top-K that is relevant. Conventionally
/// divides by `k` even when fewer than `k` items were recommendable.
pub fn precision_at_k(ranked: &[u32], relevant: &[u32], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let hits = ranked
        .iter()
        .take(k)
        .filter(|&&i| is_relevant(relevant, i))
        .count();
    hits as f64 / k as f64
}

/// Recall@K: fraction of the relevant set retrieved in the top-K.
pub fn recall_at_k(ranked: &[u32], relevant: &[u32], k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hits = ranked
        .iter()
        .take(k)
        .filter(|&&i| is_relevant(relevant, i))
        .count();
    hits as f64 / relevant.len() as f64
}

/// NDCG@K with binary relevance: `DCG = Σ 1/log₂(rank + 1)` over relevant
/// hits (1-based ranks), normalized by the ideal DCG of
/// `min(k, |relevant|)` front-loaded hits.
pub fn ndcg_at_k(ranked: &[u32], relevant: &[u32], k: usize) -> f64 {
    if relevant.is_empty() || k == 0 {
        return 0.0;
    }
    let dcg: f64 = ranked
        .iter()
        .take(k)
        .enumerate()
        .filter(|(_, &i)| is_relevant(relevant, i))
        .map(|(rank0, _)| 1.0 / ((rank0 as f64 + 2.0).log2()))
        .sum();
    let ideal_hits = k.min(relevant.len());
    let idcg: f64 = (0..ideal_hits)
        .map(|r| 1.0 / ((r as f64 + 2.0).log2()))
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ranked = [9, 4, 7, 1, 0]; relevant = {4, 1, 5}.
    const RANKED: [u32; 5] = [9, 4, 7, 1, 0];
    const RELEVANT: [u32; 3] = [1, 4, 5];

    #[test]
    fn precision_reference() {
        assert_eq!(precision_at_k(&RANKED, &RELEVANT, 1), 0.0);
        assert_eq!(precision_at_k(&RANKED, &RELEVANT, 2), 0.5);
        assert_eq!(precision_at_k(&RANKED, &RELEVANT, 4), 0.5);
        assert_eq!(precision_at_k(&RANKED, &RELEVANT, 0), 0.0);
    }

    #[test]
    fn recall_reference() {
        assert_eq!(recall_at_k(&RANKED, &RELEVANT, 2), 1.0 / 3.0);
        assert_eq!(recall_at_k(&RANKED, &RELEVANT, 5), 2.0 / 3.0);
        assert_eq!(recall_at_k(&RANKED, &[], 5), 0.0);
    }

    #[test]
    fn ndcg_reference() {
        // Hits at ranks 2 and 4 (1-based): DCG = 1/log2(3) + 1/log2(5).
        let dcg = 1.0 / 3f64.log2() + 1.0 / 5f64.log2();
        // Ideal: 3 hits at ranks 1..3 → IDCG = 1 + 1/log2(3) + 1/2.
        let idcg = 1.0 + 1.0 / 3f64.log2() + 0.5;
        let expected = dcg / idcg;
        assert!((ndcg_at_k(&RANKED, &RELEVANT, 5) - expected).abs() < 1e-12);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let ranked = [1u32, 4, 5, 9, 0];
        assert!((ndcg_at_k(&ranked, &RELEVANT, 5) - 1.0).abs() < 1e-12);
        assert!((ndcg_at_k(&ranked, &RELEVANT, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_no_hits_is_zero() {
        assert_eq!(ndcg_at_k(&[7, 8, 9], &[1, 2], 3), 0.0);
        assert_eq!(ndcg_at_k(&RANKED, &[], 3), 0.0);
    }

    #[test]
    fn metrics_bounded_in_unit_interval() {
        let ranked: Vec<u32> = (0..50).collect();
        let relevant: Vec<u32> = (0..50).filter(|i| i % 3 == 0).collect();
        for k in [1usize, 5, 10, 50] {
            for v in [
                precision_at_k(&ranked, &relevant, k),
                recall_at_k(&ranked, &relevant, k),
                ndcg_at_k(&ranked, &relevant, k),
            ] {
                assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
            }
        }
    }
}
