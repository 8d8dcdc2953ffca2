//! Shared fixtures for the Criterion benches.
//!
//! The benchmark targets live in `benches/`:
//!
//! * `sampler_micro`  — BNS draw time vs the candidate-set size |Mᵤ|, and
//!   the exact-vs-subsampled ECDF ablation.
//! * `stats_bench`    — special functions, ECDF, alias sampling.
//! * `model_bench`    — MF/LightGCN scoring, updates, propagation.
//! * `table_bench`    — miniature regenerations of Tables I–IV.
//! * `fig_bench`      — miniature regenerations of Figs. 1–5.
//! * `parallel_scaling` — sharded-trainer throughput at 1/2/4/8 hogwild
//!   shards vs the serial engine (triples/sec ratios).
//!
//! The `bench_json` binary (`cargo run -p bns-bench --bin bench_json`)
//! times the sampler lineup without Criterion — per-draw cost, batched vs
//! per-pair throughput, and the fused BNS draw against the pre-fused
//! reference kept in [`UnfusedBns`] — and writes the results to
//! `BENCH_samplers.json`, so the repo's perf trajectory is
//! machine-readable.

use bns_core::bns::prior::{PopularityPrior, Prior};
use bns_core::bns::risk::selection_value;
use bns_core::sampler::draw_candidate_set;
use bns_data::synthetic::{generate, SyntheticConfig};
use bns_data::{split_random, Dataset, Interactions, Occupations, SplitConfig};
use bns_model::loss::info;
use bns_model::MatrixFactorization;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A ready-to-train fixture: dataset + occupations + model.
pub struct BenchFixture {
    /// The train/test dataset.
    pub dataset: Dataset,
    /// Occupation labels.
    pub occupations: Occupations,
    /// An MF model with random embeddings.
    pub model: MatrixFactorization,
}

/// Builds a deterministic fixture with density ≈ 5%.
pub fn fixture(n_users: u32, n_items: u32, seed: u64) -> BenchFixture {
    let cfg = SyntheticConfig {
        n_users,
        n_items,
        target_interactions: (n_users as usize * n_items as usize) / 20,
        seed,
        ..SyntheticConfig::default()
    };
    let synthetic = generate(&cfg).expect("valid bench config");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng)
            .expect("bench split");
    let dataset = Dataset::new("bench", train_set, test_set).expect("valid bench dataset");
    let mut model_rng = StdRng::seed_from_u64(seed ^ 0xF0);
    let model = MatrixFactorization::new(
        dataset.n_users(),
        dataset.n_items(),
        32,
        0.1,
        &mut model_rng,
    )
    .expect("valid bench model");
    BenchFixture {
        dataset,
        occupations: synthetic.occupations,
        model,
    }
}

/// The **pre-fused** BNS draw, kept verbatim as the baseline the fused
/// path is benchmarked against (the `bench_json` runner).
///
/// This is what the seed implementation did per draw, including its
/// sequential (non-unrolled) dot products: materialize the full rating
/// vector x̂ᵤ into an `n_items` buffer, draw m candidates, then run one
/// independent Eq. (16) scan over that buffer per candidate and apply the
/// Eq. (32) min-risk rule. Total traffic: `n·d` scalar MACs + `(m+1)·n`
/// buffer touches per draw — the cost profile the fused kernel collapses.
pub struct UnfusedBns {
    m: usize,
    lambda: f64,
    prior: PopularityPrior,
    scores: Vec<f32>,
    candidates: Vec<u32>,
}

impl UnfusedBns {
    /// Builds the reference sampler (paper defaults: |Mᵤ| = 5, λ = 5,
    /// Eq. 17 popularity prior) for the given dataset.
    pub fn new(dataset: &Dataset) -> Self {
        Self {
            m: 5,
            lambda: 5.0,
            prior: PopularityPrior::new(dataset.popularity()),
            scores: vec![0.0f32; dataset.n_items() as usize],
            candidates: Vec::with_capacity(5),
        }
    }

    /// The seed's scalar `score_all`: one latency-bound sequential dot per
    /// item row (the pre-kernel Algorithm 1 line 4).
    fn scalar_score_all(model: &MatrixFactorization, u: u32, out: &mut [f32]) {
        let wu = model.user_embedding(u);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = wu
                .iter()
                .zip(model.item_embedding(i as u32))
                .map(|(a, b)| a * b)
                .sum();
        }
    }

    /// One pre-fused draw for `(u, pos)`; `None` when the user has no
    /// negatives.
    pub fn draw(
        &mut self,
        model: &MatrixFactorization,
        train: &Interactions,
        u: u32,
        pos: u32,
        rng: &mut StdRng,
    ) -> Option<u32> {
        Self::scalar_score_all(model, u, &mut self.scores);
        if !draw_candidate_set(train, u, self.m, &mut self.candidates, rng) {
            return None;
        }
        let positives = train.items_of(u);
        let n_neg = self.scores.len() - positives.len();
        let score_pos = self.scores[pos as usize];
        let mut best: Option<(f64, u32)> = None;
        for &l in &self.candidates {
            let x = self.scores[l as usize];
            // Independent Eq. (16) scan per candidate — the m catalog-sized
            // re-reads the fused pass eliminates.
            let all_le = self.scores.iter().filter(|&&s| s <= x).count();
            let pos_le = positives
                .iter()
                .filter(|&&p| self.scores[p as usize] <= x)
                .count();
            let f_hat = if n_neg == 0 {
                0.5
            } else {
                (all_le - pos_le) as f64 / n_neg as f64
            };
            let unb = bns_core::bns::unbias(f_hat, self.prior.p_fn(u, l));
            let risk = selection_value(info(score_pos, x) as f64, unb, self.lambda);
            if best.map(|(r, _)| risk < r).unwrap_or(true) {
                best = Some((risk, l));
            }
        }
        best.map(|(_, l)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = fixture(40, 80, 1);
        assert_eq!(f.dataset.n_users(), 40);
        assert_eq!(f.dataset.n_items(), 80);
        assert!(!f.dataset.train().is_empty());
    }

    #[test]
    fn unfused_reference_draws_valid_negatives() {
        let f = fixture(30, 60, 2);
        let mut reference = UnfusedBns::new(&f.dataset);
        let mut rng = StdRng::seed_from_u64(3);
        let train = f.dataset.train();
        let pos = train.items_of(0)[0];
        for _ in 0..200 {
            let j = reference.draw(&f.model, train, 0, pos, &mut rng).unwrap();
            assert!(!train.contains(0, j), "reference sampled a positive");
        }
    }
}
