//! Shared measurement and reporting helpers for the three BENCH runners:
//!
//! * `bench_json` → `BENCH_samplers.json`: per-sampler draw cost, batched
//!   vs per-pair sampling, GEMV throughput, BNS draw cost against |Mᵤ|
//!   and the ECDF strategy;
//! * `serve_bench` → `BENCH_serve.json`: the in-process query engine
//!   (exact, cached, IVF) and the same traffic over loopback TCP;
//! * `scale_bench` → `BENCH_scale.json`: generator, artifact load,
//!   sampler draws and serving at 10k / 100k / 1M users.
//!
//! Every runner reads its flags through [`Flags`], times with [`rate`]
//! (draw rates through [`draws_per_sec`]) and writes its report as one
//! [`Json`] value through [`write_report`]. The serving runners share
//! the Zipf traffic ([`zipf_requests`]), the clustered-item MF model
//! ([`clustered_mf`]) and the IVF quality check ([`recall_at_10`]).

use bns_core::trainer::sample_pair;
use bns_core::{build_sampler, SamplerConfig};
use bns_data::synthetic::{clustered_item_embedding, generate, SyntheticConfig};
use bns_data::{split_random, Dataset, Occupations, SplitConfig};
use bns_model::{Embedding, MatrixFactorization, Scorer};
use bns_serve::{QueryEngine, Request};
use bns_stats::AliasTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::str::FromStr;
use std::time::Instant;

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

/// `--flag value` pairs from a runner's command line, every flag one of
/// the runner's known set.
#[derive(Debug, Clone)]
pub struct Flags {
    values: Vec<(String, String)>,
}

impl Flags {
    /// Reads the process arguments; see [`parse`](Self::parse).
    pub fn from_env(known: &[&str]) -> Self {
        Self::parse(known, std::env::args().skip(1))
    }

    /// Collects `--flag value` pairs from `args`.
    ///
    /// # Panics
    /// On a flag outside `known` or a flag without a value.
    pub fn parse(known: &[&str], args: impl IntoIterator<Item = String>) -> Self {
        let mut values = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            assert!(
                known.contains(&flag.as_str()),
                "unknown flag {flag} (expected {})",
                known.join("/")
            );
            let value = args
                .next()
                .unwrap_or_else(|| panic!("missing value for {flag}"));
            values.push((flag, value));
        }
        Self { values }
    }

    /// The last value given for `flag`, if any.
    pub fn raw(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag` parsed as `T`, or `default`.
    ///
    /// # Panics
    /// When the value does not parse as `T`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.raw(flag).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                panic!("{flag} takes a {}, got {v:?}", std::any::type_name::<T>())
            })
        })
    }
}

/// Calls `f` `n` times and returns calls per second.
pub fn rate(n: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    n as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Draws per second of a fresh `config` sampler through the training
/// entry point [`sample_pair`], always for the pair `(u, pos)`, so each
/// sampler pays exactly its declared `ScoreAccess` cost. A tenth of
/// `draws` (at most 100) untimed draws warm caches and lazily built
/// sampler state first.
pub fn draws_per_sec(
    config: &SamplerConfig,
    dataset: &Dataset,
    occupations: Option<&Occupations>,
    scorer: &dyn Scorer,
    (u, pos): (u32, u32),
    draws: usize,
) -> f64 {
    let mut sampler = build_sampler(config, dataset, occupations).expect("valid sampler");
    sampler.on_epoch_start(0);
    let (train, popularity) = (dataset.train(), dataset.popularity());
    let mut user_scores = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut draw = || {
        black_box(sample_pair(
            sampler.as_mut(),
            scorer,
            train,
            popularity,
            &mut user_scores,
            u,
            pos,
            0,
            &mut rng,
        ));
    };
    for _ in 0..(draws / 10).clamp(1, 100) {
        draw();
    }
    rate(draws, draw)
}

/// Zipf exponent `s` of the serving runners' traffic.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// List cutoff of every serving-runner request.
pub const TOP_K: usize = 10;

/// `n` top-[`TOP_K`] requests with seen items excluded, from
/// Zipf-distributed users: user `u` has weight `1 / (u + 1)^s` with
/// `s = ZIPF_EXPONENT`, sampled through an alias table. This is the
/// standard skewed-traffic model, where a few head users dominate the
/// stream.
pub fn zipf_requests(n_users: u32, n: usize, rng: &mut StdRng) -> Vec<Request> {
    let weights: Vec<f64> = (0..n_users)
        .map(|u| 1.0 / f64::from(u + 1).powf(ZIPF_EXPONENT))
        .collect();
    let alias = AliasTable::new(&weights).expect("valid Zipf weights");
    (0..n)
        .map(|_| Request {
            user: alias.sample(rng) as u32,
            k: TOP_K,
            exclude_seen: true,
        })
        .collect()
}

/// An MF model over `users` whose `n_items` item rows are a planted
/// latent group mixture ([`clustered_item_embedding`]: `4·√n_items`
/// groups, within-group spread 0.25). Random item rows are the
/// degenerate worst case for cluster probing, while a trained table
/// concentrates around preference modes; this stand-in has that modal
/// structure, so IVF is measured in the regime it serves. Exhaustive
/// scoring costs the same over any geometry.
pub fn clustered_mf(users: Embedding, n_items: u32, seed: u64) -> MatrixFactorization {
    let dim = users.dim();
    let n_groups = ((4.0 * f64::from(n_items).sqrt()) as u32).clamp(1, n_items);
    let mut item_data = vec![0f32; n_items as usize * dim];
    for (i, row) in item_data.chunks_exact_mut(dim).enumerate() {
        clustered_item_embedding(seed, n_groups, 0.25, i as u32, row);
    }
    let items = Embedding::from_vec(n_items as usize, dim, item_data).expect("item table");
    MatrixFactorization::from_embeddings(users, items).expect("valid clustered model")
}

/// Mean recall@10 of `approx` against the `exact` ranking over the first
/// `min(n_users, 200)` users, seen items excluded.
pub fn recall_at_10(exact: &QueryEngine, approx: &QueryEngine, n_users: u32) -> f64 {
    let sample_users = n_users.min(200);
    let mut total = 0.0f64;
    for u in 0..sample_users {
        let truth = exact.top_k(u, 10, true).expect("exact top-10");
        let found = approx.top_k(u, 10, true).expect("approximate top-10");
        let hit = truth.iter().filter(|i| found.contains(i)).count();
        total += hit as f64 / truth.len().max(1) as f64;
    }
    total / f64::from(sample_users.max(1))
}

/// A JSON value as the runners report it: integers are counts, and every
/// float carries the number of decimals it is printed with.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A float printed with a fixed number of decimals; `null` when not
    /// finite, which JSON cannot represent.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object whose keys keep their insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value with two-space indentation and a trailing
    /// newline. A container holding no non-empty container stays on one
    /// line; any other container puts each member on its own line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_nested(&self) -> bool {
        match self {
            Json::Array(items) => !items.is_empty(),
            Json::Object(fields) => !fields.is_empty(),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(x, decimals) if x.is_finite() => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                let nested = items.iter().any(Json::is_nested);
                write_members(out, depth, ('[', ']'), nested, items, |out, v| {
                    v.write(out, depth + 1)
                });
            }
            Json::Object(fields) => {
                let nested = fields.iter().any(|(_, v)| v.is_nested());
                write_members(out, depth, ('{', '}'), nested, fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                });
            }
        }
    }
}

/// Writes a container's members between `open` and `close`: one per line
/// at `depth + 1` when `nested`, else inline.
fn write_members<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    nested: bool,
    members: &[T],
    mut member: impl FnMut(&mut String, &T),
) {
    out.push(open);
    if members.is_empty() {
        out.push(close);
        return;
    }
    let (pad, inner) = ("  ".repeat(depth), "  ".repeat(depth + 1));
    for (i, m) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if nested {
            let _ = write!(out, "\n{inner}");
        } else if open == '{' || i > 0 {
            out.push(' ');
        }
        member(out, m);
    }
    if nested {
        let _ = write!(out, "\n{pad}{close}");
    } else {
        if open == '{' {
            out.push(' ');
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::Int(n.into())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Writes `report` to `path`, then prints `wrote <path>` and the report.
pub fn write_report(path: &str, report: &Json) {
    let text = report.render();
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
    print!("{text}");
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
    fn json_renders_nested_values_with_fixed_decimals() {
        let report = Json::obj([
            ("schema", 1u32.into()),
            ("name", "a \"b\"\\c".into()),
            ("rate", Json::Fixed(1234.56789, 1)),
            ("ratio", Json::Fixed(2.0, 3)),
            ("nan", Json::Fixed(f64::NAN, 2)),
            ("missing", Json::from(None::<u32>)),
            ("ok", true.into()),
            ("flat", Json::obj([("x", 1usize.into()), ("y", Json::Null)])),
            ("list", Json::Array(vec![1u64.into(), Json::Fixed(0.5, 2)])),
            ("empty", Json::obj::<&str>([])),
            (
                "nested",
                Json::Array(vec![Json::obj([("k", Json::Array(vec![]))]), Json::Null]),
            ),
        ]);
        let want = r#"{
  "schema": 1,
  "name": "a \"b\"\\c",
  "rate": 1234.6,
  "ratio": 2.000,
  "nan": null,
  "missing": null,
  "ok": true,
  "flat": { "x": 1, "y": null },
  "list": [1, 0.50],
  "empty": {},
  "nested": [
    { "k": [] },
    null
  ]
}
"#;
        assert_eq!(report.render(), want);
    }

    #[test]
    fn flags_take_the_last_value_and_fall_back_to_defaults() {
        let args = ["--n", "3", "--out", "a.json", "--n", "5"].map(String::from);
        let flags = Flags::parse(&["--n", "--out", "--scale"], args);
        assert_eq!(flags.get("--n", 0usize), 5);
        assert_eq!(flags.get("--out", String::new()), "a.json");
        assert_eq!(flags.get("--scale", 1.0f64), 1.0);
        assert_eq!(flags.raw("--scale"), None);
    }

    #[test]
    #[should_panic(expected = "unknown flag --seed")]
    fn flags_reject_unknown_flags() {
        Flags::parse(&["--out"], ["--seed", "1"].map(String::from));
    }
}
