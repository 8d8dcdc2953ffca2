//! Million-scale substrate benchmark → `BENCH_scale.json`.
//!
//! Pins the four numbers the data-substrate PR is about, at catalog sizes
//! where the pre-streamed pipeline would have materialized multi-GB latent
//! matrices: 10k → 100k → 1M users (square catalogs, ~20 interactions per
//! user, model dim 16):
//!
//! * **generator rows/sec** — the streamed CSR generator
//!   ([`bns_data::synthetic::generate_streamed`]), which derives every
//!   latent coordinate from a hash of `(seed, id)` and keeps only
//!   per-item state resident: the item table (4·d B an item, 32 B at the
//!   default `latent_dim = 8`) and ~28 B an item of popularity state;
//! * **artifact load_ms** — buffered (`read` + copy + full verify) vs
//!   mmap-backed zero-copy ([`ModelArtifact::load_mapped`]), same chunked
//!   checksum verification on both paths;
//! * **sampler draws/sec** — RNS (the O(1) floor) and BNS at its defaults
//!   (an Eq. 16 pass over at most `DKW_SAMPLE` = 18,445 item ids) through
//!   the real `sample_pair` path;
//! * **serve queries/sec** — the shared-cursor engine over the mapped
//!   artifact, Zipf-skewed traffic, p50/p99 per tier — exhaustive scan
//!   **and** the IVF probe path at the default width, with measured
//!   recall@10 and the speedup pinned next to each other. The item table
//!   is planted as a latent group mixture
//!   ([`bns_data::synthetic::clustered_item_embedding`]) so the catalog
//!   is clusterable the way a trained table is; uniform-random items
//!   would make cluster probing meaningless at any width.
//!
//! Each tier also records `VmRSS`/`VmHWM` so "no user table, and per-item
//! state linear in the catalog" is a number in the JSON, not a claim in a
//! doc.
//!
//! Flags: `--scale F` (in `(0, 1]`) shrinks every tier; `--out PATH`.
//!
//! ```sh
//! cargo run --release -p bns-bench --bin scale_bench               # full 3 tiers
//! cargo run --release -p bns-bench --bin scale_bench -- \
//!     --scale 0.02 --out target/BENCH_scale_smoke.json              # CI smoke
//! ```

use bns_bench::{
    clustered_mf, draws_per_sec, recall_at_10, write_report, zipf_requests, Flags, Json,
};
use bns_core::SamplerConfig;
use bns_data::synthetic::{generate_streamed, EmissionMode, SyntheticConfig};
use bns_data::{split_random, Dataset, SplitConfig};
use bns_model::Embedding;
use bns_serve::{IndexMode, ModelArtifact, QueryEngine, Request, ServeReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Full-scale tier sizes (users = items).
const TIERS: [u32; 3] = [10_000, 100_000, 1_000_000];
/// Model/embedding dimension for the artifact + serving stages.
const DIM: usize = 16;
/// Target interactions per user.
const PER_USER: usize = 20;
/// Base seed; each tier mixes in its full-scale size.
const SEED: u64 = 47;

/// Reads a `VmRSS`-style field from `/proc/self/status`, in MiB.
/// Returns 0 where procfs is unavailable (non-Linux).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one tier and returns its JSON object.
fn run_tier(full_users: u32, scale: f64) -> Json {
    let n_users = ((full_users as f64 * scale) as u32).max(64);
    let n_items = n_users;
    let cfg = SyntheticConfig {
        n_users,
        n_items,
        target_interactions: n_users as usize * PER_USER,
        seed: SEED ^ u64::from(full_users),
        ..SyntheticConfig::default()
    };

    // Streamed generation: the only O(catalog) state is popularity.
    let t0 = Instant::now();
    let interactions = generate_streamed(&cfg).expect("valid scale config");
    let gen_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let rss_after_generate_mb = proc_status_mb("VmRSS");
    let emission = match cfg.resolved_emission() {
        EmissionMode::Exact => "exact",
        EmissionMode::Pooled { .. } => "pooled",
        EmissionMode::Auto => unreachable!("resolved"),
    };

    // Freeze a dim-16 MF model over the generated CSR, then time both
    // load paths on the same file. Users are random; the item table is a
    // planted latent group mixture (≈ one group per auto IVF cluster).
    let mut model_rng = StdRng::seed_from_u64(cfg.seed ^ 0xF0);
    let users =
        Embedding::normal_init(n_users as usize, DIM, 0.1, &mut model_rng).expect("user table");
    let model = clustered_mf(users, n_items, cfg.seed ^ 0xF1);
    let artifact = ModelArtifact::freeze(&model, &interactions).expect("freezable model");
    let path = std::env::temp_dir().join(format!(
        "bns_scale_bench_{}_{}.bnsa",
        n_users,
        std::process::id()
    ));
    artifact.save(&path).expect("artifact saved");
    let artifact_bytes = std::fs::metadata(&path).expect("artifact stat").len();
    let t0 = Instant::now();
    let buffered = ModelArtifact::load(&path).expect("buffered load");
    let load_ms_buffered = t0.elapsed().as_secs_f64() * 1e3;
    drop(buffered);
    let t0 = Instant::now();
    let mapped = ModelArtifact::load_mapped(&path).expect("mapped load");
    let load_ms_mapped = t0.elapsed().as_secs_f64() * 1e3;

    // Sampler draws through the real training entry point. RNS is the
    // O(1) floor. BNS pays one Eq. 16 pass per draw, over the catalog up to
    // `DKW_SAMPLE` items and over the per-epoch sample above that; its
    // draw budget shrinks as the tier's user count grows.
    let mut split_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE);
    let (train_set, test_set) =
        split_random(&interactions, SplitConfig::default(), &mut split_rng).expect("scale split");
    let dataset = Dataset::new("scale", train_set, test_set).expect("valid scale dataset");
    let u0 = *dataset
        .train()
        .active_users()
        .first()
        .expect("tier has active users");
    let pair = (u0, dataset.train().items_of(u0)[0]);
    let rns_draws_per_sec =
        draws_per_sec(&SamplerConfig::Rns, &dataset, None, &model, pair, 200_000);
    let bns = SamplerConfig::Bns {
        config: Default::default(),
        prior: bns_core::PriorKind::Popularity,
    };
    let bns_draws = (40_000_000 / n_users as usize).clamp(40, 10_000);
    let bns_draws_per_sec = draws_per_sec(&bns, &dataset, None, &model, pair, bns_draws);

    // Serve Zipf traffic over the *mapped* artifact — queries score
    // straight out of the page cache, no decoded copy in between.
    let engine = QueryEngine::new(mapped.clone());
    let n_requests = (80_000_000 / n_users as usize).clamp(100, 20_000);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x21F);
    let requests = zipf_requests(n_users, n_requests, &mut rng);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let serve = |engine: &QueryEngine, requests: &[Request]| -> ServeReport {
        engine
            .serve(&requests[..requests.len().min(50)], threads)
            .expect("warm-up");
        engine.serve(requests, threads).expect("valid requests")
    };
    let report = serve(&engine, &requests);

    // The IVF probe path at the default width over the *same* mapped
    // artifact, plus a measured recall@10 against the exact ranking. The
    // approximate path is far faster, so it gets a proportionally larger
    // request batch for a stable clock.
    let ivf = mapped.index().map(|index| {
        let nprobe = index.default_nprobe();
        let ivf_engine = QueryEngine::with_index_mode(mapped.clone(), IndexMode::Ivf { nprobe })
            .expect("artifact carries an index");
        let ivf_requests = zipf_requests(n_users, (n_requests * 32).clamp(2_000, 20_000), &mut rng);
        let ivf_report = serve(&ivf_engine, &ivf_requests);
        Json::obj([
            ("n_clusters", index.n_clusters().into()),
            ("nprobe", nprobe.into()),
            (
                "queries_per_sec",
                Json::Fixed(ivf_report.queries_per_sec(), 1),
            ),
            (
                "p50_ms",
                Json::Fixed(ivf_report.latency_percentile_ms(0.5), 4),
            ),
            (
                "p99_ms",
                Json::Fixed(ivf_report.latency_percentile_ms(0.99), 4),
            ),
            (
                "recall_at_10",
                Json::Fixed(recall_at_10(&engine, &ivf_engine, n_users), 4),
            ),
            (
                "speedup_x",
                Json::Fixed(
                    ivf_report.queries_per_sec() / report.queries_per_sec().max(1e-9),
                    1,
                ),
            ),
        ])
    });
    std::fs::remove_file(&path).ok();

    println!(
        "tier {n_users}x{n_items}: {} interactions, gen {:.0} rows/s, load {load_ms_buffered:.2}ms buffered / {load_ms_mapped:.2}ms mapped, serve exact {:.0} q/s, ivf {}",
        interactions.len(),
        n_users as f64 / gen_secs,
        report.queries_per_sec(),
        if ivf.is_some() { "measured" } else { "skipped (no index below the auto threshold)" },
    );
    Json::obj([
        ("n_users", n_users.into()),
        ("n_items", n_items.into()),
        ("interactions", interactions.len().into()),
        (
            "generator",
            Json::obj([
                ("emission", emission.into()),
                ("rows_per_sec", Json::Fixed(n_users as f64 / gen_secs, 1)),
                (
                    "interactions_per_sec",
                    Json::Fixed(interactions.len() as f64 / gen_secs, 1),
                ),
                ("wall_ms", Json::Fixed(gen_secs * 1e3, 2)),
                ("rss_after_mb", Json::Fixed(rss_after_generate_mb, 1)),
            ]),
        ),
        (
            "artifact",
            Json::obj([
                ("bytes", artifact_bytes.into()),
                ("load_ms_buffered", Json::Fixed(load_ms_buffered, 3)),
                ("load_ms_mapped", Json::Fixed(load_ms_mapped, 3)),
                ("mapped_zero_copy", mapped.is_mapped().into()),
            ]),
        ),
        (
            "samplers_draws_per_sec",
            Json::obj([
                ("RNS", Json::Fixed(rns_draws_per_sec, 1)),
                ("BNS", Json::Fixed(bns_draws_per_sec, 1)),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("threads", report.threads.into()),
                ("queries_per_sec", Json::Fixed(report.queries_per_sec(), 1)),
                ("p50_ms", Json::Fixed(report.latency_percentile_ms(0.5), 4)),
                ("p99_ms", Json::Fixed(report.latency_percentile_ms(0.99), 4)),
            ]),
        ),
        ("serve_ivf", ivf.into()),
        ("vm_hwm_mb", Json::Fixed(proc_status_mb("VmHWM"), 1)),
    ])
}

fn main() {
    let flags = Flags::from_env(&["--scale", "--out"]);
    let scale: f64 = flags.get("--scale", 1.0);
    assert!(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
    let out: String = flags.get("--out", "BENCH_scale.json".to_string());
    let tiers: Vec<Json> = TIERS.iter().map(|&t| run_tier(t, scale)).collect();
    let report = Json::obj([
        ("schema", 1u32.into()),
        (
            "config",
            Json::obj([
                ("scale", Json::Fixed(scale, 3)),
                ("dim", DIM.into()),
                ("per_user", PER_USER.into()),
                ("seed", SEED.into()),
            ]),
        ),
        ("tiers", Json::Array(tiers)),
    ]);
    write_report(&out, &report);
}
