//! Serving load generator → `BENCH_serve.json`.
//!
//! Freezes a paper-scale MF model into a `bns-serve` artifact and replays
//! Zipf-distributed user traffic against the [`bns_serve::QueryEngine`],
//! recording per-request latency percentiles and aggregate throughput:
//!
//! * artifact freeze/save/load wall time and encoded size;
//! * single-thread and multi-thread engine runs (p50/p99 ms, queries/sec,
//!   **scored items/sec** = queries × catalog), each recording both the
//!   requested and the effective worker count (workers clamp to the core
//!   count, so on a small box a "multi_thread" section can legitimately
//!   have run serial, and says so);
//! * a cached multi-thread run (generation-stamped LRU in front of the
//!   coded scan) with its hit rate;
//! * an **IVF section**: the same traffic through the probe path
//!   ([`bns_serve::IndexMode::Ivf`]), with the measured recall@10 of the
//!   approximate answers against the exact ranking and the throughput
//!   ratio;
//! * a **wire section**: the same traffic replayed through
//!   [`WIRE_CLIENTS`] concurrent loopback [`bns_serve::WireClient`]s
//!   against a live [`bns_serve::NetServer`], recording client-observed
//!   p50/p99 and queries/sec. Engine-vs-wire is the protocol + socket
//!   overhead.
//!
//! Every percentile is nearest-rank ([`bns_sync::nearest_rank`]).
//!
//! Flags: `--scale F` (in `(0, 1]`) shrinks users, items and requests;
//! `--index auto|exact|ivf|ivf:<nprobe>` picks the IVF section (`auto`,
//! the default, runs it whenever the artifact froze with an index; `ivf`
//! forces an index build, optionally at a pinned probe width; `exact`
//! skips it); `--out PATH`.
//!
//! ```sh
//! cargo run --release -p bns-bench --bin serve_bench              # paper scale
//! cargo run --release -p bns-bench --bin serve_bench -- \
//!     --scale 0.05 --index ivf:8 --out target/BENCH_serve_smoke.json  # CI smoke
//! ```

use bns_bench::{
    clustered_mf, fixture, recall_at_10, write_report, zipf_requests, Flags, Json, TOP_K,
    ZIPF_EXPONENT,
};
use bns_model::Scorer;
use bns_serve::proto::ModeRequest;
use bns_serve::{
    IndexMode, IvfConfig, ModelArtifact, NetConfig, NetServer, QueryEngine, Request, ServeReport,
    Status, WireClient,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Users at `--scale 1`.
const USERS: u32 = 200;
/// Catalog size at `--scale 1`.
const ITEMS: u32 = 10_000;
/// Requests per run at `--scale 1`.
const REQUESTS: usize = 20_000;
/// Fixture, item-table and traffic seed.
const SEED: u64 = 41;
/// Concurrent loopback connections in the wire section.
const WIRE_CLIENTS: usize = 4;

/// What `--index` asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexArg {
    /// IVF section iff the artifact froze with an index (the auto
    /// threshold), at the default probe width.
    Auto,
    /// No IVF section.
    Exact,
    /// Force an index build; `Some(n)` pins the probe width, `None` takes
    /// the default.
    Ivf(Option<usize>),
}

fn parse_index(v: &str) -> IndexArg {
    match v {
        "auto" => IndexArg::Auto,
        "exact" => IndexArg::Exact,
        "ivf" => IndexArg::Ivf(None),
        other => match other.strip_prefix("ivf:") {
            Some(n) => IndexArg::Ivf(Some(n.parse().expect("--index ivf:<nprobe> takes a usize"))),
            None => panic!("--index takes auto|exact|ivf|ivf:<nprobe>, got {v}"),
        },
    }
}

/// One engine run's thread counts, throughput and latency.
fn run_fields(report: &ServeReport) -> Vec<(&'static str, Json)> {
    vec![
        ("requested_threads", report.requested_threads.into()),
        ("threads", report.threads.into()),
        ("queries_per_sec", Json::Fixed(report.queries_per_sec(), 1)),
        ("p50_ms", Json::Fixed(report.latency_percentile_ms(0.5), 4)),
        ("p99_ms", Json::Fixed(report.latency_percentile_ms(0.99), 4)),
    ]
}

/// An exact-path run, where `scored` of the queries scored the whole
/// catalog and the rest were cache hits.
fn exact_run_json(report: &ServeReport, n_items: u32, scored: usize, hit_rate: f64) -> Json {
    let items_per_sec = scored as f64 * f64::from(n_items) / report.wall_seconds.max(1e-12);
    let mut fields = run_fields(report);
    fields.push(("scored_items_per_sec", Json::Fixed(items_per_sec, 1)));
    fields.push(("cache_hit_rate", Json::Fixed(hit_rate, 4)));
    Json::obj(fields)
}

/// Replays `requests` through [`WIRE_CLIENTS`] concurrent loopback
/// connections against a live [`NetServer`] over the artifact, measuring
/// latency at the client (send → full response decoded). Also sends one
/// `/metrics` request over the HTTP shim as a liveness check of the
/// exposition path.
fn wire_json(artifact: &ModelArtifact, requests: &[Request]) -> Json {
    let server = NetServer::bind(
        "127.0.0.1:0",
        QueryEngine::new(artifact.clone()),
        NetConfig {
            queue_depth: 256,
            max_connections: WIRE_CLIENTS + 8,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr();
    let k = u16::try_from(TOP_K).expect("k fits the wire");

    let t_wall = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WIRE_CLIENTS)
            .map(|c| {
                let slice: Vec<Request> = requests
                    .iter()
                    .skip(c)
                    .step_by(WIRE_CLIENTS)
                    .copied()
                    .collect();
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("loopback connect");
                    let mut lat = Vec::with_capacity(slice.len());
                    for req in &slice {
                        let t = Instant::now();
                        let resp = client
                            .top_k(req.user, k, req.exclude_seen, ModeRequest::Default)
                            .expect("wire request");
                        assert_eq!(resp.status, Status::Ok, "wire request refused");
                        lat.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wire client"))
            .collect()
    });
    let wall_seconds = t_wall.elapsed().as_secs_f64();

    // Liveness check of the HTTP shim while the server is still up.
    {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr).expect("metrics connect");
        write!(s, "GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n").expect("metrics request");
        let mut body = String::new();
        s.read_to_string(&mut body).expect("metrics response");
        assert!(
            body.contains("bns_requests_ok"),
            "/metrics exposition missing series"
        );
    }

    latencies_ns.sort_unstable();
    let n = latencies_ns.len();
    let pct = |q: f64| {
        bns_sync::nearest_rank(q, n as u64)
            .map_or(0.0, |rank| latencies_ns[rank as usize - 1] as f64 / 1e6)
    };
    Json::obj([
        ("clients", WIRE_CLIENTS.into()),
        ("requests", n.into()),
        (
            "queries_per_sec",
            Json::Fixed(n as f64 / wall_seconds.max(1e-12), 1),
        ),
        ("p50_ms", Json::Fixed(pct(0.5), 4)),
        ("p99_ms", Json::Fixed(pct(0.99), 4)),
    ])
}

fn main() {
    let flags = Flags::from_env(&["--scale", "--index", "--out"]);
    let scale: f64 = flags.get("--scale", 1.0);
    assert!(scale > 0.0 && scale <= 1.0, "--scale must be in (0, 1]");
    let index = flags.raw("--index").map_or(IndexArg::Auto, parse_index);
    let out: String = flags.get("--out", "BENCH_serve.json".to_string());
    let (users, items, n_requests) = if scale < 1.0 {
        (
            ((f64::from(USERS) * scale) as u32).max(8),
            ((f64::from(ITEMS) * scale) as u32).max(64),
            ((REQUESTS as f64 * scale) as usize).max(200),
        )
    } else {
        (USERS, ITEMS, REQUESTS)
    };
    // Exactly the core count: more threads than cores only oversubscribes
    // the CPU and inflates p99 by scheduler timeslices.
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let fx = fixture(users, items, SEED);
    let n_items = fx.dataset.n_items();
    let model = clustered_mf(fx.model.users().clone(), n_items, SEED ^ 0xC1);

    // Freeze → save → load round trip, timed. `--index ivf*` forces an
    // index build below the auto threshold; otherwise freeze decides.
    let t0 = Instant::now();
    let artifact = match index {
        IndexArg::Ivf(_) => {
            ModelArtifact::freeze_with(&model, fx.dataset.train(), Some(IvfConfig::default()))
        }
        _ => ModelArtifact::freeze(&model, fx.dataset.train()),
    }
    .expect("freezable model");
    let freeze_ms = t0.elapsed().as_secs_f64() * 1e3;
    let artifact_bytes = artifact.encode().len();
    // PID-suffixed: concurrent invocations (ci.sh plus a manual run) must
    // not race on one file with non-atomic writes.
    let path = std::env::temp_dir().join(format!("bns_serve_bench_{}.bnsa", std::process::id()));
    let t0 = Instant::now();
    artifact.save(&path).expect("artifact saved");
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let loaded = ModelArtifact::load(&path).expect("artifact reloaded");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(&path).ok();

    let requests = zipf_requests(users, n_requests, &mut StdRng::seed_from_u64(SEED ^ 0x21F));
    let warm = &requests[..requests.len().min(200)];

    // Single-thread baseline.
    let engine = QueryEngine::new(loaded.clone());
    engine.serve(warm, 1).expect("warm-up");
    let single = engine.serve(&requests, 1).expect("valid requests");
    let exact_qps = single.queries_per_sec();

    // Multi-thread shared-cursor run.
    let engine = QueryEngine::new(loaded.clone());
    engine.serve(warm, threads).expect("warm-up");
    let multi = engine.serve(&requests, threads).expect("valid requests");

    // Cached multi-thread run: Zipf traffic repeats head users constantly,
    // so the generation-stamped LRU absorbs most of the scoring work.
    let capacity = users as usize;
    let engine = QueryEngine::with_cache(loaded.clone(), capacity);
    let cached = engine.serve(&requests, threads).expect("valid requests");
    let hits = engine.cache_hits() as usize;
    let hit_rate = hits as f64 / engine.cache_lookups().max(1) as f64;

    // IVF section: the same traffic through the probe path, plus the
    // measured recall@10 of the approximate answers vs the exact ranking.
    let nprobe = match (index, loaded.index()) {
        (IndexArg::Exact, _) | (IndexArg::Auto, None) => None,
        (IndexArg::Ivf(Some(n)), _) => Some(n),
        (IndexArg::Ivf(None), ix) | (IndexArg::Auto, ix) => Some(
            ix.expect("--index ivf froze an index above")
                .default_nprobe(),
        ),
    };
    let ivf = nprobe.map(|nprobe| {
        let exact = QueryEngine::new(loaded.clone());
        let engine = QueryEngine::with_index_mode(loaded.clone(), IndexMode::Ivf { nprobe })
            .expect("artifact carries an index");
        engine.serve(warm, 1).expect("IVF warm-up");
        let ivf_single = engine.serve(&requests, 1).expect("valid requests");
        engine.serve(warm, threads).expect("IVF warm-up");
        let ivf_multi = engine.serve(&requests, threads).expect("valid requests");
        let n_clusters = loaded.index().expect("index present").n_clusters();
        Json::obj([
            ("nprobe", nprobe.into()),
            ("n_clusters", n_clusters.into()),
            (
                "recall_at_10",
                Json::Fixed(recall_at_10(&exact, &engine, users), 4),
            ),
            (
                "speedup_vs_exact_single",
                Json::Fixed(ivf_single.queries_per_sec() / exact_qps.max(1e-9), 2),
            ),
            ("single_thread", Json::obj(run_fields(&ivf_single))),
            ("multi_thread", Json::obj(run_fields(&ivf_multi))),
        ])
    });

    let report = Json::obj([
        ("schema", 3u32.into()),
        (
            "config",
            Json::obj([
                ("n_users", users.into()),
                ("n_items", items.into()),
                ("dim", model.dim().into()),
                ("requests", n_requests.into()),
                ("k", TOP_K.into()),
                ("zipf_exponent", Json::Fixed(ZIPF_EXPONENT, 2)),
                ("threads", threads.into()),
                ("cache_capacity", capacity.into()),
                ("wire_clients", WIRE_CLIENTS.into()),
            ]),
        ),
        (
            "artifact",
            Json::obj([
                ("bytes", artifact_bytes.into()),
                ("kind", artifact.kind().name().into()),
                ("freeze_ms", Json::Fixed(freeze_ms, 3)),
                ("save_ms", Json::Fixed(save_ms, 3)),
                ("load_ms", Json::Fixed(load_ms, 3)),
                ("indexed", loaded.index().is_some().into()),
            ]),
        ),
        (
            "single_thread",
            exact_run_json(&single, n_items, requests.len(), 0.0),
        ),
        (
            "multi_thread",
            exact_run_json(&multi, n_items, requests.len(), 0.0),
        ),
        (
            // Cache hits score nothing.
            "cached_multi_thread",
            exact_run_json(&cached, n_items, requests.len() - hits, hit_rate),
        ),
        ("ivf", ivf.into()),
        ("wire", wire_json(&loaded, &requests)),
    ]);
    write_report(&out, &report);

    // Sanity: the loaded artifact must reproduce the live model bitwise —
    // a load generator that silently served wrong scores would be worse
    // than useless.
    let u = requests[0].user;
    for i in 0..n_items.min(64) {
        assert_eq!(
            loaded.score(u, i).to_bits(),
            model.score(u, i).to_bits(),
            "frozen score diverged from the live model"
        );
    }
}
