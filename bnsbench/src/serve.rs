//! The serving workloads: a frozen, IVF-indexed MF artifact loaded mapped
//! behind `NetServer` on loopback, driven by a closed loop of
//! `WireClient` connections with Zipf(1.0) users, k = 10, exclude-seen.
//!
//! Every response is checked against the in-process `QueryEngine` answer
//! for the same user and mode, and scored against exact search.

use crate::report::{self, Metrics, Span, Summary};
use crate::train::Outcome;
use bns_data::synthetic::{clustered_item_embedding, generate_streamed, SyntheticConfig};
use bns_data::{split_random, Dataset, SplitConfig};
use bns_eval::metrics::{ndcg_at_k, recall_at_k};
use bns_model::{Embedding, MatrixFactorization};
use bns_serve::artifact::fnv1a64;
use bns_serve::proto::ModeRequest;
use bns_serve::{
    IndexMode, IvfConfig, IvfIndex, ModelArtifact, NetConfig, NetServer, QueryEngine, QueryScratch,
    RequestFrame, ResponseFrame, Status, WireClient,
};
use bns_stats::AliasTable;
use bns_sync::{HistogramSnapshot, HISTOGRAM_BUCKETS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Users of the serving fixture (the `serve_bench` default).
const N_USERS: u32 = 200;
/// Catalog size.
const N_ITEMS: u32 = 100_000;
/// Embedding dimension.
const DIM: usize = 32;
/// Interactions per user before the split. The bench fixture's 5% density
/// (5,000 per user) makes the pooled generator emit a duplicate item at
/// 100k items, so the serving set-up uses 1%.
const PER_USER: usize = 1_000;
/// Seed of the served model and its data (`serve_bench`'s default). The
/// frozen artifact is part of the workload's definition, like a model in
/// production; `--seed` drives the traffic. A seeded model would make the
/// IVF probe cost of the few Zipf head users, and so every latency, swing
/// from seed to seed.
const FIXTURE_SEED: u64 = 41;
/// Closed-loop client connections. One request in flight keeps the
/// measurement about the serving path: with two connections on a 2-core
/// host, six threads share two cores and the wire p50 of one fixed input
/// ranged over 35% between runs (3% with one).
const CLIENTS: u64 = 1;
/// Recommendation-list length.
const K: u16 = 10;
/// Artifact set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop warm-up before any measured phase.
const WARMUP_S: f64 = 0.5;
/// IVF recall@10 floor against exact search (the `ivf_recall.rs` gate).
const MIN_IVF_RECALL: f64 = 0.95;

/// Which retrieval path every request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSpec {
    Exact,
    Ivf,
}

/// A seeded Zipf(1.0) stream of user ids, one per load-generator client.
pub struct RequestStream {
    alias: AliasTable,
    rng: StdRng,
}

impl RequestStream {
    pub fn new(n_users: u32, seed: u64, client: u64) -> Self {
        let weights: Vec<f64> = (0..n_users).map(|u| 1.0 / f64::from(u + 1)).collect();
        Self {
            alias: AliasTable::new(&weights).expect("valid Zipf weights"),
            rng: StdRng::seed_from_u64(seed ^ 0x21F ^ (client << 40)),
        }
    }

    pub fn next_user(&mut self) -> u32 {
        self.alias.sample(&mut self.rng) as u32
    }
}

/// The generated serving input and what setting it up cost.
struct ServeInput {
    model: MatrixFactorization,
    artifact: ModelArtifact,
    path: PathBuf,
    generate_s: f64,
    split_s: f64,
    freeze_s: f64,
    save_s: f64,
    load_mapped_s: f64,
    /// Dataset generation through a bound, serving socket.
    setup_s: f64,
}

/// The bench fixture's recipe (random split, random MF users) with the
/// item table re-planted as a latent group mixture, as `serve_bench` and
/// `scale_bench` do: random tables are IVF's worst case.
fn make_input(repeat: usize) -> (ServeInput, NetServer) {
    let seed = FIXTURE_SEED;
    let t0 = Instant::now();
    let cfg = SyntheticConfig {
        n_users: N_USERS,
        n_items: N_ITEMS,
        target_interactions: N_USERS as usize * PER_USER,
        seed,
        ..SyntheticConfig::default()
    };
    let all = generate_streamed(&cfg).expect("valid serving config");
    let t1 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE);
    let (train_set, test_set) =
        split_random(&all, SplitConfig::default(), &mut rng).expect("serving split");
    let dataset = Dataset::new("bench", train_set, test_set).expect("valid serving dataset");
    let t2 = Instant::now();

    let mut model_rng = StdRng::seed_from_u64(seed ^ 0xF0);
    let users =
        Embedding::normal_init(N_USERS as usize, DIM, 0.1, &mut model_rng).expect("user table");
    let n_groups = ((4.0 * f64::from(N_ITEMS).sqrt()) as u32).clamp(1, N_ITEMS);
    let mut item_data = vec![0f32; N_ITEMS as usize * DIM];
    for (i, row) in item_data.chunks_exact_mut(DIM).enumerate() {
        clustered_item_embedding(seed ^ 0xC1, n_groups, 0.25, i as u32, row);
    }
    let items = Embedding::from_vec(N_ITEMS as usize, DIM, item_data).expect("item table");
    let model = MatrixFactorization::from_embeddings(users, items).expect("valid serving model");
    let t3 = Instant::now();
    let frozen = ModelArtifact::freeze_with(&model, dataset.train(), Some(IvfConfig::default()))
        .expect("freezable model");
    let t4 = Instant::now();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark output directory");
    let path = dir.join(format!("serve-{}-{repeat}.bnsa", std::process::id()));
    frozen.save(&path).expect("artifact saved");
    let t5 = Instant::now();
    let artifact = ModelArtifact::load_mapped(&path).expect("artifact loads mapped");
    let t6 = Instant::now();
    let server = NetServer::bind(
        "127.0.0.1:0",
        QueryEngine::new(artifact.clone()),
        NetConfig {
            // One connection keeps one request in flight; one worker
            // serves it.
            workers: 1,
            max_connections: 8,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let t7 = Instant::now();
    let input = ServeInput {
        model,
        artifact,
        path,
        generate_s: (t1 - t0).as_secs_f64(),
        split_s: (t2 - t1).as_secs_f64(),
        freeze_s: (t4 - t3).as_secs_f64(),
        save_s: (t5 - t4).as_secs_f64(),
        load_mapped_s: (t6 - t5).as_secs_f64(),
        setup_s: (t7 - t0).as_secs_f64(),
    };
    (input, server)
}

/// Per-user reference answers: what the in-process engine returns in the
/// served mode, and that answer's recall@10 / NDCG@10 against exact search.
struct Expected {
    lists: Vec<Vec<u32>>,
    recall: Vec<f64>,
    ndcg: Vec<f64>,
}

fn expected_answers(artifact: &ModelArtifact, mode: IndexMode) -> Expected {
    let engine = QueryEngine::new(artifact.clone());
    let mut scratch = QueryScratch::new();
    let mut exact = Vec::new();
    let mut lists = Vec::with_capacity(N_USERS as usize);
    let (mut recall, mut ndcg) = (Vec::new(), Vec::new());
    for u in 0..N_USERS {
        let mut served = Vec::new();
        engine
            .top_k_with_mode_into(
                u,
                K.into(),
                true,
                Some(IndexMode::Exact),
                &mut scratch,
                &mut exact,
            )
            .expect("exact top-k");
        engine
            .top_k_with_mode_into(u, K.into(), true, Some(mode), &mut scratch, &mut served)
            .expect("served-mode top-k");
        // The metrics take the relevant set sorted; ndcg ranks `served`.
        let mut relevant = exact.clone();
        relevant.sort_unstable();
        recall.push(recall_at_k(&served, &relevant, K.into()));
        ndcg.push(ndcg_at_k(&served, &relevant, K.into()));
        lists.push(served);
    }
    Expected {
        lists,
        recall,
        ndcg,
    }
}

/// What one closed-loop phase observed at the clients.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    /// Responses whose items differ from the in-process answer.
    mismatched: u64,
    /// Client latency per request in µs; failures are `+∞`, so they miss
    /// every latency limit.
    latency_us: Vec<f64>,
    /// Users of the successful requests, in send order per client.
    users: Vec<u32>,
    wall_s: f64,
    spans: Vec<Span>,
}

/// Runs [`CLIENTS`] closed-loop connections for `seconds`: each sends its
/// next request only after the previous answer is decoded. Failed
/// requests are counted and never retried.
fn closed_loop(
    addr: SocketAddr,
    mode: ModeRequest,
    expected: &Expected,
    seed: u64,
    phase: u64,
    seconds: f64,
    trace: Option<Instant>,
) -> Phase {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = RequestStream::new(N_USERS, seed ^ (phase << 48), c);
                    let mut client = WireClient::connect(addr).ok();
                    let mut p = Phase::default();
                    let mut now = Instant::now();
                    while now < deadline {
                        let u = stream.next_user();
                        let started = now;
                        let answer = match client.as_mut() {
                            Some(cl) => cl.top_k(u, K, true, mode),
                            None => Err(bns_serve::ServeError::Invalid("not connected".into())),
                        };
                        now = Instant::now();
                        p.sent += 1;
                        match answer {
                            Ok(resp) if resp.status == Status::Ok => {
                                p.ok += 1;
                                let us = (now - started).as_secs_f64() * 1e6;
                                p.latency_us.push(us);
                                p.users.push(u);
                                if resp.items != expected.lists[u as usize] {
                                    p.mismatched += 1;
                                }
                                if let Some(origin) = trace {
                                    p.spans.push(Span {
                                        name: "wire_request",
                                        parent: "client",
                                        id: (phase << 48) | (c << 40) | p.sent,
                                        start_ns: report::ns_between(origin, started),
                                        end_ns: report::ns_between(origin, now),
                                    });
                                }
                            }
                            Ok(_) => {
                                p.failed += 1;
                                p.latency_us.push(f64::INFINITY);
                            }
                            Err(_) => {
                                // Transport failure: count it and reconnect.
                                p.failed += 1;
                                p.latency_us.push(f64::INFINITY);
                                client = WireClient::connect(addr).ok();
                                now = Instant::now();
                            }
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut all = Phase::default();
    for p in parts {
        all.absorb(p);
    }
    all.wall_s = t0.elapsed().as_secs_f64();
    all
}

impl Phase {
    fn absorb(&mut self, mut p: Phase) {
        self.sent += p.sent;
        self.ok += p.ok;
        self.failed += p.failed;
        self.mismatched += p.mismatched;
        self.latency_us.append(&mut p.latency_us);
        self.users.append(&mut p.users);
        self.spans.append(&mut p.spans);
        self.wall_s += p.wall_s;
    }

    /// Mean client latency of the successful requests, in µs.
    fn ok_mean_us(&self) -> f64 {
        let ok: Vec<f64> = self
            .latency_us
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        Summary::of(&ok).mean
    }
}

/// Adds `after − before` of one cumulative histogram to `acc`.
fn add_delta(acc: &mut HistogramSnapshot, after: &HistogramSnapshot, before: &HistogramSnapshot) {
    for ((a, x), y) in acc
        .buckets
        .iter_mut()
        .zip(&after.buckets)
        .zip(&before.buckets)
    {
        *a += x - y;
    }
    acc.count += after.count - before.count;
    acc.sum += after.sum - before.sum;
}

/// Pins the calling thread, and so every thread it spawns later (the
/// server's accept, I/O and worker threads and the load generator), to the
/// first CPU it may run on. Returns that CPU.
///
/// With one request in flight only one thread of the chain client → I/O →
/// worker → I/O → client is runnable at a time, so one CPU loses no
/// parallelism. Spread over two CPUs, each hand-off instead wakes a CPU
/// that went idle, and on a virtual machine that wake-up costs whatever the
/// host's load makes it: unpinned, serve-ivf ran at 3.7k–4.4k q/s, and at
/// 4.1k–5.6k q/s while a busy loop kept the other CPU awake.
fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

/// Runs a serving workload for `seconds` and collects its metrics.
pub fn run(spec: ServeSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut notes = Vec::new();
    let mut correct = true;
    notes.push(match pin_to_one_cpu() {
        Some(cpu) => format!("pinned: every benchmark and server thread on CPU {cpu}"),
        None => "pinned: no (sched_setaffinity failed); hand-offs may cross CPUs".into(),
    });

    let mut setups: Vec<(ServeInput, NetServer)> = (0..SETUP_REPEATS).map(make_input).collect();
    let med = |f: fn(&ServeInput) -> f64| -> f64 {
        report::median(&setups.iter().map(|(i, _)| f(i)).collect::<Vec<_>>())
    };
    let setup_s = med(|i| i.setup_s);
    let layer_setup = [
        med(|i| i.generate_s),
        med(|i| i.split_s),
        med(|i| i.freeze_s),
        med(|i| i.save_s),
        med(|i| i.load_mapped_s),
    ];
    let paths: Vec<PathBuf> = setups.iter().map(|(i, _)| i.path.clone()).collect();
    // Every set-up must freeze the same artifact, byte for byte.
    let digests: Vec<u64> = paths
        .iter()
        .map(|p| fnv1a64(&std::fs::read(p).expect("saved artifact readable")))
        .collect();
    if digests.iter().any(|&d| d != digests[0]) {
        correct = false;
        notes.push("CHECK FAILED: set-up repeats saved different artifacts".into());
    }
    let (input, server) = setups.swap_remove(0);
    drop(setups); // stops the spare servers
    let artifact = &input.artifact;
    let index = artifact
        .index()
        .expect("the artifact was frozen with an index");
    let (mode, index_mode) = match spec {
        ServeSpec::Exact => (ModeRequest::Exact, IndexMode::Exact),
        ServeSpec::Ivf => (
            ModeRequest::Ivf,
            IndexMode::Ivf {
                nprobe: index.default_nprobe(),
            },
        ),
    };
    notes.push(format!(
        "artifact: {} users x {} items, d={DIM}, {} seen pairs, mapped={}, {} clusters, nprobe {}, digest {:016x}",
        N_USERS,
        N_ITEMS,
        artifact.seen().len(),
        artifact.is_mapped(),
        index.n_clusters(),
        index.default_nprobe(),
        digests[0]
    ));
    let expected = expected_answers(artifact, index_mode);

    let mut m = Metrics::default();
    let metrics = server.metrics();
    let endpoint = || metrics.endpoint(bns_serve::metrics::Endpoint::BinTopK);
    let mut spans = Vec::new();
    let addr = server.local_addr();
    // Warm-up: the server's per-worker scratch, the mapped pages, the
    // clock frequency. Counted for failures, not for latency.
    let mut phases = vec![closed_loop(addr, mode, &expected, seed, 0, WARMUP_S, None)];
    if trace {
        // Untraced (A) and traced (B) slices in ABBA order, so a drift in
        // the host's speed cancels out of the overhead.
        let origin = Instant::now();
        let (mut plain, mut traced) = (Phase::default(), Phase::default());
        let mut server_hist = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        };
        for (slice, is_traced) in [false, true, true, false].into_iter().enumerate() {
            let before = endpoint().latency.snapshot();
            let phase = slice as u64 + 1;
            let p = closed_loop(
                addr,
                mode,
                &expected,
                seed,
                phase,
                seconds / 4.0,
                is_traced.then_some(origin),
            );
            if is_traced {
                add_delta(&mut server_hist, &endpoint().latency.snapshot(), &before);
                traced.absorb(p);
            } else {
                plain.absorb(p);
            }
        }
        spans.append(&mut traced.spans);
        trace_layers(
            &mut m,
            &input,
            (mode, index_mode),
            &expected,
            &traced,
            &plain,
            &server_hist,
            &mut spans,
            origin,
            seconds / 4.0,
        );
        m.put("bns_data.generate_s", layer_setup[0]);
        m.put("bns_data.split_s", layer_setup[1]);
        m.put("bns_serve.freeze_s", layer_setup[2]);
        m.put("bns_serve.save_s", layer_setup[3]);
        m.put("bns_serve.load_mapped_s", layer_setup[4]);
        phases.push(plain);
        phases.push(traced);
    } else {
        phases.push(closed_loop(addr, mode, &expected, seed, 1, seconds, None));
    }

    let (mut sent, mut ok, mut failed, mut mismatched) = (0, 0, 0, 0);
    for p in &phases {
        sent += p.sent;
        ok += p.ok;
        failed += p.failed;
        mismatched += p.mismatched;
    }
    let overloaded = metrics.overloaded.get();
    let deadline_hits = metrics.deadline_hits.get();
    let proto_errors = metrics.proto_errors.get();
    drop(server);
    for p in &paths {
        std::fs::remove_file(p).ok();
    }

    // Output checks.
    if mismatched > 0 {
        correct = false;
        notes.push(format!(
            "CHECK FAILED: {mismatched} wire responses differ from the in-process {index_mode:?} answer"
        ));
    }
    let main = &phases[1];
    let n_ok = main.users.len().max(1) as f64;
    let recall = main
        .users
        .iter()
        .map(|&u| expected.recall[u as usize])
        .sum::<f64>()
        / n_ok;
    let ndcg = main
        .users
        .iter()
        .map(|&u| expected.ndcg[u as usize])
        .sum::<f64>()
        / n_ok;
    let floor = match spec {
        ServeSpec::Exact => 1.0,
        ServeSpec::Ivf => MIN_IVF_RECALL,
    };
    if recall < floor {
        correct = false;
        notes.push(format!("CHECK FAILED: recall@10 {recall:.4} below {floor}"));
    }
    if ok == 0 {
        correct = false;
        notes.push("CHECK FAILED: no request succeeded".into());
    }
    notes.push(format!(
        "wire: sent {sent}, ok {ok}, failed {failed}, overloaded {overloaded}, deadline_hits {deadline_hits}, proto_errors {proto_errors}"
    ));

    if trace {
        m.put("bns_serve.net.overloaded", overloaded as f64);
        m.put("bns_serve.net.deadline_hits", deadline_hits as f64);
        m.put("bns_serve.net.proto_errors", proto_errors as f64);
        m.put("bns_serve.net.sent", sent as f64);
        m.put("bns_serve.net.ok", ok as f64);
        m.put("bns_serve.net.failed", failed as f64);
        m.put(
            "bns_serve.net.error_rate",
            failed as f64 / sent.max(1) as f64,
        );
    } else {
        let lat = Summary::of(&main.latency_us);
        let mean_us = main.ok_mean_us();
        let rate = main.ok as f64 / main.wall_s;
        notes.push(format!(
            "wire latency over {} requests: mean {mean_us:.1} us, p50 {:.1} us, p99 {:.1} us ({} beyond p99); {rate:.1} ok/s",
            lat.n, lat.p50, lat.p99, lat.beyond_p99
        ));
        m.put("setup_s", setup_s);
        m.put("peak_rss_mb", report::peak_rss_mb());
        m.put("latency_mean_ms", mean_us / 1e3);
        m.put("throughput_per_s", rate);
        m.put("ndcg", ndcg);
        m.put("recall", recall);
    }
    Outcome {
        metrics: m,
        correct,
        attempted: sent,
        failed,
        spans,
        notes,
    }
}

/// The traced run's per-layer split of the mean wire request:
/// `client = query + proto + handoff + client_side`, where `query` and
/// `proto` are timed in process on the traced phase's own request
/// stream, `server` comes from the server's own histogram, and the two
/// residuals are `handoff = server − query − proto` and
/// `client_side = client − server`.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    m: &mut Metrics,
    input: &ServeInput,
    (wire_mode, mode): (ModeRequest, IndexMode),
    expected: &Expected,
    traced: &Phase,
    plain: &Phase,
    server_hist: &HistogramSnapshot,
    spans: &mut Vec<Span>,
    origin: Instant,
    budget_s: f64,
) {
    let artifact = &input.artifact;
    let engine = QueryEngine::new(artifact.clone());
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();

    // bns_serve::query — the same stream, in process, one call at a time.
    let started = Instant::now();
    let mut query_us = Vec::new();
    for (n, &u) in traced.users.iter().enumerate() {
        let t0 = Instant::now();
        engine
            .top_k_with_mode_into(u, K.into(), true, Some(mode), &mut scratch, &mut out)
            .expect("in-process query");
        let t1 = Instant::now();
        query_us.push((t1 - t0).as_secs_f64() * 1e6);
        spans.push(Span {
            name: "query",
            parent: "replay",
            id: n as u64,
            start_ns: report::ns_between(origin, t0),
            end_ns: report::ns_between(origin, t1),
        });
        if (t1 - started).as_secs_f64() > budget_s {
            break;
        }
    }
    let replayed = &traced.users[..query_us.len()];
    let query = Summary::of(&query_us);

    // bns_serve::index — centroid scoring alone, over the same users. It
    // is timed in either mode: only IVF requests pay it, but the index is
    // in every artifact, so serve-exact measures the layer too.
    let index = artifact.index().expect("indexed artifact");
    let mut cluster_scores = vec![0f32; index.n_clusters()];
    let t0 = Instant::now();
    for &u in replayed {
        index.score_clusters(input.model.user_embedding(u), &mut cluster_scores);
        std::hint::black_box(&cluster_scores);
    }
    let score_clusters_us = (t0.elapsed().as_secs_f64() * 1e6) / replayed.len().max(1) as f64;
    let t0 = Instant::now();
    let rebuilt = IvfIndex::build(
        input.model.items().as_slice(),
        N_ITEMS as usize,
        DIM,
        &IvfConfig::default(),
    );
    let index_build_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(rebuilt.n_clusters());

    // bns_serve::proto — request and response encode + decode.
    let t0 = Instant::now();
    for &user in replayed {
        let req = RequestFrame::TopK {
            user,
            k: K,
            exclude_seen: true,
            mode: wire_mode,
        }
        .encode();
        let req = RequestFrame::decode(&req).expect("request round trip");
        let resp = ResponseFrame::ok(1, expected.lists[user as usize].clone()).encode();
        let resp = ResponseFrame::decode(&resp).expect("response round trip");
        std::hint::black_box((req, resp));
    }
    let codec_us = (t0.elapsed().as_secs_f64() * 1e6) / replayed.len().max(1) as f64;

    // bns_serve::net — the server's own edge histogram, exact mean.
    let server_mean_us = server_hist.sum as f64 / server_hist.count.max(1) as f64 / 1e3;
    let server_p99_us = server_hist.percentile(0.99) as f64 / 1e3;
    let client_mean_us = traced.ok_mean_us();

    m.put("bns_serve.index_build_s", index_build_s);
    m.put("bns_serve.query.mean_us", query.mean);
    m.put("bns_serve.query.p50_us", query.p50);
    m.put("bns_serve.query.p99_us", query.p99);
    m.put("bns_serve.query.samples", query.n as f64);
    m.put("bns_serve.index.score_clusters_us", score_clusters_us);
    m.put("bns_serve.proto.codec_us", codec_us);
    m.put("bns_serve.net.server_mean_us", server_mean_us);
    m.put("bns_serve.net.server_p99_us", server_p99_us);
    m.put(
        "bns_serve.net.handoff_mean_us",
        server_mean_us - query.mean - codec_us,
    );
    m.put(
        "bns_serve.net.client_side_mean_us",
        client_mean_us - server_mean_us,
    );
    m.put("bns_serve.net.client_mean_us", client_mean_us);
    m.put(
        "bns_serve.net.client_p99_us",
        Summary::of(&traced.latency_us).p99,
    );
    m.put(
        "trace.overhead_frac",
        client_mean_us / plain.ok_mean_us() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        let take = |seed, client| {
            let mut s = RequestStream::new(N_USERS, seed, client);
            (0..2_000).map(|_| s.next_user()).collect::<Vec<_>>()
        };
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        assert_ne!(take(5, 0), take(5, 1));
        // Zipf(1.0): user 0 is the most requested.
        let s = take(5, 0);
        let head = s.iter().filter(|&&u| u == 0).count();
        assert!(s.iter().all(|&u| u < N_USERS));
        assert!(head > s.iter().filter(|&&u| u == 1).count());
    }
}
