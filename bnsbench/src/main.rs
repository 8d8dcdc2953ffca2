//! One benchmark for the BNS workspace: dataset → NDCG training and
//! socket serving, measured end to end and split by layer.
//!
//! ```sh
//! cargo run --release --manifest-path bnsbench/Cargo.toml -- \
//!     --workload train-bns --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload with the layer wrappers and prints every per-layer metric
//! (and writes the span trace under `bnsbench/out/`). The last line of
//! standard output is the JSON result; the lines before it are for people.
//! See `bnsbench/README.md` for the workloads and the metric table.

mod report;
mod serve;
mod train;

use report::Metrics;

/// End-to-end metrics: what a user of the trainer or the server sees.
/// Every workload reports all of them; `README.md` says what each means
/// on a training and on a serving workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_mean_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ndcg", "ratio"),
    ("recall", "ratio"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("bns_data.generate_s", "s"),
    ("bns_data.split_s", "s"),
    ("bns_core.sample_batch_s", "s"),
    ("bns_core.sample_share", "ratio"),
    ("bns_core.draws", "count"),
    ("bns_core.draws_per_s", "1/s"),
    ("bns_core.skipped", "count"),
    ("bns_core.trainer_other_s", "s"),
    ("bns_model.init_s", "s"),
    ("bns_model.update_batch_s", "s"),
    ("bns_model.update_share", "ratio"),
    ("bns_model.triples", "count"),
    ("bns_eval.ranking_s", "s"),
    ("bns_eval.share", "ratio"),
    ("bns_eval.items_scored_per_s", "1/s"),
    ("bns_serve.freeze_s", "s"),
    ("bns_serve.index_build_s", "s"),
    ("bns_serve.save_s", "s"),
    ("bns_serve.load_mapped_s", "s"),
    ("bns_serve.query.mean_us", "us"),
    ("bns_serve.query.p50_us", "us"),
    ("bns_serve.query.p99_us", "us"),
    ("bns_serve.query.samples", "count"),
    ("bns_serve.index.score_clusters_us", "us"),
    ("bns_serve.proto.codec_us", "us"),
    ("bns_serve.net.server_mean_us", "us"),
    ("bns_serve.net.server_p99_us", "us"),
    ("bns_serve.net.handoff_mean_us", "us"),
    ("bns_serve.net.client_side_mean_us", "us"),
    ("bns_serve.net.client_mean_us", "us"),
    ("bns_serve.net.client_p99_us", "us"),
    ("bns_serve.net.overloaded", "count"),
    ("bns_serve.net.deadline_hits", "count"),
    ("bns_serve.net.proto_errors", "count"),
    ("bns_serve.net.sent", "count"),
    ("bns_serve.net.ok", "count"),
    ("bns_serve.net.failed", "count"),
    ("bns_serve.net.error_rate", "ratio"),
    ("trace.time_to_ndcg_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.sample_every", "count"),
];

/// The workloads `BENCHMARK.json` gates on.
const WORKLOADS: &[&str] = &["train-bns", "train-rns", "serve-exact"];

/// Workloads that run by hand only. serve-ivf's in-process query time
/// swings with the host (0.14–0.26 ms per query from one half-second to
/// the next, while an ALU loop beside it mostly held within ±8%), so its
/// run-level figures spread past the largest bound a gated metric may
/// have. `README.md` has the numbers.
const BY_HAND: &[&str] = &["serve-ivf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bnsbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.iter().chain(BY_HAND).copied().collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().chain(BY_HAND).any(|&w| w == args.workload) {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let host = report::host_json(&args.workload, args.seed);
    println!("host: {host}");
    let outcome = match args.workload.as_str() {
        "train-bns" => train::run(&train::TRAIN_BNS, args.seed, args.seconds, args.trace),
        "train-rns" => train::run(&train::TRAIN_RNS, args.seed, args.seconds, args.trace),
        "serve-exact" => serve::run(serve::ServeSpec::Exact, args.seed, args.seconds, args.trace),
        "serve-ivf" => serve::run(serve::ServeSpec::Ivf, args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    check_catalog(catalog, &outcome.metrics);
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", report::metrics_text(catalog, &outcome.metrics));
    if args.trace {
        let header = format!(
            "{{\"host\": {host}, \"sample_every\": {}}}",
            outcome.metrics.get("trace.sample_every").unwrap_or(1.0)
        );
        match report::write_trace(&args.workload, args.seed, &header, &outcome.spans) {
            Ok(path) => println!("trace: {} spans -> {}", outcome.spans.len(), path.display()),
            Err(e) => println!("trace: not written ({e})"),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        report::metrics_json(catalog, &outcome.metrics)
    );
}

/// Every metric a workload measured must be in the catalog it prints
/// (a misspelt name would otherwise silently read 0).
fn check_catalog(catalog: &[(&str, &str)], metrics: &Metrics) {
    for name in metrics.names() {
        assert!(
            catalog.iter().any(|&(n, _)| n == name),
            "metric {name} is missing from the catalog"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the workloads and metrics the
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w} missing"
            );
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
