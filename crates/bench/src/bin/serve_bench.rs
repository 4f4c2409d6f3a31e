//! Serving load generator → `BENCH_serve.json`.
//!
//! Freezes a paper-scale MF model into a `bns-serve` artifact and replays
//! Zipf-distributed user traffic against the [`bns_serve::QueryEngine`],
//! recording per-request latency percentiles and aggregate throughput the
//! same machine-readable way `bench_json` records sampler draws:
//!
//! * artifact freeze/save/load wall time and encoded size;
//! * single-thread and multi-thread engine runs (p50/p99 ms, queries/sec,
//!   **scored items/sec** = queries × catalog — the acceptance number of
//!   the serving PR is ≥ 1M at d = 32, 10k items multi-threaded), each
//!   recording both the requested and the effective worker count (workers
//!   clamp to the core count — on a small box a "multi_thread" section can
//!   legitimately have run serial, and now says so);
//! * a cached multi-thread run (generation-stamped LRU in front of the
//!   GEMV path) with its hit rate;
//! * an **IVF section**: the same traffic through the probe path
//!   ([`bns_serve::IndexMode::Ivf`]), with the measured recall@10 of the
//!   approximate answers against the exact ranking and the throughput
//!   ratio — the exact-vs-IVF comparison this file exists to pin;
//! * a **wire section**: the same Zipf traffic replayed through loopback
//!   TCP sockets against a live [`bns_serve::NetServer`]
//!   (`--wire-clients` concurrent [`bns_serve::WireClient`]s), recording
//!   client-observed p50/p99 and queries/sec — engine-vs-wire is the
//!   protocol + socket overhead, pinned in the same file.
//!
//! `--index auto` (default) runs the IVF section whenever the artifact
//! froze with an index; `--index ivf:<nprobe>` forces an index build and a
//! probe width (plain `ivf` takes the default width); `--index exact`
//! skips the section.
//!
//! ```sh
//! cargo run --release -p bns-bench --bin serve_bench              # paper scale
//! cargo run --release -p bns-bench --bin serve_bench -- \
//!     --scale 0.05 --index ivf:8 --out target/BENCH_serve_smoke.json  # CI smoke
//! ```

use bns_bench::fixture;
use bns_data::synthetic::clustered_item_embedding;
use bns_model::{Embedding, MatrixFactorization, Scorer};
use bns_serve::proto::ModeRequest;
use bns_serve::{
    IndexMode, IvfConfig, ModelArtifact, NetConfig, NetServer, QueryEngine, Request, ServeReport,
    Status, WireClient,
};
use bns_stats::AliasTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

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

struct Args {
    users: u32,
    items: u32,
    requests: usize,
    k: usize,
    threads: usize,
    zipf: f64,
    cache: usize,
    seed: u64,
    scale: f64,
    index: IndexArg,
    wire_clients: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        users: 200,
        items: 10_000,
        requests: 20_000,
        k: 10,
        // Default to exactly the core count: requesting more threads than
        // cores only oversubscribes the CPU and inflates p99 by scheduler
        // timeslices (the engine clamps to the core count regardless).
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        zipf: 1.0,
        cache: 0, // 0 → capacity defaults to n_users in the cached run
        seed: 41,
        scale: 1.0,
        index: IndexArg::Auto,
        wire_clients: 4,
        out: "BENCH_serve.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--users" => args.users = value().parse().expect("--users takes a u32"),
            "--items" => args.items = value().parse().expect("--items takes a u32"),
            "--requests" => args.requests = value().parse().expect("--requests takes a usize"),
            "--k" => args.k = value().parse().expect("--k takes a usize"),
            "--threads" => args.threads = value().parse().expect("--threads takes a usize"),
            "--zipf" => args.zipf = value().parse().expect("--zipf takes an f64"),
            "--cache" => args.cache = value().parse().expect("--cache takes a usize"),
            "--seed" => args.seed = value().parse().expect("--seed takes a u64"),
            "--scale" => args.scale = value().parse().expect("--scale takes an f64"),
            "--index" => {
                let v = value();
                args.index = match v.as_str() {
                    "auto" => IndexArg::Auto,
                    "exact" => IndexArg::Exact,
                    "ivf" => IndexArg::Ivf(None),
                    other => match other.strip_prefix("ivf:") {
                        Some(n) => IndexArg::Ivf(Some(
                            n.parse().expect("--index ivf:<nprobe> takes a usize"),
                        )),
                        None => panic!("--index takes auto|exact|ivf|ivf:<nprobe>, got {v}"),
                    },
                };
            }
            "--wire-clients" => {
                args.wire_clients = value().parse().expect("--wire-clients takes a usize");
                assert!(args.wire_clients >= 1, "--wire-clients must be >= 1");
            }
            "--out" => args.out = value(),
            other => panic!(
                "unknown flag {other} (expected --users/--items/--requests/--k/--threads/--zipf/--cache/--seed/--scale/--index/--wire-clients/--out)"
            ),
        }
    }
    assert!(
        args.scale > 0.0 && args.scale <= 1.0,
        "--scale must be in (0, 1]"
    );
    if args.scale < 1.0 {
        let s = args.scale;
        args.users = ((args.users as f64 * s) as u32).max(8);
        args.items = ((args.items as f64 * s) as u32).max(64);
        args.requests = ((args.requests as f64 * s) as usize).max(200);
    }
    args
}

/// Zipf-distributed users: user `u` has weight `1 / (u + 1)^s`, sampled
/// through the alias table (O(1) per draw) — the standard skewed-traffic
/// model where a few head users dominate the request stream.
fn zipf_requests(args: &Args, rng: &mut StdRng) -> Vec<Request> {
    let weights: Vec<f64> = (0..args.users)
        .map(|u| 1.0 / ((u + 1) as f64).powf(args.zipf))
        .collect();
    let alias = AliasTable::new(&weights).expect("valid Zipf weights");
    (0..args.requests)
        .map(|_| Request {
            user: alias.sample(rng) as u32,
            k: args.k,
            exclude_seen: true,
        })
        .collect()
}

struct RunStats {
    label: &'static str,
    requested_threads: usize,
    threads: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    scored_items_per_sec: f64,
    cache_hit_rate: f64,
}

fn run_stats(
    label: &'static str,
    report: &ServeReport,
    n_items: u32,
    scored_queries: usize,
    cache_hit_rate: f64,
) -> RunStats {
    RunStats {
        label,
        requested_threads: report.requested_threads,
        threads: report.threads,
        qps: report.queries_per_sec(),
        p50_ms: report.latency_percentile_ms(0.5),
        p99_ms: report.latency_percentile_ms(0.99),
        scored_items_per_sec: scored_queries as f64 * n_items as f64
            / report.wall_seconds.max(1e-12),
        cache_hit_rate,
    }
}

fn write_run(json: &mut String, r: &RunStats, indent: &str, comma: &str) {
    let _ = writeln!(
        json,
        "{indent}\"{}\": {{ \"requested_threads\": {}, \"threads\": {}, \"queries_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"scored_items_per_sec\": {:.1}, \"cache_hit_rate\": {:.4} }}{comma}",
        r.label, r.requested_threads, r.threads, r.qps, r.p50_ms, r.p99_ms, r.scored_items_per_sec, r.cache_hit_rate
    );
}

/// Client-observed statistics of the loopback TCP replay.
struct WireStats {
    clients: usize,
    requests: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Replays `requests` through `clients` concurrent loopback connections
/// against a live [`NetServer`] over the artifact, measuring latency at
/// the client (send → full response decoded). Also curls `/metrics` once
/// over the HTTP shim as a liveness check of the exposition path.
fn wire_run(artifact: &ModelArtifact, requests: &[Request], clients: usize, k: u16) -> WireStats {
    let server = NetServer::bind(
        "127.0.0.1:0",
        QueryEngine::new(artifact.clone()),
        NetConfig {
            queue_depth: 256,
            max_connections: clients + 8,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr();

    let t_wall = Instant::now();
    let latencies_ns: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let slice: Vec<Request> =
                    requests.iter().skip(c).step_by(clients).copied().collect();
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
        handles.into_iter().map(|h| h.join().unwrap()).collect()
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

    let mut all: Vec<u64> = latencies_ns.into_iter().flatten().collect();
    all.sort_unstable();
    let n = all.len().max(1);
    let pct = |q: f64| all[((q * (n - 1) as f64).round() as usize).min(n - 1)] as f64 / 1e6;
    WireStats {
        clients,
        requests: all.len(),
        qps: all.len() as f64 / wall_seconds.max(1e-12),
        p50_ms: pct(0.5),
        p99_ms: pct(0.99),
    }
}

fn main() {
    let args = parse_args();
    let fx = fixture(args.users, args.items, args.seed);
    let n_items = fx.dataset.n_items();

    // The fixture's random-init item table is the degenerate worst case
    // for cluster probing (trained tables concentrate around preference
    // modes). Re-plant it as a latent group mixture — the same stand-in
    // the scale benchmark uses — so the IVF section measures the regime
    // the index serves, while the exact sections are unaffected (an
    // exhaustive GEMV costs the same over any geometry).
    let dim = fx.model.dim();
    let n_groups = ((4.0 * f64::from(n_items).sqrt()) as u32).clamp(1, n_items);
    let mut item_data = vec![0f32; n_items as usize * dim];
    for (i, row) in item_data.chunks_exact_mut(dim).enumerate() {
        clustered_item_embedding(args.seed ^ 0xC1, n_groups, 0.25, i as u32, row);
    }
    let items = Embedding::from_vec(n_items as usize, dim, item_data).expect("item table");
    let model = MatrixFactorization::from_embeddings(fx.model.users().clone(), items)
        .expect("valid serve model");

    // Freeze → save → load round trip, timed. `--index ivf*` forces an
    // index build below the auto threshold; otherwise freeze decides.
    let t0 = Instant::now();
    let artifact = match args.index {
        IndexArg::Ivf(_) => {
            ModelArtifact::freeze_with(&model, fx.dataset.train(), Some(IvfConfig::default()))
        }
        _ => ModelArtifact::freeze(&model, fx.dataset.train()),
    }
    .expect("freezable model");
    let freeze_ms = t0.elapsed().as_secs_f64() * 1e3;
    let encoded = artifact.encode();
    let artifact_bytes = encoded.len();
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

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x21F);
    let requests = zipf_requests(&args, &mut rng);

    let mut runs: Vec<RunStats> = Vec::new();

    // Single-thread baseline.
    let engine = QueryEngine::new(loaded.clone());
    let warm: Vec<Request> = requests.iter().take(200).copied().collect();
    engine.serve(&warm, 1).expect("warm-up");
    let report = engine.serve(&requests, 1).expect("valid requests");
    runs.push(run_stats(
        "single_thread",
        &report,
        n_items,
        requests.len(),
        0.0,
    ));
    let exact_qps = report.queries_per_sec();

    // Multi-thread run — the acceptance configuration.
    let engine = QueryEngine::new(loaded.clone());
    engine.serve(&warm, args.threads).expect("warm-up");
    let report = engine
        .serve(&requests, args.threads)
        .expect("valid requests");
    runs.push(run_stats(
        "multi_thread",
        &report,
        n_items,
        requests.len(),
        0.0,
    ));

    // Cached multi-thread run: Zipf traffic repeats head users constantly,
    // so the generation-stamped LRU absorbs most of the scoring work.
    let capacity = if args.cache > 0 {
        args.cache
    } else {
        args.users as usize
    };
    let engine = QueryEngine::with_cache(loaded.clone(), capacity);
    let report = engine
        .serve(&requests, args.threads)
        .expect("valid requests");
    let hits = engine.cache_hits() as usize;
    let hit_rate = hits as f64 / engine.cache_lookups().max(1) as f64;
    runs.push(run_stats(
        "cached_multi_thread",
        &report,
        n_items,
        requests.len() - hits, // cache hits score nothing
        hit_rate,
    ));

    // IVF section: the same traffic through the probe path, plus the
    // measured recall@10 of the approximate answers vs the exact ranking.
    let nprobe = match (args.index, loaded.index()) {
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
        engine.serve(&warm, 1).expect("IVF warm-up");
        let single = engine.serve(&requests, 1).expect("valid requests");
        engine.serve(&warm, args.threads).expect("IVF warm-up");
        let multi = engine
            .serve(&requests, args.threads)
            .expect("valid requests");

        let sample_users = args.users.min(200);
        let mut total = 0.0f64;
        for u in 0..sample_users {
            let truth = exact.top_k(u, 10, true).expect("exact top-10");
            let approx = engine.top_k(u, 10, true).expect("IVF top-10");
            let hit = truth.iter().filter(|i| approx.contains(i)).count();
            total += hit as f64 / truth.len().max(1) as f64;
        }
        let n_clusters = loaded.index().expect("index present").n_clusters();
        (single, multi, total / f64::from(sample_users), n_clusters)
    });

    // Wire section: the same traffic over loopback TCP sockets.
    let wire = wire_run(
        &loaded,
        &requests,
        args.wire_clients,
        u16::try_from(args.k).unwrap_or(u16::MAX),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": 3,");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"n_users\": {}, \"n_items\": {}, \"dim\": {}, \"requests\": {}, \"k\": {}, \"zipf_exponent\": {}, \"threads\": {}, \"cache_capacity\": {}, \"wire_clients\": {} }},",
        args.users,
        args.items,
        model.dim(),
        args.requests,
        args.k,
        args.zipf,
        args.threads,
        capacity,
        args.wire_clients
    );
    let _ = writeln!(
        json,
        "  \"artifact\": {{ \"bytes\": {artifact_bytes}, \"kind\": \"{}\", \"freeze_ms\": {freeze_ms:.3}, \"save_ms\": {save_ms:.3}, \"load_ms\": {load_ms:.3}, \"indexed\": {} }},",
        artifact.kind().name(),
        loaded.index().is_some(),
    );
    for r in &runs {
        write_run(&mut json, r, "  ", ",");
    }
    match &ivf {
        Some((single, multi, recall, n_clusters)) => {
            let nprobe = nprobe.expect("ivf implies nprobe");
            let _ = writeln!(json, "  \"ivf\": {{");
            let _ = writeln!(
                json,
                "    \"nprobe\": {nprobe}, \"n_clusters\": {n_clusters}, \"recall_at_10\": {recall:.4}, \"speedup_vs_exact_single\": {:.2},",
                single.queries_per_sec() / exact_qps.max(1e-9)
            );
            for (label, report, comma) in
                [("single_thread", single, ","), ("multi_thread", multi, "")]
            {
                let _ = writeln!(
                    json,
                    "    \"{label}\": {{ \"requested_threads\": {}, \"threads\": {}, \"queries_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4} }}{comma}",
                    report.requested_threads,
                    report.threads,
                    report.queries_per_sec(),
                    report.latency_percentile_ms(0.5),
                    report.latency_percentile_ms(0.99),
                );
            }
            let _ = writeln!(json, "  }},");
        }
        None => {
            let _ = writeln!(json, "  \"ivf\": null,");
        }
    }
    let _ = writeln!(
        json,
        "  \"wire\": {{ \"clients\": {}, \"requests\": {}, \"queries_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4} }}",
        wire.clients, wire.requests, wire.qps, wire.p50_ms, wire.p99_ms
    );
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).expect("writing the serve benchmark JSON");
    println!("wrote {}", args.out);
    print!("{json}");

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
