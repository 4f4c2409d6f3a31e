//! Million-scale substrate benchmark → `BENCH_scale.json`.
//!
//! Pins the four numbers the data-substrate PR is about, at catalog sizes
//! where the pre-streamed pipeline would have materialized multi-GB latent
//! matrices: 10k → 100k → 1M users (square catalogs, ~20 interactions per
//! user, model dim 16):
//!
//! * **generator rows/sec** — the streamed CSR generator
//!   ([`bns_data::synthetic::generate_streamed`]), which derives every
//!   latent coordinate from a hash of `(seed, id)` on the fly and keeps
//!   only O(n_items) popularity state resident;
//! * **artifact load_ms** — buffered (`read` + copy + full verify) vs
//!   mmap-backed zero-copy ([`ModelArtifact::load_mapped`]), same chunked
//!   checksum verification on both paths;
//! * **sampler draws/sec** — RNS (the O(1) floor) and BNS (the paper's
//!   linear-in-catalog sampler) through the real `sample_pair` path;
//! * **serve queries/sec** — the multi-threaded engine over the mapped
//!   artifact, Zipf-skewed traffic, p50/p99 per tier — exhaustive scan
//!   **and** the IVF probe path at the default width, with measured
//!   recall@10 and the speedup pinned next to each other. The item table
//!   is planted as a latent group mixture
//!   ([`bns_data::synthetic::clustered_item_embedding`]) so the catalog
//!   is clusterable the way a trained table is; uniform-random items
//!   would make cluster probing meaningless at any width.
//!
//! Each tier also records `VmRSS`/`VmHWM` so "no dense latent tables"
//! is a number in the JSON, not a claim in a doc.
//!
//! ```sh
//! cargo run --release -p bns-bench --bin scale_bench               # full 3 tiers
//! cargo run --release -p bns-bench --bin scale_bench -- \
//!     --scale 0.01 --out target/BENCH_scale_smoke.json              # CI smoke
//! ```

use bns_core::trainer::sample_pair;
use bns_core::{build_sampler, SamplerConfig};
use bns_data::synthetic::{
    clustered_item_embedding, generate_streamed, EmissionMode, SyntheticConfig,
};
use bns_data::{split_random, Dataset, SplitConfig};
use bns_model::{Embedding, MatrixFactorization};
use bns_serve::{IndexMode, ModelArtifact, QueryEngine, Request};
use bns_stats::AliasTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Full-scale tier sizes (users = items).
const TIERS: [u32; 3] = [10_000, 100_000, 1_000_000];
/// Model/embedding dimension for the artifact + serving stages.
const DIM: usize = 16;
/// Target interactions per user.
const PER_USER: usize = 20;

struct Args {
    scale: f64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 47,
        out: "BENCH_scale.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => args.scale = value().parse().expect("--scale takes an f64"),
            "--seed" => args.seed = value().parse().expect("--seed takes a u64"),
            "--out" => args.out = value(),
            other => panic!("unknown flag {other} (expected --scale/--seed/--out)"),
        }
    }
    assert!(
        args.scale > 0.0 && args.scale <= 1.0,
        "--scale must be in (0, 1]"
    );
    args
}

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

struct TierStats {
    n_users: u32,
    n_items: u32,
    interactions: usize,
    emission: &'static str,
    gen_rows_per_sec: f64,
    gen_interactions_per_sec: f64,
    gen_wall_ms: f64,
    rss_after_generate_mb: f64,
    artifact_bytes: usize,
    load_ms_buffered: f64,
    load_ms_mapped: f64,
    mapped_zero_copy: bool,
    rns_draws_per_sec: f64,
    bns_draws_per_sec: f64,
    serve_threads: usize,
    serve_qps: f64,
    serve_p50_ms: f64,
    serve_p99_ms: f64,
    ivf: Option<IvfStats>,
    vm_hwm_mb: f64,
}

/// The sublinear serving section of a tier: probe width, throughput, and
/// the measured quality of the approximation against the exact ranking.
struct IvfStats {
    n_clusters: usize,
    nprobe: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    recall_at_10: f64,
    speedup_x: f64,
}

fn run_tier(full_users: u32, args: &Args) -> TierStats {
    let n_users = ((full_users as f64 * args.scale) as u32).max(64);
    let n_items = n_users;
    let cfg = SyntheticConfig {
        n_users,
        n_items,
        target_interactions: n_users as usize * PER_USER,
        seed: args.seed ^ u64::from(full_users),
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
    // planted latent group mixture (≈ one group per auto IVF cluster) so
    // the catalog has the modal structure a trained table has — the
    // regime cluster-probed retrieval is built for.
    let mut model_rng = StdRng::seed_from_u64(cfg.seed ^ 0xF0);
    let users =
        Embedding::normal_init(n_users as usize, DIM, 0.1, &mut model_rng).expect("user table");
    let n_groups = ((4.0 * f64::from(n_items).sqrt()) as u32).clamp(1, n_items);
    let mut item_data = vec![0f32; n_items as usize * DIM];
    for (i, row) in item_data.chunks_exact_mut(DIM).enumerate() {
        clustered_item_embedding(cfg.seed ^ 0xF1, n_groups, 0.25, i as u32, row);
    }
    let items = Embedding::from_vec(n_items as usize, DIM, item_data).expect("item table");
    let model = MatrixFactorization::from_embeddings(users, items).expect("valid scale model");
    let artifact = ModelArtifact::freeze(&model, &interactions).expect("freezable model");
    let path = std::env::temp_dir().join(format!(
        "bns_scale_bench_{}_{}.bnsa",
        n_users,
        std::process::id()
    ));
    artifact.save(&path).expect("artifact saved");
    let artifact_bytes = std::fs::metadata(&path).expect("artifact stat").len() as usize;
    let t0 = Instant::now();
    let buffered = ModelArtifact::load(&path).expect("buffered load");
    let load_ms_buffered = t0.elapsed().as_secs_f64() * 1e3;
    drop(buffered);
    let t0 = Instant::now();
    let mapped = ModelArtifact::load_mapped(&path).expect("mapped load");
    let load_ms_mapped = t0.elapsed().as_secs_f64() * 1e3;
    let mapped_zero_copy = mapped.is_mapped();

    // Sampler draws through the real training entry point. RNS is the
    // O(1) floor; BNS pays its full linear-in-catalog cost per draw, so
    // its draw budget shrinks as the tier grows.
    let mut split_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE);
    let (train_set, test_set) =
        split_random(&interactions, SplitConfig::default(), &mut split_rng).expect("scale split");
    let dataset = Dataset::new("scale", train_set, test_set).expect("valid scale dataset");
    let train = dataset.train();
    let popularity = dataset.popularity();
    let u0 = *dataset
        .train()
        .active_users()
        .first()
        .expect("tier has active users");
    let pos = train.items_of(u0)[0];
    let draws_per_sec = |config: &SamplerConfig, draws: usize| -> f64 {
        let mut sampler = build_sampler(config, &dataset, None).expect("valid sampler");
        sampler.on_epoch_start(0);
        let mut user_scores: Vec<f32> = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..draws.min(20) {
            sample_pair(
                sampler.as_mut(),
                &model,
                train,
                popularity,
                &mut user_scores,
                u0,
                pos,
                0,
                &mut rng,
            );
        }
        let started = Instant::now();
        for _ in 0..draws {
            black_box(sample_pair(
                sampler.as_mut(),
                &model,
                train,
                popularity,
                &mut user_scores,
                u0,
                pos,
                0,
                &mut rng,
            ));
        }
        draws as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let rns_draws = 200_000;
    let bns_draws = (40_000_000 / n_users as usize).clamp(40, 10_000);
    let rns_draws_per_sec = draws_per_sec(&SamplerConfig::Rns, rns_draws);
    let bns_draws_per_sec = draws_per_sec(
        &SamplerConfig::Bns {
            config: Default::default(),
            prior: bns_core::PriorKind::Popularity,
        },
        bns_draws,
    );

    // Serve Zipf traffic over the *mapped* artifact — queries score
    // straight out of the page cache, no decoded copy in between.
    let has_index = mapped.index().is_some();
    let engine = QueryEngine::new(mapped.clone());
    let n_requests = (80_000_000 / n_users as usize).clamp(100, 20_000);
    let weights: Vec<f64> = (0..n_users).map(|u| 1.0 / f64::from(u + 1)).collect();
    let alias = AliasTable::new(&weights).expect("valid Zipf weights");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x21F);
    let make_requests = |rng: &mut StdRng, n: usize| -> Vec<Request> {
        (0..n)
            .map(|_| Request {
                user: alias.sample(rng) as u32,
                k: 10,
                exclude_seen: true,
            })
            .collect()
    };
    let requests = make_requests(&mut rng, n_requests);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let warm: Vec<Request> = requests.iter().take(50).copied().collect();
    engine.serve(&warm, threads).expect("warm-up");
    let report = engine.serve(&requests, threads).expect("valid requests");

    // The IVF probe path at the default width over the *same* mapped
    // artifact, plus a measured recall@10 against the exact ranking. The
    // approximate path is far faster, so it gets a proportionally larger
    // request batch for a stable clock.
    let ivf = has_index.then(|| {
        let index = mapped.index().expect("index checked above");
        let nprobe = index.default_nprobe();
        let n_clusters = index.n_clusters();
        let ivf_engine = QueryEngine::with_index_mode(mapped.clone(), IndexMode::Ivf { nprobe })
            .expect("artifact carries an index");
        let ivf_requests = make_requests(&mut rng, (n_requests * 32).clamp(2_000, 20_000));
        let warm: Vec<Request> = ivf_requests.iter().take(50).copied().collect();
        ivf_engine.serve(&warm, threads).expect("IVF warm-up");
        let ivf_report = ivf_engine
            .serve(&ivf_requests, threads)
            .expect("valid IVF requests");

        let sample_users = 200u32.min(n_users);
        let mut total = 0.0f64;
        for u in 0..sample_users {
            let truth = engine.top_k(u, 10, true).expect("exact top-10");
            let approx = ivf_engine.top_k(u, 10, true).expect("IVF top-10");
            let hit = truth.iter().filter(|i| approx.contains(i)).count();
            total += hit as f64 / truth.len().max(1) as f64;
        }
        IvfStats {
            n_clusters,
            nprobe,
            qps: ivf_report.queries_per_sec(),
            p50_ms: ivf_report.latency_percentile_ms(0.5),
            p99_ms: ivf_report.latency_percentile_ms(0.99),
            recall_at_10: total / f64::from(sample_users),
            speedup_x: ivf_report.queries_per_sec() / report.queries_per_sec().max(1e-9),
        }
    });

    std::fs::remove_file(&path).ok();
    TierStats {
        n_users,
        n_items,
        interactions: interactions.len(),
        emission,
        gen_rows_per_sec: n_users as f64 / gen_secs,
        gen_interactions_per_sec: interactions.len() as f64 / gen_secs,
        gen_wall_ms: gen_secs * 1e3,
        rss_after_generate_mb,
        artifact_bytes,
        load_ms_buffered,
        load_ms_mapped,
        mapped_zero_copy,
        rns_draws_per_sec,
        bns_draws_per_sec,
        serve_threads: report.threads,
        serve_qps: report.queries_per_sec(),
        serve_p50_ms: report.latency_percentile_ms(0.5),
        serve_p99_ms: report.latency_percentile_ms(0.99),
        ivf,
        vm_hwm_mb: proc_status_mb("VmHWM"),
    }
}

fn main() {
    let args = parse_args();
    let mut tiers: Vec<TierStats> = Vec::new();
    for full_users in TIERS {
        let t = run_tier(full_users, &args);
        let ivf_line = t.ivf.as_ref().map_or_else(
            || " (no index below auto threshold)".to_string(),
            |v| {
                format!(
                    ", ivf {:.0} q/s ({:.1}x, recall@10 {:.3}, nprobe {}/{})",
                    v.qps, v.speedup_x, v.recall_at_10, v.nprobe, v.n_clusters
                )
            },
        );
        println!(
            "tier {}x{}: {} interactions, gen {:.0} rows/s, load {:.2}ms buffered / {:.2}ms mapped, serve exact {:.0} q/s{}",
            t.n_users,
            t.n_items,
            t.interactions,
            t.gen_rows_per_sec,
            t.load_ms_buffered,
            t.load_ms_mapped,
            t.serve_qps,
            ivf_line
        );
        tiers.push(t);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"scale\": {}, \"dim\": {DIM}, \"per_user\": {PER_USER}, \"seed\": {} }},",
        args.scale, args.seed
    );
    let _ = writeln!(json, "  \"tiers\": [");
    for (k, t) in tiers.iter().enumerate() {
        let comma = if k + 1 < tiers.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(
            json,
            "      \"n_users\": {}, \"n_items\": {}, \"interactions\": {},",
            t.n_users, t.n_items, t.interactions
        );
        let _ = writeln!(
            json,
            "      \"generator\": {{ \"emission\": \"{}\", \"rows_per_sec\": {:.1}, \"interactions_per_sec\": {:.1}, \"wall_ms\": {:.2}, \"rss_after_mb\": {:.1} }},",
            t.emission,
            t.gen_rows_per_sec,
            t.gen_interactions_per_sec,
            t.gen_wall_ms,
            t.rss_after_generate_mb
        );
        let _ = writeln!(
            json,
            "      \"artifact\": {{ \"bytes\": {}, \"load_ms_buffered\": {:.3}, \"load_ms_mapped\": {:.3}, \"mapped_zero_copy\": {} }},",
            t.artifact_bytes, t.load_ms_buffered, t.load_ms_mapped, t.mapped_zero_copy
        );
        let _ = writeln!(
            json,
            "      \"samplers_draws_per_sec\": {{ \"RNS\": {:.1}, \"BNS\": {:.1} }},",
            t.rns_draws_per_sec, t.bns_draws_per_sec
        );
        let _ = writeln!(
            json,
            "      \"serve\": {{ \"threads\": {}, \"queries_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4} }},",
            t.serve_threads, t.serve_qps, t.serve_p50_ms, t.serve_p99_ms
        );
        match &t.ivf {
            Some(v) => {
                let _ = writeln!(
                    json,
                    "      \"serve_ivf\": {{ \"n_clusters\": {}, \"nprobe\": {}, \"queries_per_sec\": {:.1}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"recall_at_10\": {:.4}, \"speedup_x\": {:.1} }},",
                    v.n_clusters, v.nprobe, v.qps, v.p50_ms, v.p99_ms, v.recall_at_10, v.speedup_x
                );
            }
            None => {
                let _ = writeln!(json, "      \"serve_ivf\": null,");
            }
        }
        let _ = writeln!(json, "      \"vm_hwm_mb\": {:.1}", t.vm_hwm_mb);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).expect("writing the scale benchmark JSON");
    println!("wrote {}", args.out);
}
