//! The serving workloads: `serve-wire` (IVF answers over TCP, where the
//! request path sets the latency) and `serve-swap` (exhaustive answers
//! while a load-generator thread hot-swaps between two saved
//! generations).
//!
//! The main operation of both is one wire request (`op_us` is its
//! client-observed p50, `ops_per_cpu_s` its CPU cost); the auxiliary
//! operation (`aux_us`) is one in-process IVF query on `serve-wire` and
//! one hot swap on `serve-swap`. `quality_at_10` is the served IVF
//! index's recall@10 against exact answers.
//!
//! Traffic is a closed loop: each of [`CLIENTS`] connections sends its
//! next request only after the previous answer arrived, so at most
//! [`CLIENTS`] requests are in flight for [`WORKERS`] server workers and
//! no queue builds.

use crate::procfs::cpu_seconds;
use crate::report::Report;
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{SpanId, Tracer};
use bns_data::presets::{DatasetPreset, Scale};
use bns_data::synthetic::{clustered_item_embedding, generate_streamed, SyntheticConfig};
use bns_model::{Embedding, MatrixFactorization};
use bns_serve::metrics::Endpoint;
use bns_serve::proto::ModeRequest;
use bns_serve::{
    IndexMode, ModelArtifact, NetConfig, NetServer, QueryEngine, QueryScratch, RequestFrame,
    ResponseFrame, Status, WireClient,
};
use bns_stats::AliasTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// MovieLens-1M's user count.
const USERS: u32 = 6_040;
/// Catalog size.
const ITEMS: u32 = 50_000;
const DIM: usize = 32;
const K: u16 = 10;
/// Closed-loop client connections, capped at the core count.
const CLIENTS: usize = 2;
/// Server scoring workers.
const WORKERS: usize = 2;
/// Users `0..REF_USERS` — the Zipf head, about half of all traffic — have
/// their answers checked against in-process reference lists.
const REF_USERS: u32 = 64;
/// Every `RECALL_STRIDE`-th user is in the fixed recall sample.
const RECALL_STRIDE: u32 = 20;
/// Requests each client sends before the timed window opens.
const WARM_UP: usize = 200;
/// Length of the seeded request stream the clients cycle through.
const STREAM_LEN: usize = 100_000;
/// `serve-swap`: each client asks for a swap after this many of its own
/// completed requests.
const SWAP_EVERY: u64 = 300;
const SETUP_REPEATS: usize = 3;

const SALT_SEEN: u64 = 0x5EE4;
const SALT_USERS: u64 = 0x05E2;
const SALT_ITEMS: u64 = 0x17E5;
const SALT_TRAFFIC: u64 = 0x7AFF;

/// One serving workload.
struct Spec {
    mode: ModeRequest,
    /// Saved generations: 1 for `serve-wire`, 2 for `serve-swap`.
    generations: usize,
    swap: bool,
}

impl Spec {
    fn for_workload(name: &str) -> Self {
        match name {
            "serve-wire" => Spec {
                mode: ModeRequest::Ivf,
                generations: 1,
                swap: false,
            },
            "serve-swap" => Spec {
                mode: ModeRequest::Exact,
                generations: 2,
                swap: true,
            },
            other => unreachable!("not a serving workload: {other}"),
        }
    }
}

/// The seen-item history served with every generation: MovieLens-1M's
/// users over the 50,000-item catalog at MovieLens-like sparsity.
fn seen_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_users: USERS,
        n_items: ITEMS,
        target_interactions: 20 * USERS as usize,
        ..DatasetPreset::Ml1m.config(Scale::Paper, seed ^ SALT_SEEN)
    }
}

/// Timings of one set-up: one served generation built from scratch.
struct GenSetup {
    generate_s: f64,
    freeze_s: f64,
    save_s: f64,
    load_mapped_s: f64,
    total_s: f64,
    bytes: u64,
}

/// Generates the history, builds generation `gen`'s tables (users
/// Gaussian-initialized, items from a planted cluster mixture — the
/// stand-in for a trained table that makes IVF meaningful), freezes them
/// with the default IVF index, saves to `path` and maps it back.
fn set_up_generation(seed: u64, gen: u64, path: &Path) -> (ModelArtifact, GenSetup) {
    let t0 = Instant::now();
    let seen = generate_streamed(&seen_config(seed)).expect("seen history");
    let generate_s = t0.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_USERS ^ (gen << 32));
    let users = Embedding::normal_init(USERS as usize, DIM, 0.1, &mut rng).expect("user table");
    let groups = (4.0 * f64::from(ITEMS).sqrt()) as u32;
    let mut items = vec![0f32; ITEMS as usize * DIM];
    for (i, row) in items.chunks_exact_mut(DIM).enumerate() {
        clustered_item_embedding(seed ^ SALT_ITEMS ^ (gen << 32), groups, 0.25, i as u32, row);
    }
    let items = Embedding::from_vec(ITEMS as usize, DIM, items).expect("item table");
    let model = MatrixFactorization::from_embeddings(users, items).expect("model");
    let t1 = Instant::now();
    let artifact = ModelArtifact::freeze(&model, &seen).expect("freeze");
    let t2 = Instant::now();
    artifact.save(path).expect("save");
    let t3 = Instant::now();
    let mapped = ModelArtifact::load_mapped(path).expect("load_mapped");
    let t4 = Instant::now();
    assert!(
        mapped.index().is_some(),
        "a 50k-item freeze carries an IVF index"
    );
    let bytes = std::fs::metadata(path).expect("artifact size").len();
    (
        mapped,
        GenSetup {
            generate_s,
            freeze_s: (t2 - t1).as_secs_f64(),
            save_s: (t3 - t2).as_secs_f64(),
            load_mapped_s: (t4 - t3).as_secs_f64(),
            total_s: (t4 - t0).as_secs_f64(),
            bytes,
        },
    )
}

/// Zipf(1) user traffic: user `u` has weight `1 / (u + 1)`.
fn request_stream(seed: u64) -> Vec<u32> {
    let weights: Vec<f64> = (0..USERS).map(|u| 1.0 / f64::from(u + 1)).collect();
    let alias = AliasTable::new(&weights).expect("Zipf weights");
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_TRAFFIC);
    (0..STREAM_LEN)
        .map(|_| alias.sample(&mut rng) as u32)
        .collect()
}

/// The index mode a wire request for `mode` resolves to on `engine`.
fn resolve(engine: &QueryEngine, mode: ModeRequest) -> IndexMode {
    match mode {
        ModeRequest::Ivf => engine.default_ivf_mode().expect("artifact has an index"),
        _ => IndexMode::Exact,
    }
}

/// In-process answers for users `0..REF_USERS` on one generation.
fn reference_lists(artifact: &ModelArtifact, mode: ModeRequest) -> Vec<Vec<u32>> {
    let engine = QueryEngine::new(artifact.clone());
    let m = resolve(&engine, mode);
    let mut scratch = QueryScratch::new();
    (0..REF_USERS)
        .map(|u| {
            let mut out = Vec::new();
            engine
                .top_k_with_mode_into(u, K as usize, true, Some(m), &mut scratch, &mut out)
                .expect("reference answer");
            out
        })
        .collect()
}

/// Mean recall@10 of IVF answers against exact answers over the fixed
/// user sample.
fn ivf_recall(artifact: &ModelArtifact) -> f64 {
    let engine = QueryEngine::new(artifact.clone());
    let ivf = engine.default_ivf_mode().expect("artifact has an index");
    let mut scratch = QueryScratch::new();
    let (mut exact, mut approx) = (Vec::new(), Vec::new());
    let mut total = 0.0;
    let sample: Vec<u32> = (0..USERS).step_by(RECALL_STRIDE as usize).collect();
    for &u in &sample {
        engine
            .top_k_with_mode_into(
                u,
                K as usize,
                true,
                Some(IndexMode::Exact),
                &mut scratch,
                &mut exact,
            )
            .expect("exact answer");
        engine
            .top_k_with_mode_into(u, K as usize, true, Some(ivf), &mut scratch, &mut approx)
            .expect("IVF answer");
        let hits = exact.iter().filter(|i| approx.contains(i)).count();
        total += hits as f64 / exact.len() as f64;
    }
    total / sample.len() as f64
}

/// What the clients and the swapper of one wire phase observed.
#[derive(Default)]
struct WirePhase {
    /// Client-observed latency of every `Ok` answer in the timed window.
    latencies_ns: Vec<u64>,
    /// `Ok` answers, warm-up included.
    ok: u64,
    /// Requests answered with a non-`Ok` status or lost to a client
    /// error, warm-up included.
    failed: u64,
    /// Checked answers that differed from their generation's reference.
    mismatches: u64,
    checked: u64,
    wall_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    /// Per swap: `load_mapped` and `swap_artifact` durations.
    swaps: Vec<(u64, u64)>,
    failed_swaps: u64,
}

/// Everything a phase's threads share.
struct WireCtx<'a> {
    server: &'a NetServer,
    stream: &'a [u32],
    mode: ModeRequest,
    /// `refs[generation index][user]`.
    refs: &'a [Vec<Vec<u32>>],
    /// Generation the server started at.
    g0: u64,
    /// Saved generation files, for the swapper.
    paths: &'a [PathBuf],
    swap: bool,
    /// Closed-loop client connections.
    clients: usize,
    duration: Duration,
}

/// What one client thread returns.
struct ClientOut {
    latencies_ns: Vec<u64>,
    ok: u64,
    failed: u64,
    mismatches: u64,
    checked: u64,
    tracer: Option<Tracer>,
}

impl WireCtx<'_> {
    /// Whether an `Ok` answer for `user` matches the reference list of
    /// the generation stamped on it; `None` for users outside the sample.
    fn matches(&self, user: u32, resp: &ResponseFrame) -> Option<bool> {
        if user >= REF_USERS {
            return None;
        }
        Some(match resp.generation.checked_sub(self.g0) {
            Some(d) => resp.items == self.refs[d as usize % self.refs.len()][user as usize],
            None => false,
        })
    }

    /// Sends the request stream's `next` request on `client`; returns
    /// when the answer arrived and, for an `Ok` answer, when it was sent.
    fn send(
        &self,
        client: &mut WireClient,
        out: &mut ClientOut,
        next: &mut usize,
    ) -> (Option<Instant>, Instant) {
        let user = self.stream[*next % self.stream.len()];
        *next += self.clients;
        let sent = Instant::now();
        let res = client.top_k(user, K, true, self.mode);
        let done = Instant::now();
        match res {
            Ok(resp) if resp.status == Status::Ok => {
                out.ok += 1;
                if let Some(same) = self.matches(user, &resp) {
                    out.checked += 1;
                    out.mismatches += u64::from(!same);
                }
                (Some(sent), done)
            }
            Ok(_) => {
                out.failed += 1;
                (None, done)
            }
            Err(_) => {
                out.failed += 1;
                if let Ok(fresh) = WireClient::connect(self.server.local_addr()) {
                    *client = fresh;
                }
                (None, done)
            }
        }
    }

    fn client(
        &self,
        c: usize,
        barrier: &Barrier,
        ticks: mpsc::Sender<()>,
        mut tracer: Option<Tracer>,
    ) -> ClientOut {
        let mut client = WireClient::connect(self.server.local_addr()).expect("loopback connect");
        let mut out = ClientOut {
            latencies_ns: Vec::new(),
            ok: 0,
            failed: 0,
            mismatches: 0,
            checked: 0,
            tracer: None,
        };
        let mut next = c;
        for _ in 0..WARM_UP {
            self.send(&mut client, &mut out, &mut next);
        }
        barrier.wait();
        barrier.wait();
        let root = tracer
            .as_mut()
            .map(|tr| tr.open("phase.wire_client", c as u64, None));
        let deadline = Instant::now() + self.duration;
        let mut completed = 0u64;
        loop {
            let seq = next as u64;
            let (sent, done) = self.send(&mut client, &mut out, &mut next);
            if let Some(sent) = sent {
                out.latencies_ns.push((done - sent).as_nanos() as u64);
                if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                    tr.record("wire.request", seq, Some(root), tr.at(sent), tr.at(done));
                }
            }
            completed += 1;
            if self.swap && completed.is_multiple_of(SWAP_EVERY) {
                let _ = ticks.send(());
            }
            if done >= deadline {
                break;
            }
        }
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.close(root);
        }
        out.tracer = tracer;
        out
    }

    /// Swaps to the other generation on every tick until the clients hang
    /// up; returns per-swap `(load_mapped ns, swap_artifact ns)` and the
    /// number of failed loads.
    fn swapper(
        &self,
        ticks: mpsc::Receiver<()>,
        mut tracer: Option<&mut Tracer>,
    ) -> (Vec<(u64, u64)>, u64) {
        let mut swaps = Vec::new();
        let mut failed = 0u64;
        let mut current = 0usize;
        for (i, ()) in ticks.iter().enumerate() {
            let next = (current + 1) % self.paths.len();
            let t0 = Instant::now();
            let loaded = ModelArtifact::load_mapped(&self.paths[next]);
            let t1 = Instant::now();
            let Ok(artifact) = loaded else {
                failed += 1;
                continue;
            };
            let old = self.server.swap_artifact(artifact);
            let t2 = Instant::now();
            drop(old);
            current = next;
            swaps.push(((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64));
            if let Some(tr) = tracer.as_deref_mut() {
                let op = i as u64;
                let (a, b, c) = (tr.at(t0), tr.at(t1), tr.at(t2));
                let id = tr.record("swap.op", op, None, a, c);
                tr.record("artifact.load_mapped", op, Some(id), a, b);
                tr.record("swap.swap_artifact", op, Some(id), b, c);
            }
        }
        (swaps, failed)
    }

    /// Runs the clients for the phase's duration; on `serve-swap` the
    /// calling thread is the load-generator thread that swaps.
    fn run(&self, mut tracer: Option<&mut Tracer>) -> WirePhase {
        let barrier = Barrier::new(self.clients + 1);
        let (tick_tx, tick_rx) = mpsc::channel::<()>();
        let mut phase = WirePhase::default();
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..self.clients)
                .map(|c| {
                    let tx = tick_tx.clone();
                    let tr = tracer.as_ref().map(|tr| tr.for_thread(c as u32 + 1));
                    let barrier = &barrier;
                    s.spawn(move || self.client(c, barrier, tx, tr))
                })
                .collect();
            drop(tick_tx);
            barrier.wait();
            let (u0, s0) = cpu_seconds();
            let t0 = Instant::now();
            barrier.wait();
            if self.swap {
                (phase.swaps, phase.failed_swaps) = self.swapper(tick_rx, tracer.as_deref_mut());
            }
            let outs = clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            phase.wall_s = t0.elapsed().as_secs_f64();
            let (u1, s1) = cpu_seconds();
            phase.cpu_user_s = u1 - u0;
            phase.cpu_sys_s = s1 - s0;
            outs
        });
        for o in outs {
            phase.latencies_ns.extend(o.latencies_ns);
            phase.ok += o.ok;
            phase.failed += o.failed;
            phase.mismatches += o.mismatches;
            phase.checked += o.checked;
            if let (Some(main), Some(t)) = (tracer.as_deref_mut(), o.tracer) {
                main.absorb(t, None);
            }
        }
        phase.latencies_ns.sort_unstable();
        phase
    }
}

fn new_server(path: &Path) -> (NetServer, u64) {
    let engine = QueryEngine::new(ModelArtifact::load_mapped(path).expect("load_mapped"));
    let g0 = engine.generation();
    let server = NetServer::bind(
        "127.0.0.1:0",
        engine,
        NetConfig {
            workers: WORKERS,
            max_connections: 8,
            queue_depth: 4 * WORKERS,
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    (server, g0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `serve-wire` or `serve-swap`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Report {
    let spec = Spec::for_workload(workload);
    let mut report = Report::default();
    let pid = std::process::id();

    // ---- set-up, repeated: repetition r builds generation r mod n ----
    let paths: Vec<PathBuf> = (0..SETUP_REPEATS)
        .map(|r| dir.join(format!("{workload}-rep{r}-{pid}.bnsa")))
        .collect();
    let mut artifacts = Vec::new();
    let mut setups = Vec::new();
    for (r, path) in paths.iter().enumerate() {
        let (a, s) = set_up_generation(seed, (r % spec.generations) as u64, path);
        artifacts.push(a);
        setups.push(s);
    }
    let same = (spec.generations..SETUP_REPEATS)
        .all(|r| std::fs::read(&paths[r]).ok() == std::fs::read(&paths[r % spec.generations]).ok());
    report.check(
        "setup is deterministic",
        same,
        "repeated freezes of one generation saved identical bytes",
    );
    let gen_paths: Vec<PathBuf> = paths[..spec.generations].to_vec();
    let refs: Vec<Vec<Vec<u32>>> = artifacts[..spec.generations]
        .iter()
        .map(|a| reference_lists(a, spec.mode))
        .collect();
    if spec.generations > 1 {
        report.check(
            "generations differ",
            refs[0] != refs[1],
            "the two saved generations answer the sampled users differently",
        );
    }
    let stream = request_stream(seed);
    let clients = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(CLIENTS);
    report.note(format!(
        "{clients} client connections, {WORKERS} server workers"
    ));

    // ---- untraced wire phase ----
    let (mut server, g0) = new_server(&gen_paths[0]);
    let ctx = WireCtx {
        server: &server,
        stream: &stream,
        mode: spec.mode,
        refs: &refs,
        g0,
        paths: &gen_paths,
        swap: spec.swap,
        clients,
        duration: Duration::from_secs_f64(seconds as f64 * if spec.swap { 0.85 } else { 0.6 }),
    };
    let phase = ctx.run(None);
    // Every sampled user once more, on a fresh connection.
    let mut client = WireClient::connect(server.local_addr()).expect("loopback connect");
    let (mut check_failed, mut check_mismatch) = (0u64, 0u64);
    for u in 0..REF_USERS {
        match client.top_k(u, K, true, spec.mode) {
            Ok(resp) if resp.status == Status::Ok => {
                check_mismatch += u64::from(ctx.matches(u, &resp) != Some(true));
            }
            _ => check_failed += 1,
        }
    }
    drop(client);
    let m = server.metrics();
    let server_p50_ns = m
        .endpoint(Endpoint::BinTopK)
        .latency
        .snapshot()
        .percentile(0.5);
    let (overloaded, deadline_hits, proto_errors) = (
        m.overloaded.get(),
        m.deadline_hits.get(),
        m.proto_errors.get(),
    );
    server.shutdown();

    let requests = phase.ok + phase.failed + u64::from(REF_USERS);
    report.attempt(
        requests + phase.swaps.len() as u64 + phase.failed_swaps,
        phase.failed + check_failed + phase.failed_swaps,
    );
    report.check(
        "wire answers equal in-process answers of their generation",
        phase.mismatches == 0 && check_mismatch == 0 && phase.checked > 0,
        &format!(
            "{} sampled answers during the run and {REF_USERS} after it; {} + {check_mismatch} differed",
            phase.checked, phase.mismatches
        ),
    );
    report.check(
        "no request failed",
        phase.failed == 0 && check_failed == 0,
        &format!(
            "{} failed in the run, {check_failed} after; server counted {overloaded} overloaded, {deadline_hits} deadline hits, {proto_errors} protocol errors",
            phase.failed
        ),
    );
    if spec.swap {
        report.check(
            "swaps happened",
            !phase.swaps.is_empty() && phase.failed_swaps == 0,
            &format!("{} swaps, {} failed", phase.swaps.len(), phase.failed_swaps),
        );
    }

    let lat = &phase.latencies_ns;
    let wire_p50_ms = ms(percentile(lat, 0.5));
    let wire_p50_us = wire_p50_ms * 1e3;
    let cpu = phase.cpu_user_s + phase.cpu_sys_s;
    let answered = lat.len() as f64;
    let req_per_cpu_s = answered / cpu;
    let p99 = percentile(lat, 0.99);
    let beyond_p99 = lat.len() - lat.partition_point(|&x| x <= p99);
    report.note(format!(
        "{workload}: {} requests in {:.2} s = {:.0} q/s wall; p50 {wire_p50_ms:.4} ms, p99 {:.4} ms ({beyond_p99} beyond); CPU {:.2} s user + {:.2} s sys",
        lat.len(), phase.wall_s, answered / phase.wall_s, ms(p99), phase.cpu_user_s, phase.cpu_sys_s
    ));
    if let Some((q, v, beyond)) = supported_tail(lat) {
        report.note(format!(
            "highest supported tail: p{} = {:.4} ms with {beyond} of {} samples beyond",
            q * 100.0,
            ms(v),
            lat.len()
        ));
    }
    let swap_total: Vec<f64> = phase.swaps.iter().map(|&(l, k)| ms(l + k)).collect();
    if spec.swap {
        let mut sorted = swap_total.clone();
        sorted.sort_by(f64::total_cmp);
        report.note(format!(
            "swaps: n={}, min {:.3} ms, median {:.3} ms, max {:.3} ms",
            sorted.len(),
            sorted[0],
            median(&sorted),
            sorted[sorted.len() - 1]
        ));
    }

    // The auxiliary operation: a swap on serve-swap, otherwise an
    // in-process query of the same stream on one thread.
    let aux_us = if spec.swap {
        median(&swap_total) * 1e3
    } else {
        let q = query_phase(&gen_paths[0], &stream, spec.mode, seconds, None);
        let p50 = percentile(&q, 0.5) as f64 / 1e3;
        report.note(format!(
            "in-process queries: {} in {:.2} s, p50 {p50:.3} µs",
            q.len(),
            seconds as f64 * QUERY_SHARE
        ));
        p50
    };
    report.note(format!(
        "wire_p50_ms {wire_p50_ms:.4}, wire_req_per_cpu_s {req_per_cpu_s:.1}{}",
        if spec.swap {
            format!(", swap_p50_ms {:.4}", aux_us / 1e3)
        } else {
            String::new()
        }
    ));

    report.metric(
        "setup_s",
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
    );
    report.metric("peak_rss_mb", crate::procfs::peak_rss_mib());
    report.metric("op_us", wire_p50_us);
    report.metric("ops_per_cpu_s", req_per_cpu_s);
    report.metric("aux_us", aux_us);
    report.metric("quality_at_10", ivf_recall(&artifacts[0]));

    if let Some(tr) = tracer {
        let med = |f: fn(&GenSetup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        report.layer("data.generate_s", med(|s| s.generate_s));
        report.layer("artifact.freeze_s", med(|s| s.freeze_s));
        report.layer("artifact.save_ms", med(|s| s.save_s) * 1e3);
        report.layer("artifact.load_mapped_ms", med(|s| s.load_mapped_s) * 1e3);
        report.layer("artifact.bytes", setups[0].bytes as f64);

        let root = tr.open("phase.query", 0, None);
        let q = query_phase(&gen_paths[0], &stream, spec.mode, seconds, Some((tr, root)));
        tr.close(root);
        report.accounting("query", &tr.accounting(root));
        let query_p50_us = percentile(&q, 0.5) as f64 / 1e3;
        report.layer("query.p50_us", query_p50_us);
        traced_proto(tr, &mut report, &stream, spec.mode, &refs[0], g0);

        report.layer("net.server_p50_us", server_p50_ns as f64 / 1e3);
        report.layer("net.overhead_us", wire_p50_us - query_p50_us);
        report.layer("net.cpu_sys_share", phase.cpu_sys_s / cpu);
        report.layer("net.wall_qps", answered / phase.wall_s);
        report.layer("net.p99_ms", ms(p99));
        report.layer("net.p99_beyond", beyond_p99 as f64);
        report.layer("net.overloaded", overloaded as f64);
        report.layer("net.deadline_hits", deadline_hits as f64);
        report.layer("net.proto_errors", proto_errors as f64);
        if spec.swap {
            let loads: Vec<f64> = phase.swaps.iter().map(|&(l, _)| ms(l)).collect();
            let locks: Vec<f64> = phase.swaps.iter().map(|&(_, k)| ms(k)).collect();
            report.layer("swap.load_ms", median(&loads));
            report.layer("swap.lock_ms", median(&locks));
            report.layer("swap.count", phase.swaps.len() as f64);
        }

        // The same wire phase again, with client and swap spans.
        let (mut server, g0) = new_server(&gen_paths[0]);
        let traced_ctx = WireCtx {
            server: &server,
            stream: &stream,
            mode: spec.mode,
            refs: &refs,
            g0,
            paths: &gen_paths,
            swap: spec.swap,
            clients,
            duration: Duration::from_secs_f64(seconds as f64 * 0.4),
        };
        let first_span = tr.spans().len();
        let traced = traced_ctx.run(Some(tr));
        server.shutdown();
        report.attempt(
            traced.ok + traced.failed + traced.swaps.len() as u64,
            traced.failed,
        );
        report.check(
            "traced wire answers equal in-process answers",
            traced.mismatches == 0 && traced.failed == 0 && traced.checked > 0,
            &format!(
                "{} checked, {} differed, {} failed",
                traced.checked, traced.mismatches, traced.failed
            ),
        );
        let roots: Vec<usize> = (first_span..tr.spans().len())
            .filter(|&i| tr.spans()[i].name == "phase.wire_client")
            .collect();
        let worst = roots
            .iter()
            .map(|&r| tr.accounting(r))
            .max_by(|a, b| a.unattributed_share().total_cmp(&b.unattributed_share()))
            .expect("client phases traced");
        report.accounting("wire", &worst);
        let traced_p50_us = ms(percentile(&traced.latencies_ns, 0.5)) * 1e3;
        report.layer("overhead.op_us", traced_p50_us - wire_p50_us);
        report.layer(
            "overhead.ops_per_cpu_s",
            traced.latencies_ns.len() as f64 / (traced.cpu_user_s + traced.cpu_sys_s)
                - req_per_cpu_s,
        );
        let traced_aux_us = if spec.swap {
            let traced_swaps: Vec<f64> = traced.swaps.iter().map(|&(l, k)| ms(l + k)).collect();
            report.check(
                "traced swaps happened",
                !traced_swaps.is_empty() && traced.failed_swaps == 0,
                &format!(
                    "{} swaps, {} failed",
                    traced_swaps.len(),
                    traced.failed_swaps
                ),
            );
            median(&traced_swaps) * 1e3
        } else {
            query_p50_us
        };
        report.layer("overhead.aux_us", traced_aux_us - aux_us);
    }

    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    report
}

/// Share of `--seconds` an in-process query phase runs for.
const QUERY_SHARE: f64 = 0.25;

/// In-process replay of the request stream through
/// `QueryEngine::top_k_with_mode_into` on one thread for
/// [`QUERY_SHARE`] of the run; traced, one `query.top_k` span per request
/// under the given phase span. Returns every request's duration in ns,
/// ascending.
fn query_phase(
    path: &Path,
    stream: &[u32],
    mode: ModeRequest,
    seconds: u64,
    mut trace: Option<(&mut Tracer, SpanId)>,
) -> Vec<u64> {
    let engine = QueryEngine::new(ModelArtifact::load_mapped(path).expect("load_mapped"));
    let m = resolve(&engine, mode);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::with_capacity(K as usize);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds as f64 * QUERY_SHARE);
    let mut durations = Vec::new();
    for (i, &u) in stream.iter().cycle().enumerate() {
        let t0 = Instant::now();
        engine
            .top_k_with_mode_into(u, K as usize, true, Some(m), &mut scratch, &mut out)
            .expect("in-process answer");
        let t1 = Instant::now();
        if let Some((tr, root)) = trace.as_mut() {
            let (a, b) = (tr.at(t0), tr.at(t1));
            tr.record("query.top_k", i as u64, Some(*root), a, b);
        }
        durations.push((t1 - t0).as_nanos() as u64);
        if t1 >= deadline {
            break;
        }
    }
    durations.sort_unstable();
    durations
}

/// Encodes and decodes the frames of the request stream (request plus a
/// ten-item response each) in two timed loops; checks the round trip.
fn traced_proto(
    tr: &mut Tracer,
    report: &mut Report,
    stream: &[u32],
    mode: ModeRequest,
    refs: &[Vec<u32>],
    g0: u64,
) {
    let requests: Vec<RequestFrame> = stream
        .iter()
        .map(|&user| RequestFrame::TopK {
            user,
            k: K,
            exclude_seen: true,
            mode,
        })
        .collect();
    let responses: Vec<ResponseFrame> = stream
        .iter()
        .map(|&u| ResponseFrame::ok(g0, refs[(u % REF_USERS) as usize].clone()))
        .collect();
    let root = tr.open("phase.proto", 0, None);
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = tr.time("proto.encode", 0, Some(root), || {
        requests
            .iter()
            .zip(&responses)
            .map(|(q, r)| (q.encode(), r.encode()))
            .collect()
    });
    let decoded: Vec<(RequestFrame, ResponseFrame)> =
        tr.time("proto.decode", 0, Some(root), || {
            encoded
                .iter()
                .map(|(q, r)| {
                    (
                        RequestFrame::decode(q).expect("request frame"),
                        ResponseFrame::decode(r).expect("response frame"),
                    )
                })
                .collect()
        });
    tr.close(root);
    let n = stream.len() as f64;
    let encode_ns = tr.name_total(root, "proto.encode").0 as f64;
    let decode_ns = tr.name_total(root, "proto.decode").0 as f64;
    report.layer("proto.encode_ns", encode_ns / n);
    report.layer("proto.decode_ns", decode_ns / n);
    report.check(
        "protocol frames round-trip",
        decoded
            .iter()
            .zip(requests.iter().zip(&responses))
            .all(|((dq, dr), (q, r))| dq == q && dr == r),
        "decode(encode(frame)) == frame for every request and response",
    );
}
