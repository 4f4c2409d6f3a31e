//! The training workloads: `train-bns` (sampler-bound) and `train-rns`
//! (update-bound, plus the hogwild engine).
//!
//! The main operation of both is one training triple of the bit-exact
//! single-thread engine (`op_us`, `ops_per_cpu_s`). The auxiliary
//! operation (`aux_us`) is one evaluated user on `train-bns`, where each
//! costs 50,000 scores, and one hogwild triple at 2 workers on
//! `train-rns`. `quality_at_10` is NDCG@10 after the bit-exact run.
//!
//! Work sizes (epochs, evaluation passes) are derived from `--seconds`
//! and never from the clock, so a seed and a run length fix the trained
//! model and `quality_at_10` (NDCG@10) repeats bit for bit.

use crate::procfs::cpu_seconds;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use bns_core::{
    build_sampler, train, BnsConfig, NegativeSampler, NoopObserver, ParallelConfig,
    ParallelTrainer, PriorKind, SampleContext, SamplerConfig, TrainConfig, TrainObserver,
    TrainStats,
};
use bns_data::presets::{DatasetPreset, Scale};
use bns_data::synthetic::{generate_streamed, SyntheticConfig};
use bns_data::{split_random, Dataset, SplitConfig};
use bns_eval::metrics::{ndcg_at_k, precision_at_k, recall_at_k};
use bns_eval::{evaluate_ranking, top_k_masked_into, TopKBuffer};
use bns_model::{MatrixFactorization, PairwiseModel, Scorer, TripleBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Embedding dimension of every workload (the paper's MF setting).
const DIM: usize = 32;
/// Ranking cutoff of `ndcg_at_10`.
const K: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// How a training phase is cut into timing windows.
#[derive(Debug, Clone, Copy)]
enum Window {
    /// One window per epoch (epochs are short).
    Epoch,
    /// One window per this many applied triples (epochs are long).
    Triples(usize),
}

/// One training workload.
struct Spec {
    name: &'static str,
    data: SyntheticConfig,
    sampler: SamplerConfig,
    /// RNS epochs run during set-up to warm-start the model.
    warm_epochs: usize,
    /// Bit-exact epochs of the measured sampler.
    epochs: usize,
    window: Window,
    /// Hogwild epochs at 2 workers: the auxiliary phase of `train-rns`.
    hogwild_epochs: Option<usize>,
    /// Single-thread evaluation passes over every evaluable user: the
    /// auxiliary phase of `train-bns`.
    eval_passes: usize,
}

/// Seed salts: every input of a run is derived from `--seed`.
const SALT_DATA: u64 = 0xDA7A;
const SALT_SPLIT: u64 = 0x5B17;
const SALT_INIT: u64 = 0x1417;
const SALT_WARM: u64 = 0x3A53;
const SALT_TRAIN: u64 = 0x7A41;
const SALT_HOGWILD: u64 = 0x2107;

/// Scales a phase to about `share · seconds` of wall time on a 2-core
/// x86-64 host, given the measured cost of one unit of work there.
fn units(seconds: u64, share: f64, unit_s: f64, min: usize) -> usize {
    ((seconds as f64 * share / unit_s).round() as usize).max(min)
}

impl Spec {
    /// `train-bns`: the paper-default BNS sampler (m = 5, λ = 5,
    /// popularity prior, exact ECDF) over a 50,000-item catalog at
    /// MovieLens-like sparsity. Each draw is one fused catalog pass.
    fn bns(seed: u64, seconds: u64) -> Self {
        let users = 1_000;
        let data = SyntheticConfig {
            n_users: users,
            n_items: 50_000,
            target_interactions: 20 * users as usize,
            ..DatasetPreset::Ml1m.config(Scale::Paper, seed ^ SALT_DATA)
        };
        Spec {
            name: "train-bns",
            data,
            sampler: SamplerConfig::Bns {
                config: BnsConfig::default(),
                prior: PriorKind::Popularity,
            },
            warm_epochs: 50,
            // ~12 s per epoch of ~20k pairs at ~1.6k triples/s.
            epochs: units(seconds, 0.6, 12.0, 1),
            window: Window::Triples(256),
            hogwild_epochs: None,
            // ~0.6 s per pass over 1,000 users × 50k scores.
            eval_passes: units(seconds, 0.3, 0.6, 3),
        }
    }

    /// `train-rns`: uniform sampling on the paper-scale MovieLens-1M
    /// preset, where the model update and the epoch loop dominate.
    fn rns(seed: u64, seconds: u64) -> Self {
        Spec {
            name: "train-rns",
            data: DatasetPreset::Ml1m.config(Scale::Paper, seed ^ SALT_DATA),
            sampler: SamplerConfig::Rns,
            warm_epochs: 0,
            // ~0.29 s per epoch of 812k pairs at ~2.8M triples/s. The
            // single-thread phase gets the larger share: it is the one
            // that other tenants of a shared host disturb most.
            epochs: units(seconds, 0.7, 0.29, 3),
            window: Window::Epoch,
            // ~0.25 s per epoch at ~3.2M triples/s.
            hogwild_epochs: Some(units(seconds, 0.25, 0.25, 3)),
            // Only for NDCG and its repeat check: ~0.3 s per pass.
            eval_passes: 3,
        }
    }
}

/// Records the end of every timing window of a training run.
struct Windows {
    chunk: usize,
    triples: usize,
    marks: Vec<Instant>,
}

impl Windows {
    fn new(window: Window) -> Self {
        let chunk = match window {
            Window::Epoch => 0,
            Window::Triples(n) => n,
        };
        Self {
            chunk,
            triples: 0,
            marks: Vec::new(),
        }
    }

    /// Microseconds per triple of every complete window that started at
    /// or after `start`; `per_window` triples each.
    fn us_per_triple(&self, start: Instant, per_window: f64) -> Vec<f64> {
        let mut prev = start;
        self.marks
            .iter()
            .map(|&t| {
                let us = t.duration_since(prev).as_secs_f64() * 1e6 / per_window;
                prev = t;
                us
            })
            .collect()
    }
}

impl TrainObserver for Windows {
    fn on_triple(&mut self, _: usize, _: u32, _: u32, _: u32, _: f32) {
        self.triples += 1;
        if self.chunk > 0 && self.triples.is_multiple_of(self.chunk) {
            self.marks.push(Instant::now());
        }
    }

    fn on_epoch_end(&mut self, _: usize, _: &dyn Scorer) {
        if self.chunk == 0 {
            self.marks.push(Instant::now());
        }
    }
}

/// What one set-up produced.
struct Setup {
    dataset: Dataset,
    model: MatrixFactorization,
    generate_s: f64,
    split_s: f64,
    total_s: f64,
}

fn set_up(spec: &Spec, seed: u64) -> Setup {
    let t0 = Instant::now();
    let all = generate_streamed(&spec.data).expect("synthetic generation");
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (train_set, test_set) = split_random(
        &all,
        SplitConfig::default(),
        &mut StdRng::seed_from_u64(seed ^ SALT_SPLIT),
    )
    .expect("80/20 split");
    let split_s = t1.elapsed().as_secs_f64();
    let dataset = Dataset::new(spec.name, train_set, test_set).expect("dataset");
    let mut model = MatrixFactorization::new(
        dataset.n_users(),
        dataset.n_items(),
        DIM,
        0.1,
        &mut StdRng::seed_from_u64(seed ^ SALT_INIT),
    )
    .expect("MF model");
    if spec.warm_epochs > 0 {
        let mut rns = build_sampler(&SamplerConfig::Rns, &dataset, None).expect("RNS");
        let cfg = TrainConfig::paper_mf(spec.warm_epochs, seed ^ SALT_WARM);
        train(&mut model, &dataset, rns.as_mut(), &cfg, &mut NoopObserver).expect("warm start");
    }
    Setup {
        dataset,
        model,
        generate_s,
        split_s,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// A hash of a set-up's dataset and model bits; repetitions must agree.
fn fingerprint(s: &Setup) -> u64 {
    let mut h = DefaultHasher::new();
    s.dataset.train().csr_parts().hash(&mut h);
    s.dataset.test().csr_parts().hash(&mut h);
    for x in s
        .model
        .users()
        .as_slice()
        .iter()
        .chain(s.model.items().as_slice())
    {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

/// `triples == epochs × pairs − skipped` (one negative per pair).
fn triples_add_up(stats: &TrainStats, epochs: usize, pairs: usize) -> bool {
    stats.triples + stats.skipped == epochs * pairs
}

/// Runs `train-bns` or `train-rns`.
pub fn run(workload: &str, seed: u64, seconds: u64, tracer: Option<&mut Tracer>) -> Report {
    let spec = match workload {
        "train-bns" => Spec::bns(seed, seconds),
        "train-rns" => Spec::rns(seed, seconds),
        other => unreachable!("not a training workload: {other}"),
    };
    let mut report = Report::default();

    // ---- set-up, repeated; each repetition is dropped before the next
    // is built, so the peak RSS is that of one set-up, and the last one
    // is used ----
    let (mut total, mut generate, mut split) = (Vec::new(), Vec::new(), Vec::new());
    let mut prints = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let s = set_up(&spec, seed);
        total.push(s.total_s);
        generate.push(s.generate_s);
        split.push(s.split_s);
        prints.push(fingerprint(&s));
        last = Some(s);
    }
    report.check(
        "setup is deterministic",
        prints.iter().all(|&p| p == prints[0]),
        "every set-up repetition built the same dataset and model",
    );
    let (setup_s, generate_s, split_s) = (median(&total), median(&generate), median(&split));
    let Setup {
        dataset,
        model: base,
        ..
    } = last.expect("at least one set-up");
    let pairs = dataset.train().len();
    report.note(format!(
        "{}: {} users × {} items, {} train pairs, {} test pairs; {} bit-exact epochs",
        spec.name,
        dataset.n_users(),
        dataset.n_items(),
        pairs,
        dataset.test().len(),
        spec.epochs
    ));

    // ---- main phase: bit-exact single-thread training ----
    let train_cfg = TrainConfig::paper_mf(spec.epochs, seed ^ SALT_TRAIN);
    let mut model = base.clone();
    let mut sampler = build_sampler(&spec.sampler, &dataset, None).expect("sampler");
    let mut windows = Windows::new(spec.window);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let stats = train(
        &mut model,
        &dataset,
        sampler.as_mut(),
        &train_cfg,
        &mut windows,
    )
    .expect("bit-exact training");
    let cpu_s = cpu_since(cpu0);
    report.attempt(epochs_pairs(spec.epochs, pairs), 0);
    report.check(
        "1t triples add up",
        triples_add_up(&stats, spec.epochs, pairs),
        &format!(
            "triples {} + skipped {} vs {} epochs × {pairs} pairs",
            stats.triples, stats.skipped, spec.epochs
        ),
    );
    let per_window = match spec.window {
        Window::Epoch => (stats.triples / spec.epochs) as f64,
        Window::Triples(n) => n as f64,
    };
    let windows_us = windows.us_per_triple(start, per_window);
    let op_us = median(&windows_us);
    let ops_per_cpu_s = stats.triples as f64 / cpu_s;
    report.note(format!(
        "1t: {} triples, {} skipped pairs, {:.3} s wall, {cpu_s:.3} s CPU; µs per triple over windows {}; train_tps_1t {:.0} triples/s",
        stats.triples,
        stats.skipped,
        stats.wall_seconds,
        spread(&windows_us),
        1e6 / op_us
    ));

    // ---- evaluation: one pass gives ndcg, repeated passes the rate ----
    let mut eval_us = Vec::with_capacity(spec.eval_passes);
    let mut ndcg_bits = Vec::with_capacity(spec.eval_passes);
    for _ in 0..spec.eval_passes {
        let t = Instant::now();
        let r = evaluate_ranking(&model, &dataset, &[K], 1);
        eval_us.push(t.elapsed().as_secs_f64() * 1e6 / r.n_users as f64);
        ndcg_bits.push(r.rows[0].ndcg.to_bits());
        report.attempt(r.n_users as u64, 0);
    }
    let ndcg = f64::from_bits(ndcg_bits[0]);
    report.check(
        "evaluation repeats exactly",
        ndcg_bits.iter().all(|&b| b == ndcg_bits[0]),
        "every evaluation pass returned the same ndcg bits",
    );
    let eval_user_us = median(&eval_us);
    report.note(format!(
        "evaluation: µs per user over passes {}; eval_users_per_s {:.0}",
        spread(&eval_us),
        1e6 / eval_user_us
    ));

    // ---- hogwild, 2 workers ----
    let hogwild_us = spec
        .hogwild_epochs
        .map(|epochs| hogwild(&base, &dataset, seed, epochs, &mut report, None));

    // The auxiliary operation: a hogwild triple where that phase runs,
    // otherwise an evaluated user.
    let aux_us = hogwild_us.unwrap_or(eval_user_us);
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", crate::procfs::peak_rss_mib());
    report.metric("op_us", op_us);
    report.metric("ops_per_cpu_s", ops_per_cpu_s);
    report.metric("aux_us", aux_us);
    report.metric("quality_at_10", ndcg);

    if let Some(tr) = tracer {
        let traced = Traced {
            spec: &spec,
            dataset: &dataset,
            base: &base,
            train_cfg: &train_cfg,
        };
        let t = traced.run(tr, &mut report, &stats, ndcg);
        report.layer("data.generate_s", generate_s);
        report.layer("data.split_s", split_s);
        let untraced_mean_us = stats.wall_seconds * 1e6 / stats.triples.max(1) as f64;
        report.layer("overhead.op_us", t.mean_us - untraced_mean_us);
        report.layer("overhead.ops_per_cpu_s", t.ops_per_cpu_s - ops_per_cpu_s);
        report.note(format!(
            "overhead.op_us compares mean µs per triple: traced {:.4} vs untraced {untraced_mean_us:.4}",
            t.mean_us
        ));
        let traced_aux_us = match spec.hogwild_epochs {
            Some(epochs) => {
                let root = tr.open("phase.parallel", 0, None);
                let us = hogwild(&base, &dataset, seed, epochs, &mut report, Some((tr, root)));
                tr.close(root);
                report.accounting("parallel", &tr.accounting(root));
                us
            }
            None => t.eval_user_us,
        };
        report.layer("overhead.aux_us", traced_aux_us - aux_us);
        if let Some(h) = hogwild_us {
            report.layer("parallel.speedup_2t", op_us / h);
            report.note(format!(
                "parallel.speedup_2t = train_tps_2t {:.0} / train_tps_1t {:.0} (base: bit-exact 1 thread)",
                1e6 / h,
                1e6 / op_us
            ));
        }
    }
    report
}

/// User plus system CPU seconds of the process since `since`.
fn cpu_since(since: (f64, f64)) -> f64 {
    let (u, s) = cpu_seconds();
    (u - since.0) + (s - since.1)
}

/// Trains a copy of `base` with `ParallelConfig::hogwild(2)` for
/// `epochs` RNS epochs; returns the median µs per triple over epochs.
/// Traced, the call is one `parallel.train` span under the given phase span.
fn hogwild(
    base: &MatrixFactorization,
    dataset: &Dataset,
    seed: u64,
    epochs: usize,
    report: &mut Report,
    trace: Option<(&mut Tracer, SpanId)>,
) -> f64 {
    let trainer = ParallelTrainer::new(
        TrainConfig::paper_mf(epochs, seed ^ SALT_HOGWILD),
        ParallelConfig::hogwild(2),
    )
    .expect("hogwild config");
    let mut m = base.clone();
    let mut w = Windows::new(Window::Epoch);
    let pairs = dataset.train().len();
    let run = |m: &mut MatrixFactorization, w: &mut Windows| {
        trainer
            .train(m, dataset, &SamplerConfig::Rns, None, w)
            .expect("hogwild training")
    };
    let start = Instant::now();
    let stats = match trace {
        Some((tr, root)) => tr.time("parallel.train", 0, Some(root), || run(&mut m, &mut w)),
        None => run(&mut m, &mut w),
    };
    report.attempt(epochs_pairs(epochs, pairs), 0);
    report.check(
        "2t triples add up",
        triples_add_up(&stats, epochs, pairs),
        &format!(
            "triples {} + skipped {} vs {epochs} epochs × {pairs} pairs",
            stats.triples, stats.skipped
        ),
    );
    let us = w.us_per_triple(start, (stats.triples / epochs) as f64);
    let med = median(&us);
    report.note(format!(
        "2t: µs per triple over epochs {}; train_tps_2t {:.0} triples/s",
        spread(&us),
        1e6 / med
    ));
    med
}

/// `n=…, min … median … max` of a set of window measurements.
fn spread(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "n={}, min {lo:.4}, median {:.4}, max {hi:.4}",
        v.len(),
        median(v)
    )
}

fn epochs_pairs(epochs: usize, pairs: usize) -> u64 {
    (epochs * pairs) as u64
}

/// The traced re-run of one training workload.
struct Traced<'a> {
    spec: &'a Spec,
    dataset: &'a Dataset,
    base: &'a MatrixFactorization,
    train_cfg: &'a TrainConfig,
}

/// What the traced re-run measured again, for the tracing overhead.
struct TracedRates {
    /// Mean µs per triple over the traced training phase.
    mean_us: f64,
    /// Triples per CPU second of the traced training phase.
    ops_per_cpu_s: f64,
    /// Median µs per user over the traced evaluation passes.
    eval_user_us: f64,
}

impl Traced<'_> {
    fn run(
        &self,
        tr: &mut Tracer,
        report: &mut Report,
        untraced: &TrainStats,
        ndcg: f64,
    ) -> TracedRates {
        // Training: the trainer's public loop driven step by step.
        let mut model = self.base.clone();
        let mut sampler = build_sampler(&self.spec.sampler, self.dataset, None).expect("sampler");
        let cpu0 = cpu_seconds();
        let root = tr.open("phase.train", 0, None);
        let (triples, skipped, mean_info) = traced_train(
            &mut model,
            self.dataset,
            sampler.as_mut(),
            self.train_cfg,
            tr,
            root,
        );
        tr.close(root);
        let cpu_s = cpu_since(cpu0);
        report.check(
            "traced loop applies the same triples",
            triples == untraced.triples && skipped == untraced.skipped,
            &format!(
                "traced {triples}/{skipped} vs untraced {}/{}",
                untraced.triples, untraced.skipped
            ),
        );
        report.check(
            "traced loop reproduces mean info per epoch bitwise",
            bits64(&mean_info) == bits64(&untraced.mean_info_per_epoch),
            "per-epoch mean info(j) of the traced loop vs TrainStats",
        );
        let traced_ndcg = evaluate_ranking(&model, self.dataset, &[K], 1).rows[0].ndcg;
        report.check(
            "traced loop reproduces ndcg_at_10 bitwise",
            traced_ndcg.to_bits() == ndcg.to_bits(),
            &format!("traced {traced_ndcg} vs untraced {ndcg}"),
        );
        let acc = tr.accounting(root);
        let t = triples.max(1) as f64;
        let (sample_ns, _) = tr.name_total(root, "sampler.sample_batch");
        let (update_ns, _) = tr.name_total(root, "model.update_batch");
        let layer = |name: &str| acc.layers.get(name).copied().unwrap_or(0);
        report.layer("sampler.ns_per_triple", sample_ns as f64 / t);
        report.layer(
            "sampler.share",
            layer("sampler") as f64 / acc.wall_ns as f64,
        );
        report.layer("model.update_ns_per_triple", update_ns as f64 / t);
        report.layer("trainer.loop_ns_per_triple", layer("trainer") as f64 / t);
        report.layer("trainer.skipped", skipped as f64);
        report.accounting("train", &acc);
        let mean_us = acc.wall_ns as f64 / 1e3 / t;
        let ops_per_cpu_s = t / cpu_s;

        // Evaluation: `evaluate_ranking`'s single-worker loop, step by step.
        let root = tr.open("phase.eval", 0, None);
        let mut traced_ndcg = 0.0;
        let mut pass_us = Vec::with_capacity(self.spec.eval_passes);
        let users = self.dataset.evaluable_users().len() as f64;
        for pass in 0..self.spec.eval_passes {
            let t = Instant::now();
            traced_ndcg = traced_eval(&model, self.dataset, tr, root, pass as u64);
            pass_us.push(t.elapsed().as_secs_f64() * 1e6 / users);
        }
        tr.close(root);
        report.check(
            "traced evaluation reproduces ndcg_at_10 bitwise",
            traced_ndcg.to_bits() == ndcg.to_bits(),
            &format!("traced {traced_ndcg} vs untraced {ndcg}"),
        );
        let acc = tr.accounting(root);
        let (score_ns, users) = tr.name_total(root, "eval.score_all");
        let (topk_ns, _) = tr.name_total(root, "eval.top_k");
        let u = users.max(1) as f64;
        report.layer("eval.score_us_per_user", score_ns as f64 / u / 1e3);
        report.layer("eval.topk_us_per_user", topk_ns as f64 / u / 1e3);
        report.accounting("eval", &acc);
        TracedRates {
            mean_us,
            ops_per_cpu_s,
            eval_user_us: median(&pass_us),
        }
    }
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `bns_core::train` for a `batch_size`/`k_negatives` MF run, step for
/// step in the trainer's order — `begin_epoch`, `on_epoch_start`,
/// shuffle, then per batch `begin_batch` / `sample_batch` /
/// `update_batch` / `end_batch`, then `take_epoch_stats` — with a span
/// around each call. Returns `(triples, skipped, mean info per epoch)`.
fn traced_train(
    model: &mut MatrixFactorization,
    dataset: &Dataset,
    sampler: &mut dyn NegativeSampler,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    root: SpanId,
) -> (usize, usize, Vec<f64>) {
    let train_set = dataset.train();
    let popularity = dataset.popularity();
    let mut pairs: Vec<(u32, u32)> = train_set.iter_pairs().collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut batch = TripleBatch::new();
    let mut infos: Vec<f32> = Vec::new();
    let (mut triples, mut skipped) = (0usize, 0usize);
    let mut mean_info = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        let op = epoch as u64;
        let ep = tr.open("trainer.epoch", op, Some(root));
        let lr = cfg.sgd.lr.at(epoch);
        tr.time("model.begin_epoch", op, Some(ep), || {
            model.begin_epoch(epoch)
        });
        tr.time("sampler.on_epoch_start", op, Some(ep), || {
            sampler.on_epoch_start(epoch)
        });
        tr.time("trainer.shuffle", op, Some(ep), || pairs.shuffle(&mut rng));
        let s_begin = tr.fold_slot(ep, "model.begin_batch");
        let s_sample = tr.fold_slot(ep, "sampler.sample_batch");
        let s_update = tr.fold_slot(ep, "model.update_batch");
        let s_end = tr.fold_slot(ep, "model.end_batch");
        let (mut info_sum, mut info_count) = (0.0f64, 0usize);
        let mut t = tr.now();
        for chunk in pairs.chunks(cfg.batch_size) {
            model.begin_batch();
            let t1 = tr.now();
            tr.add(s_begin, t, t1);
            {
                let ctx = SampleContext {
                    scorer: &*model,
                    train: train_set,
                    popularity,
                    user_scores: &[],
                    epoch,
                };
                sampler.sample_batch(chunk, cfg.k_negatives, &ctx, &mut rng, &mut batch);
            }
            let t2 = tr.now();
            tr.add(s_sample, t1, t2);
            model.update_batch(&batch, lr, cfg.sgd.reg, &mut infos);
            let t3 = tr.now();
            tr.add(s_update, t2, t3);
            skipped += chunk.len() - batch.len();
            for &info in &infos {
                info_sum += info as f64;
            }
            info_count += infos.len();
            triples += infos.len();
            let t4 = tr.now();
            model.end_batch(lr, cfg.sgd.reg);
            t = tr.now();
            tr.add(s_end, t4, t);
        }
        mean_info.push(if info_count == 0 {
            0.0
        } else {
            info_sum / info_count as f64
        });
        tr.time("sampler.take_epoch_stats", op, Some(ep), || {
            sampler.take_epoch_stats()
        });
        tr.close(ep);
    }
    (triples, skipped, mean_info)
}

/// One pass of `evaluate_ranking(model, dataset, &[10], 1)`, step for
/// step, with spans around scoring, selection and the metrics. Returns
/// the mean NDCG@10, summed in `evaluate_ranking`'s order.
fn traced_eval(
    model: &MatrixFactorization,
    dataset: &Dataset,
    tr: &mut Tracer,
    root: SpanId,
    pass: u64,
) -> f64 {
    let pass_span = tr.open("eval.pass", pass, Some(root));
    let users = dataset.evaluable_users();
    let mut scores = vec![0.0f32; dataset.n_items() as usize];
    let mut topk = TopKBuffer::default();
    let mut ranked: Vec<u32> = Vec::with_capacity(K);
    let (mut p, mut r, mut n) = (0.0f64, 0.0f64, 0.0f64);
    let s_score = tr.fold_slot(pass_span, "eval.score_all");
    let s_topk = tr.fold_slot(pass_span, "eval.top_k");
    let s_metrics = tr.fold_slot(pass_span, "eval.metrics");
    let mut t = tr.now();
    for &u in users {
        model.score_all(u, &mut scores);
        let t1 = tr.now();
        tr.add(s_score, t, t1);
        top_k_masked_into(
            &scores,
            dataset.train().items_of(u),
            K,
            &mut topk,
            &mut ranked,
        );
        let t2 = tr.now();
        tr.add(s_topk, t1, t2);
        let relevant = dataset.test().items_of(u);
        p += precision_at_k(&ranked, relevant, K);
        r += recall_at_k(&ranked, relevant, K);
        n += ndcg_at_k(&ranked, relevant, K);
        t = tr.now();
        tr.add(s_metrics, t2, t);
    }
    std::hint::black_box((p, r));
    tr.close(pass_span);
    (0.0 + n) / users.len() as f64
}
