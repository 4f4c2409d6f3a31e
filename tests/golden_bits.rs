//! Golden bit pins for the shared scoring kernel and one seeded BNS run.
//!
//! `trainer_repro_guard` compares two runs of the *same* binary, so it
//! cannot see a change of summation order in `bns_model::kernel`: both
//! runs would move together. These tests pin FNV-1a digests of the raw
//! bits instead — of `score_all` / `score_items` outputs for a seeded MF at
//! d ∈ {3, 8, 32, 33} (below one lane group, exactly one, four, and four
//! plus a scalar tail) and of a short seeded BNS `TrainConfig::paper_mf`
//! run (every sampled triple with its `info`, and the final embedding
//! tables). A kernel rewrite that keeps every output bit leaves them
//! unchanged; one that reorders a single addition changes them.
//!
//! The digests depend on whether the build fuses multiply-add (the
//! workspace builds with `target-cpu=native`), so there is one pin per
//! x86-64 code path: with FMA, and baseline x86-64 without it
//! (`RUSTFLAGS="-C target-cpu=x86-64"`). Other architectures lower
//! `mul_add` and libm differently and carry no pin.
#![cfg(target_arch = "x86_64")]

use bns::core::{
    build_sampler, train, BnsConfig, PriorKind, SamplerConfig, TrainConfig, TrainObserver,
};
use bns::data::synthetic::{generate, SyntheticConfig};
use bns::data::{split_random, Dataset, SplitConfig};
use bns::model::{MatrixFactorization, Scorer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a stream of 32-bit words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Digest of `score_all` for every user and `score_items` over seeded
/// random ids (duplicates included) for a seeded MF of dimension `d`.
fn scorer_digest(d: usize) -> u64 {
    let (n_users, n_items) = (7u32, 301u32);
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + d as u64);
    let model = MatrixFactorization::new(n_users, n_items, d, 0.3, &mut rng).expect("valid model");
    let mut h = Fnv::new();
    let mut all = vec![0.0f32; n_items as usize];
    let ids: Vec<u32> = (0..97).map(|_| rng.random_range(0..n_items)).collect();
    let mut some = vec![0.0f32; ids.len()];
    for u in 0..n_users {
        model.score_all(u, &mut all);
        h.floats(&all);
        model.score_items(u, &ids, &mut some);
        h.floats(&some);
    }
    h.0
}

#[cfg(target_feature = "fma")]
const SCORER_PINS: [(usize, u64); 4] = [
    (3, 0xcf07_a622_ea09_5fa9),
    (8, 0x9a60_5e43_9a7f_ee62),
    (32, 0x5359_73fa_298e_c78c),
    (33, 0x8afd_3f63_f2f0_d4a5),
];
#[cfg(not(target_feature = "fma"))]
const SCORER_PINS: [(usize, u64); 4] = [
    (3, 0x341d_725c_0929_8df1),
    (8, 0x9a60_5e43_9a7f_ee62),
    (32, 0x97c1_3e33_6bff_211a),
    (33, 0x093c_4a37_fa15_3911),
];

#[test]
fn scorer_outputs_match_golden_digests() {
    let got = SCORER_PINS.map(|(d, _)| (d, scorer_digest(d)));
    assert_eq!(
        got,
        SCORER_PINS,
        "digests {:x?}",
        got.map(|(_, digest)| digest)
    );
}

/// Records every applied triple with its `info` bits.
struct TripleDigest(Fnv);

impl TrainObserver for TripleDigest {
    fn on_triple(&mut self, epoch: usize, u: u32, pos: u32, neg: u32, info: f32) {
        for w in [epoch as u32, u, pos, neg, info.to_bits()] {
            self.0.word(w);
        }
    }

    fn on_epoch_end(&mut self, _epoch: usize, _model: &dyn Scorer) {}
}

/// (triples digest, final model digest) of a 3-epoch paper-default BNS
/// run at d = 32 over a 600-item catalog: the exact ECDF pass walks
/// three blocks per draw.
fn bns_run_digests() -> (u64, u64) {
    let synthetic = generate(&SyntheticConfig {
        n_users: 40,
        n_items: 600,
        target_interactions: 1_200,
        seed: 21,
        ..SyntheticConfig::default()
    })
    .expect("generation succeeds");
    let mut rng = StdRng::seed_from_u64(0xB175);
    let (train_set, test_set) =
        split_random(&synthetic.interactions, SplitConfig::default(), &mut rng)
            .expect("split succeeds");
    let dataset = Dataset::new("golden", train_set, test_set).expect("valid dataset");
    let mut model =
        MatrixFactorization::new(dataset.n_users(), dataset.n_items(), 32, 0.1, &mut rng)
            .expect("valid model");
    let sampler_cfg = SamplerConfig::Bns {
        config: BnsConfig::default(),
        prior: PriorKind::Popularity,
    };
    let mut sampler = build_sampler(&sampler_cfg, &dataset, None).expect("valid sampler");
    let mut observer = TripleDigest(Fnv::new());
    train(
        &mut model,
        &dataset,
        sampler.as_mut(),
        &TrainConfig::paper_mf(3, 99),
        &mut observer,
    )
    .expect("training succeeds");
    let mut tables = Fnv::new();
    tables.floats(model.users().as_slice());
    tables.floats(model.items().as_slice());
    (observer.0 .0, tables.0)
}

#[cfg(target_feature = "fma")]
const BNS_PINS: (u64, u64) = (0xdc3b_8848_3cd6_3932, 0xaca9_6ddb_add5_5e32);
#[cfg(not(target_feature = "fma"))]
const BNS_PINS: (u64, u64) = (0xd949_57c6_336e_68a7, 0xe733_c803_9028_cfb8);

#[test]
fn bns_training_run_matches_golden_digests() {
    let (triples, tables) = bns_run_digests();
    assert_eq!(
        (triples, tables),
        BNS_PINS,
        "triples {triples:#018x}, tables {tables:#018x}"
    );
}
