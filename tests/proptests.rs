//! Property-based tests over the core invariants, spanning crates.
//!
//! Each property encodes a law from the paper or a structural invariant of
//! a substrate: Eq. (15)'s range/monotonicity, Eq. (31)/(32) equivalence,
//! Proposition 0.1, CSR round-trips, split partitioning, metric bounds and
//! top-k correctness.

use bns::core::bns::risk::{conditional_risk, selection_value};
use bns::core::bns::unbias::unbias;
use bns::core::bns::{fused_ecdf_counts, EcdfScratch, EcdfStrategy};
use bns::data::serialize::{decode_interactions, encode_interactions};
use bns::data::{split_random, Interactions, SplitConfig};
use bns::eval::{ndcg_at_k, precision_at_k, recall_at_k, top_k_masked};
use bns::model::loss::{bpr_log_likelihood, info, sigmoid};
use bns::model::scorer::FixedScorer;
use bns::model::{kernel, Scorer};
use bns::stats::dist::Continuous;
use bns::stats::{Ecdf, Normal, Welford};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // ---------- Eq. (15): the unbias posterior ----------

    #[test]
    fn unbias_is_a_probability(f in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        let u = unbias(f, p);
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn unbias_monotone_decreasing_in_f(
        f1 in 0.0f64..=1.0,
        f2 in 0.0f64..=1.0,
        p in 0.01f64..=0.99,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(unbias(lo, p) + 1e-12 >= unbias(hi, p));
    }

    #[test]
    fn unbias_monotone_decreasing_in_prior(
        f in 0.01f64..=0.99,
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(unbias(f, lo) + 1e-12 >= unbias(f, hi));
    }

    #[test]
    fn unbias_complement_symmetry(f in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        // Swapping F ↔ 1−F and P ↔ 1−P flips the posterior.
        let a = unbias(f, p);
        let b = unbias(1.0 - f, 1.0 - p);
        prop_assert!((a + b - 1.0).abs() < 1e-9);
    }

    // ---------- Eq. (31)/(32): sampling risk ----------

    #[test]
    fn risk_forms_are_identical(
        info_v in 0.0f64..=1.0,
        unb in 0.0f64..=1.0,
        lambda in 0.0f64..=50.0,
    ) {
        let a = conditional_risk(info_v, unb, lambda);
        let b = selection_value(info_v, unb, lambda);
        prop_assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn risk_bounds(info_v in 0.0f64..=1.0, unb in 0.0f64..=1.0, lambda in 0.0f64..=50.0) {
        // R ∈ [−λ·info, +info].
        let r = conditional_risk(info_v, unb, lambda);
        prop_assert!(r <= info_v + 1e-12);
        prop_assert!(r >= -lambda * info_v - 1e-12);
    }

    // ---------- loss functions ----------

    #[test]
    fn sigmoid_in_unit_interval_and_monotone(a in -50.0f32..50.0, b in -50.0f32..50.0) {
        let (sa, sb) = (sigmoid(a), sigmoid(b));
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb);
        }
    }

    #[test]
    fn info_is_one_minus_sigmoid(pos in -20.0f32..20.0, neg in -20.0f32..20.0) {
        let i = info(pos, neg);
        prop_assert!((i - (1.0 - sigmoid(pos - neg))).abs() < 1e-6);
        prop_assert!((0.0..=1.0).contains(&i));
    }

    #[test]
    fn bpr_ll_is_nonpositive(pos in -20.0f32..20.0, neg in -20.0f32..20.0) {
        prop_assert!(bpr_log_likelihood(pos, neg) <= 1e-6);
    }

    // ---------- stats substrate ----------

    #[test]
    fn ecdf_is_monotone_step_function(mut xs in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let e = Ecdf::new(&xs).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert!((e.eval(xs[xs.len() - 1]) - 1.0).abs() < 1e-12);
        prop_assert!(e.eval(xs[0] - 1.0) == 0.0);
    }

    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-6);
        prop_assert!((w.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_monotone_and_bounded(mu in -5.0f64..5.0, sigma in 0.1f64..5.0, x in -20.0f64..20.0) {
        let n = Normal::new(mu, sigma).unwrap();
        let c = n.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(n.cdf(x + 0.5) >= c);
        prop_assert!(n.pdf(x) >= 0.0);
    }

    // ---------- data substrate ----------

    #[test]
    fn interactions_round_trip_serialization(
        pairs in prop::collection::vec((0u32..20, 0u32..30), 0..200),
    ) {
        let x = Interactions::from_pairs(20, 30, &pairs).unwrap();
        let decoded = decode_interactions(&encode_interactions(&x)).unwrap();
        prop_assert_eq!(x, decoded);
    }

    #[test]
    fn split_is_partition_with_train_guarantee(
        pairs in prop::collection::vec((0u32..15, 0u32..25), 1..300),
        seed in 0u64..1000,
    ) {
        let all = Interactions::from_pairs(15, 25, &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = split_random(&all, SplitConfig::default(), &mut rng).unwrap();
        prop_assert_eq!(train.len() + test.len(), all.len());
        for (u, i) in test.iter_pairs() {
            prop_assert!(all.contains(u, i));
            prop_assert!(!train.contains(u, i));
        }
        for u in 0..15u32 {
            if all.degree(u) > 0 {
                prop_assert!(train.degree(u) >= 1, "user {} lost all train items", u);
            }
        }
    }

    // ---------- evaluation substrate ----------

    #[test]
    fn topk_matches_sort_reference(
        scores in prop::collection::vec(-100.0f32..100.0, 1..80),
        k in 1usize..20,
    ) {
        let got = top_k_masked(&scores, &[], k);
        let mut reference: Vec<(f32, u32)> =
            scores.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        reference.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let expected: Vec<u32> =
            reference.into_iter().take(k).map(|(_, i)| i).collect();
        prop_assert_eq!(got, expected);
    }

    // ---------- fused scoring kernels ----------
    //
    // The justification for re-pinning the bit-exact trainer traces: the
    // unrolled kernels change the summation order, but stay within 1e-5
    // relative error of an f64 scalar reference, and every entry point
    // (dot / gemv / gather) agrees bitwise with every other.

    #[test]
    fn kernel_dot_close_to_f64_reference(
        a in prop::collection::vec(-10.0f32..10.0, 0..200),
        b_seed in 0u64..1_000,
    ) {
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b_seed;
                ((h % 2_000) as f32 / 1_000.0) - 1.0
            })
            .collect();
        let got = kernel::dot(&a, &b) as f64;
        let reference: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let tol = 1e-5 * reference.abs().max(1.0);
        prop_assert!((got - reference).abs() <= tol, "{got} vs {reference}");
    }

    #[test]
    fn kernel_gemv_and_gather_agree_with_dot_bitwise(
        user in prop::collection::vec(-5.0f32..5.0, 1..64),
        n_rows in 1usize..30,
        table_seed in 0u64..1_000,
    ) {
        let d = user.len();
        let table: Vec<f32> = (0..d * n_rows)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ table_seed;
                ((h % 2_000) as f32 / 1_000.0) - 1.0
            })
            .collect();
        let mut full = vec![0.0f32; n_rows];
        kernel::gemv(&user, &table, &mut full);
        let ids: Vec<u32> = (0..n_rows as u32).rev().collect();
        let mut gathered = vec![0.0f32; n_rows];
        kernel::gather_dots(&user, &table, &ids, &mut gathered);
        for (k, &i) in ids.iter().enumerate() {
            let direct = kernel::dot(&user, &table[i as usize * d..(i as usize + 1) * d]);
            prop_assert_eq!(full[i as usize].to_bits(), direct.to_bits());
            prop_assert_eq!(gathered[k].to_bits(), direct.to_bits());
        }
    }

    // ---------- the fused single-pass ECDF ----------

    /// The fused blocked pass must be *count-for-count identical* to m
    /// independent `EcdfStrategy::Exact` scans of a precomputed rating
    /// vector, for arbitrary score tables, positive masks and candidate
    /// (threshold) sets — the correctness contract of the fused BNS draw.
    /// Catalogs reach past four 256-item blocks; `edges` puts positives on
    /// the block edges 0, 255, 256 and n − 1, and `saturate == 0` makes
    /// every item a positive (nothing left to scan).
    #[test]
    fn fused_ecdf_counts_match_independent_exact_scans(
        scores in prop::collection::vec(-10.0f32..10.0, 1..1100),
        positives in prop::collection::btree_set(0u32..1100, 0..60),
        edges in 0u32..16,
        saturate in 0u32..12,
        thresholds in prop::collection::vec(0usize..1100, 1..8),
    ) {
        let n_items = scores.len() as u32;
        let mut positives: std::collections::BTreeSet<u32> =
            positives.into_iter().filter(|&p| p < n_items).collect();
        for (bit, p) in [0, 255, 256, n_items - 1].into_iter().enumerate() {
            if edges >> bit & 1 == 1 && p < n_items {
                positives.insert(p);
            }
        }
        if saturate == 0 {
            positives.extend(0..n_items);
        }
        let positives: Vec<u32> = positives.into_iter().collect();
        let pairs: Vec<(u32, u32)> = positives.iter().map(|&p| (0, p)).collect();
        let train = Interactions::from_pairs(1, n_items, &pairs).unwrap();
        let scorer = FixedScorer::new(1, n_items, scores.clone());
        // Thresholds are item scores (as in the real draw) — including,
        // deliberately, scores of masked positives.
        let thresholds: Vec<f32> = thresholds
            .into_iter()
            .map(|t| scores[t % scores.len()])
            .collect();

        let mut counts = Vec::new();
        let mut scratch = EcdfScratch::default();
        let scanned = fused_ecdf_counts(
            EcdfStrategy::Exact,
            &scorer,
            &train,
            0,
            &thresholds,
            &mut counts,
            &mut scratch,
        );

        // Reference: the pre-fused path — one full rating vector, then one
        // independent scan per threshold with positive correction.
        let mut user_scores = vec![0.0f32; n_items as usize];
        scorer.score_all(0, &mut user_scores);
        let n_neg = n_items as usize - positives.len();
        prop_assert_eq!(scanned, n_neg);
        for (c, &x) in thresholds.iter().enumerate() {
            let all_le = user_scores.iter().filter(|&&s| s <= x).count();
            let pos_le = positives
                .iter()
                .filter(|&&p| user_scores[p as usize] <= x)
                .count();
            // Each threshold must match the independent scan exactly.
            prop_assert_eq!(counts[c] as usize, all_le - pos_le);
        }
    }

    /// The subsampled pass scans the fixed stride over `I⁻ᵤ`: the strided
    /// reference with the same positive correction as the exact one.
    #[test]
    fn fused_subsample_matches_strided_reference(
        scores in prop::collection::vec(-5.0f32..5.0, 2..300),
        positives in prop::collection::btree_set(0u32..300, 0..30),
        k in 1usize..64,
        t_idx in 0usize..300,
    ) {
        let n_items = scores.len() as u32;
        // Item 0 is always a positive, and always on the stride.
        let positives: Vec<u32> = std::iter::once(0)
            .chain(positives.into_iter().filter(|&p| p > 0 && p < n_items))
            .collect();
        let pairs: Vec<(u32, u32)> = positives.iter().map(|&p| (0, p)).collect();
        let train = Interactions::from_pairs(1, n_items, &pairs).unwrap();
        let scorer = FixedScorer::new(1, n_items, scores.clone());
        let x = scores[t_idx % scores.len()];

        let mut counts = Vec::new();
        let mut scratch = EcdfScratch::default();
        let scanned = fused_ecdf_counts(
            EcdfStrategy::Subsample(k),
            &scorer,
            &train,
            0,
            &[x],
            &mut counts,
            &mut scratch,
        );

        // The strided reference over the full score vector, minus the
        // positives that fall on the stride.
        let stride = scores.len().div_ceil(k);
        let on_stride: Vec<usize> = (0..scores.len()).step_by(stride).collect();
        let all_le = on_stride.iter().filter(|&&i| scores[i] <= x).count();
        let pos_on_stride: Vec<usize> = positives
            .iter()
            .map(|&p| p as usize)
            .filter(|p| p % stride == 0)
            .collect();
        let pos_le = pos_on_stride.iter().filter(|&&p| scores[p] <= x).count();
        prop_assert_eq!(scanned, on_stride.len() - pos_on_stride.len());
        prop_assert_eq!(counts[0] as usize, all_le - pos_le);
        if k >= scores.len() {
            // Degenerates to the exact scan over I⁻ᵤ.
            prop_assert_eq!(scanned, scores.len() - positives.len());
        }
    }

    #[test]
    fn metric_bounds_and_recall_monotonicity(
        ranked_len in 1usize..40,
        relevant in prop::collection::btree_set(0u32..60, 1..20),
    ) {
        let ranked: Vec<u32> = (0..ranked_len as u32).collect();
        let relevant: Vec<u32> = relevant.into_iter().collect();
        let mut prev_recall = 0.0;
        for k in 1..=ranked_len {
            let p = precision_at_k(&ranked, &relevant, k);
            let r = recall_at_k(&ranked, &relevant, k);
            let n = ndcg_at_k(&ranked, &relevant, k);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!((0.0..=1.0).contains(&n));
            prop_assert!(r + 1e-12 >= prev_recall, "recall decreased with k");
            prev_recall = r;
        }
    }
}
