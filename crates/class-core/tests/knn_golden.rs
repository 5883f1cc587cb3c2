//! Golden digest of the streaming k-NN index: pins `StreamingKnn` bit for
//! bit, so a rewrite of its selection or insertion loops cannot change a
//! neighbour list, a tie order, a score or a list edit unnoticed.
//!
//! Most streams are integer-valued, so every sum and dot product on them
//! is exact whatever its order. The real-valued streams
//! ([`real_streams`]) are not: they pin the one summation order that every
//! kernel backend shares for the seeding dot products and the moment sums.
//! The same digests hold under every backend; run it on each one with
//! `CLASS_SIMD=scalar|avx2 cargo test -p class-core --release --test
//! knn_golden`.

use class_core::{KnnConfig, Similarity, SplitMix64, StreamingKnn};

/// Points fed per stream: long enough for several window turnovers and for
/// a NaN to enter, poison and leave the window.
const N: usize = 400;

/// `(d, w)` pairs. The eligible range of the newest row has
/// `d - w + 1 - ceil(1.5 w)` slots: 81 and 53 (not multiples of the 4-slot
/// lane block) and 5 (one short admission block).
const SIZES: [(usize, usize); 3] = [(100, 8), (67, 6), (24, 8)];

/// Points fed per stream at [`BLOCK_SIZES`]: enough for the NaN burst to
/// leave a 300-point window and for more than one and a half turnovers.
const N_BLOCK: usize = 800;

/// `(d, w)` pairs whose eligible ranges span several 64-slot admission
/// blocks: 281 = 4·64 + 25 slots (a ragged last block) and 256 = 4·64
/// (an exact multiple).
const BLOCK_SIZES: [(usize, usize); 2] = [(300, 8), (275, 8)];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, x: i64) {
        self.word(x as u64);
    }

    /// Score bits, with every NaN folded to one pattern: NaN payloads and
    /// signs are not part of the kernel contract.
    fn score(&mut self, x: f64) {
        self.word(if x.is_nan() { f64::NAN } else { x }.to_bits());
    }
}

/// The four integer-valued input regimes: a periodic stream that changes
/// regime, seeded noise, noise with a NaN burst, and a flatline on which
/// every score ties.
fn streams(n: usize) -> [Vec<f64>; 4] {
    const WAVE: [f64; 8] = [0.0, 3.0, 5.0, 3.0, 0.0, -3.0, -5.0, -3.0];
    let periodic = (0..n)
        .map(|t| {
            if t < n / 2 {
                WAVE[t % 8]
            } else {
                (t % 5) as f64 * 2.0 - 4.0
            }
        })
        .collect();
    let noise = |seed| {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| rng.next_below(21) as f64 - 10.0)
            .collect::<Vec<_>>()
    };
    let mut nan_burst = noise(11);
    for x in &mut nan_burst[150..154] {
        *x = f64::NAN;
    }
    let flatline = (0..n)
        .map(|t| if t < 60 { WAVE[t % 8] } else { 5.0 })
        .collect();
    [periodic, noise(7), nan_burst, flatline]
}

/// Hashes, for one index fed one stream: the list edits and the live
/// `latest_scores` of every update, then every live row's neighbour ids and
/// score bits at the end.
///
/// An update edits lists in a fixed order, and the edits are read back from
/// the lists themselves. The new row comes first: its sid, then one added
/// edge per initial neighbour, best first. Then every older row whose list
/// now holds the newest sid, oldest row first: an added edge if the list
/// had room before, else a replaced edge naming the evicted former k-th
/// sid. `prev` keeps one `(len, last sid)` pair per row, indexed by sid.
/// The sids of a list are distinct, so a row's pair changes exactly when
/// the newest sid enters its list: a list with room grows, and a full list
/// loses its last sid.
fn digest_stream(h: &mut Fnv, cfg: KnnConfig, xs: &[f64]) {
    let k = cfg.k;
    let mut knn = StreamingKnn::new(cfg);
    let mut prev: Vec<(usize, i64)> = Vec::with_capacity(xs.len());
    let summary = |sids: &[i64]| (sids.len(), sids.last().copied().unwrap_or(i64::MIN));
    for &x in xs {
        if !knn.update(x) {
            continue;
        }
        let newest_slot = knn.max_subsequences() - 1;
        let newest = knn.sid_of_slot(newest_slot);
        let (sids, _) = knn.neighbors(newest_slot);
        h.word(1);
        h.int(newest);
        for &target in sids {
            h.word(2);
            h.int(newest);
            h.int(target);
        }
        assert_eq!(prev.len() as i64, newest, "one row per sid");
        prev.push(summary(sids));
        for slot in knn.qstart()..newest_slot {
            let (sids, _) = knn.neighbors(slot);
            let owner = newest - (newest_slot - slot) as i64;
            let before = &mut prev[owner as usize];
            if summary(sids) == *before {
                continue;
            }
            assert!(
                sids.contains(&newest),
                "sid {owner}: list edited without an admission"
            );
            if before.0 == k {
                h.word(3);
                h.int(owner);
                h.int(newest);
                h.int(before.1);
            } else {
                h.word(2);
                h.int(owner);
                h.int(newest);
            }
            *before = summary(sids);
        }
        for &s in &knn.latest_scores()[knn.qstart()..knn.max_subsequences()] {
            h.score(s);
        }
    }
    for slot in knn.qstart()..knn.max_subsequences() {
        let (sids, scores) = knn.neighbors(slot);
        h.word(sids.len() as u64);
        for (&sid, &sc) in sids.iter().zip(scores) {
            h.int(sid);
            h.score(sc);
        }
    }
}

/// Two real-valued regimes, whose sums round differently in every other
/// order: seeded noise in [-1, 1), and a noisy sine whose period changes
/// halfway.
fn real_streams(n: usize) -> [Vec<f64>; 2] {
    let mut rng = SplitMix64::new(13);
    let noise: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
    let sine = (0..n)
        .map(|t| {
            let period = if t < n / 2 { 12.0 } else { 7.0 };
            (std::f64::consts::TAU * t as f64 / period).sin() + 0.1 * rng.next_f64()
        })
        .collect();
    [noise, sine]
}

fn digest(
    streams: &[Vec<f64>],
    sizes: &[(usize, usize)],
    similarity: Similarity,
    k: usize,
    update_existing: bool,
) -> u64 {
    let mut h = Fnv::new();
    for xs in streams {
        for &(d, w) in sizes {
            let cfg = KnnConfig {
                similarity,
                update_existing,
                ..KnnConfig::new(d, w, k)
            };
            digest_stream(&mut h, cfg, xs);
        }
    }
    h.0
}

/// Digests captured before the filter-then-insert rewrite of
/// `StreamingKnn::update`.
const GOLDEN: [(Similarity, usize, bool, u64); 18] = [
    (Similarity::Pearson, 1, true, 0x4217_cc63_e899_3f80),
    (Similarity::Pearson, 3, true, 0xb46b_53ce_ddb5_51c3),
    (Similarity::Pearson, 16, true, 0x0a8b_0eb9_6409_119c),
    (Similarity::Pearson, 1, false, 0x116d_0796_65ce_a8de),
    (Similarity::Pearson, 3, false, 0xcfe1_6342_e662_4779),
    (Similarity::Pearson, 16, false, 0xe7e9_2dfd_a06b_c222),
    (Similarity::Euclidean, 1, true, 0x3ef4_9437_ea51_ddd1),
    (Similarity::Euclidean, 3, true, 0xe688_9936_b1c5_3d83),
    (Similarity::Euclidean, 16, true, 0x5e1b_e902_e650_d100),
    (Similarity::Euclidean, 1, false, 0x7b48_49e0_d2c1_c7b0),
    (Similarity::Euclidean, 3, false, 0x1097_a480_75e1_efce),
    (Similarity::Euclidean, 16, false, 0x15fb_ea13_c820_9d17),
    (Similarity::Cid, 1, true, 0x203b_16c4_fec4_baff),
    (Similarity::Cid, 3, true, 0xde77_4e0c_20ed_68cd),
    (Similarity::Cid, 16, true, 0x2b55_51a6_4722_ac55),
    (Similarity::Cid, 1, false, 0x28c0_470d_9059_2e80),
    (Similarity::Cid, 3, false, 0x841a_2fc8_7b9b_afa4),
    (Similarity::Cid, 16, false, 0xf361_2397_782f_62f1),
];

/// Digests at [`BLOCK_SIZES`], captured before the admission filters
/// moved into the Q-step kernels.
const GOLDEN_BLOCKS: [(Similarity, usize, bool, u64); 18] = [
    (Similarity::Pearson, 1, true, 0xb831_7b38_4afb_b68e),
    (Similarity::Pearson, 3, true, 0x84d1_7f97_4fb5_f67f),
    (Similarity::Pearson, 16, true, 0x2c75_f179_47ad_39ac),
    (Similarity::Pearson, 1, false, 0x5da0_5a73_847b_2c49),
    (Similarity::Pearson, 3, false, 0x78fc_8c15_9263_85ee),
    (Similarity::Pearson, 16, false, 0x947e_6a66_a1c1_e6ed),
    (Similarity::Euclidean, 1, true, 0xe0e1_f52d_2f1b_b636),
    (Similarity::Euclidean, 3, true, 0x0a23_c14e_96e9_c798),
    (Similarity::Euclidean, 16, true, 0xb00d_0909_5077_65c5),
    (Similarity::Euclidean, 1, false, 0xa18e_e890_da85_eaae),
    (Similarity::Euclidean, 3, false, 0x128e_1a47_0dd4_6d44),
    (Similarity::Euclidean, 16, false, 0x4194_b292_a81f_e643),
    (Similarity::Cid, 1, true, 0x0842_cd98_dd3f_b058),
    (Similarity::Cid, 3, true, 0xd8e1_0c90_9308_27c4),
    (Similarity::Cid, 16, true, 0x0055_f874_bc14_f2c9),
    (Similarity::Cid, 1, false, 0x3384_b145_c9f2_c29b),
    (Similarity::Cid, 3, false, 0x3de8_12c4_79a1_ccab),
    (Similarity::Cid, 16, false, 0xf7de_19e8_3ea8_657c),
];

/// Digests of [`real_streams`] at [`SIZES`] and [`BLOCK_SIZES`],
/// captured on the AVX2 backend before the plain reductions took its
/// summation order.
const GOLDEN_REAL: [(Similarity, usize, bool, u64); 6] = [
    (Similarity::Pearson, 3, true, 0x498b_6d3d_994e_1372),
    (Similarity::Pearson, 3, false, 0x031a_f586_339a_16c7),
    (Similarity::Euclidean, 3, true, 0x0927_8769_72fc_2e75),
    (Similarity::Euclidean, 3, false, 0xcc33_27ce_b0ad_f8ad),
    (Similarity::Cid, 3, true, 0xea34_b6ca_e6ae_b362),
    (Similarity::Cid, 3, false, 0x6598_9c48_7615_372b),
];

/// Compares every `(measure, k, update_existing)` digest against `table`.
fn check(streams: &[Vec<f64>], sizes: &[(usize, usize)], table: &[(Similarity, usize, bool, u64)]) {
    let mismatches: Vec<String> = table
        .iter()
        .filter_map(|&(sim, k, upd, want)| {
            let got = digest(streams, sizes, sim, k, upd);
            (got != want).then(|| {
                format!("{sim:?} k={k} update_existing={upd}: got {got:#018x}, want {want:#018x}")
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "backend {}:\n{}",
        class_core::simd::active_backend().name(),
        mismatches.join("\n")
    );
}

#[test]
fn streaming_knn_matches_golden_digest() {
    check(&streams(N), &SIZES, &GOLDEN);
}

#[test]
fn streaming_knn_matches_golden_digest_across_blocks() {
    check(&streams(N_BLOCK), &BLOCK_SIZES, &GOLDEN_BLOCKS);
}

#[test]
fn streaming_knn_matches_golden_digest_on_real_values() {
    let sizes = [SIZES.as_slice(), BLOCK_SIZES.as_slice()].concat();
    check(&real_streams(N_BLOCK), &sizes, &GOLDEN_REAL);
}
