//! Golden digest of the streaming k-NN index: pins `StreamingKnn` bit for
//! bit, so a rewrite of its selection or insertion loops cannot change a
//! neighbour list, a tie order, a score or a journal event unnoticed.
//!
//! Every stream is integer-valued: with integer inputs every sum and dot
//! product is exact, so reassociated reductions give identical bits and
//! the same digests hold under every kernel backend. Run it on each one
//! with `CLASS_SIMD=scalar|autovec|avx2 cargo test -p class-core --release
//! --test knn_golden`.

use class_core::{KnnConfig, KnnEvent, Similarity, SplitMix64, StreamingKnn};

/// Points fed per stream: long enough for several window turnovers and for
/// a NaN to enter, poison and leave the window.
const N: usize = 400;

/// `(d, w)` pairs. The eligible range of the newest row has
/// `d - w + 1 - ceil(1.5 w)` slots: 81 and 53 (not multiples of 8) and 5
/// (shorter than one 8-slot chunk).
const SIZES: [(usize, usize); 3] = [(100, 8), (67, 6), (24, 8)];

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
fn streams() -> [Vec<f64>; 4] {
    const WAVE: [f64; 8] = [0.0, 3.0, 5.0, 3.0, 0.0, -3.0, -5.0, -3.0];
    let periodic = (0..N)
        .map(|t| {
            if t < N / 2 {
                WAVE[t % 8]
            } else {
                (t % 5) as f64 * 2.0 - 4.0
            }
        })
        .collect();
    let noise = |seed| {
        let mut rng = SplitMix64::new(seed);
        (0..N)
            .map(|_| rng.next_below(21) as f64 - 10.0)
            .collect::<Vec<_>>()
    };
    let mut nan_burst = noise(11);
    for x in &mut nan_burst[150..154] {
        *x = f64::NAN;
    }
    let flatline = (0..N)
        .map(|t| if t < 60 { WAVE[t % 8] } else { 5.0 })
        .collect();
    [periodic, noise(7), nan_burst, flatline]
}

/// Hashes, for one index fed one stream: the journal events and the live
/// `latest_scores` after every update, then every live row's neighbour ids
/// and score bits at the end.
fn digest_stream(h: &mut Fnv, cfg: KnnConfig, xs: &[f64]) {
    let mut knn = StreamingKnn::new(cfg);
    let mut cursor = knn.events_total();
    for &x in xs {
        if !knn.update(x) {
            continue;
        }
        for ev in knn.events_since(cursor).expect("journal keeps one update") {
            match ev {
                KnnEvent::RowCreated { sid } => {
                    h.word(1);
                    h.int(sid);
                }
                KnnEvent::EdgeAdded { owner, target } => {
                    h.word(2);
                    h.int(owner);
                    h.int(target);
                }
                KnnEvent::EdgeReplaced {
                    owner,
                    target,
                    evicted,
                } => {
                    h.word(3);
                    h.int(owner);
                    h.int(target);
                    h.int(evicted);
                }
            }
        }
        cursor = knn.events_total();
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

fn digest(similarity: Similarity, k: usize, update_existing: bool) -> u64 {
    let mut h = Fnv::new();
    for xs in streams() {
        for (d, w) in SIZES {
            let cfg = KnnConfig {
                similarity,
                update_existing,
                ..KnnConfig::new(d, w, k)
            };
            digest_stream(&mut h, cfg, &xs);
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

#[test]
fn streaming_knn_matches_golden_digest() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(sim, k, upd, want)| {
            let got = digest(sim, k, upd);
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
