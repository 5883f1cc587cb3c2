//! Heap footprint of the per-stream ClaSS state, counted by a global
//! allocator that tallies the live bytes of the calling thread.
//!
//! Every stream of the serving engine holds one `StreamingKnn` (inside its
//! `ClassSegmenter`), so its size limits how many streams one shard
//! serves. The pins sit about 5 % above the measured bytes: a sliding
//! buffer that allocates a second copy of its capacity again, or a moment
//! column the measure never reads, exceeds them.

#![allow(unsafe_code)] // the counting allocator forwards to `System`

use class_core::knn::{KnnConfig, StreamingKnn};
use class_core::similarity::Similarity;
use class_core::{ClassConfig, ClassSegmenter, SplitMix64, StreamingSegmenter, WidthSelection};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// `System`, plus a tally of each thread's live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; the tally allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract holds for the same layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `realloc` contract holds for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The value `build` returns and the heap bytes it still holds.
fn heap_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let value = build();
    let after = LIVE.with(Cell::get);
    (
        value,
        usize::try_from(after - before).expect("net heap growth"),
    )
}

fn assert_within(what: &str, bytes: usize, pin: usize) {
    println!("{what}: {bytes} B (pin {pin} B)");
    assert!(
        bytes <= pin,
        "{what} holds {bytes} B of heap, pinned at {pin} B"
    );
}

/// `(d, w)` of the `fleet-inproc` streams and of the paper's configuration.
const SHAPES: [(usize, usize); 2] = [(500, 25), (10_000, 41)];

#[test]
fn streaming_knn_allocates_only_the_columns_its_measure_reads() {
    // Pins per shape, in `SHAPES` order: Pearson, Euclidean, CID. The
    // Pearson pins are the caps the fleet and paper shapes are held to.
    let pins: [[usize; 3]; 2] = [[70_000, 67_000, 72_000], [1_450_000, 1_400_000, 1_500_000]];
    for (&(d, w), pins) in SHAPES.iter().zip(pins) {
        for (sim, pin) in [Similarity::Pearson, Similarity::Euclidean, Similarity::Cid]
            .into_iter()
            .zip(pins)
        {
            let cfg = KnnConfig {
                similarity: sim,
                ..KnnConfig::new(d, w, 3)
            };
            let (knn, bytes) = heap_of(|| StreamingKnn::new(cfg));
            assert_within(
                &format!("StreamingKnn::new({sim:?}, d = {d}, w = {w})"),
                bytes,
                pin,
            );
            drop(knn);
        }
    }
}

#[test]
fn class_segmenter_holds_its_footprint_after_30k_points() {
    // Pins per shape, in `SHAPES` order.
    let pins = [84_000, 1_680_000];
    for (&(d, w), pin) in SHAPES.iter().zip(pins) {
        let mut cfg = ClassConfig::with_window_size(d);
        cfg.width = WidthSelection::Fixed(w);
        // A sine whose period changes every 4000 points, with noise.
        let mut rng = SplitMix64::new(7);
        let xs: Vec<f64> = (0..30_000)
            .map(|i| {
                let period = [20.0, 33.0, 47.0][i / 4000 % 3];
                (i as f64 * std::f64::consts::TAU / period).sin() + 0.1 * rng.next_f64()
            })
            .collect();
        let mut cps = Vec::with_capacity(xs.len());
        let (seg, bytes) = heap_of(|| {
            let mut seg = ClassSegmenter::new(cfg);
            for &x in &xs {
                seg.step(x, &mut cps);
            }
            seg
        });
        assert_within(
            &format!("ClassSegmenter (Pearson, d = {d}, w = {w}) after 30k points"),
            bytes,
            pin,
        );
        drop(seg);
    }
}
