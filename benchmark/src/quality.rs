//! Output checks and scores shared by the workloads: Covering, detection
//! delay, closed-loop frame latency, and the wire codec's cost.

use crate::report::ns;
use datasets::AnnotatedSeries;
use std::time::Instant;
use stream_engine::Frame;

/// Records per frame on the wire (and per closed-loop frame in process).
pub const FRAME: usize = 64;

/// Covering of the reported change points against the generator's truth.
pub fn covering(series: &AnnotatedSeries, cps: &[u64]) -> f64 {
    let mut predicted = cps.to_vec();
    predicted.sort_unstable();
    predicted.dedup();
    eval::covering(&series.change_points, &predicted, series.len() as u64)
}

/// Detection delay of each true change point that was found: points from
/// the boundary to the record whose step reported the first change point
/// within `tol` of it. `detections` holds `(record index, change point)`
/// in the order they were reported.
pub fn delays(series: &AnnotatedSeries, detections: &[(u64, u64)], tol: u64) -> Vec<u64> {
    series
        .change_points
        .iter()
        .filter_map(|&truth| {
            detections
                .iter()
                .find(|&&(_, cp)| cp.abs_diff(truth) <= tol)
                .map(|&(at, _)| at.saturating_sub(truth))
        })
        .collect()
}

/// Latencies of closed-loop frames: each run of `FRAME` consecutive step
/// durations is one frame, due when the previous one completed.
pub fn closed_loop_frames(steps: &[u64]) -> impl Iterator<Item = u64> + '_ {
    steps.chunks_exact(FRAME).map(|f| f.iter().sum())
}

/// Mean nanoseconds to encode and to decode one `RECORDS` frame, over
/// the frames the given streams split into. Decoding must return the
/// encoded frame; a mismatch is returned as an error.
pub fn codec_cost(streams: &[&[f64]]) -> Result<(f64, f64), String> {
    let frames: Vec<Frame> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, xs)| {
            xs.chunks(FRAME).map(move |c| Frame::Records {
                stream: k as u32,
                values: c.to_vec(),
            })
        })
        .collect();
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode = ns(t.elapsed());
    let mut decoded = Vec::with_capacity(frames.len());
    let t = Instant::now();
    for b in &bytes {
        decoded.push(Frame::decode(b));
    }
    let decode = ns(t.elapsed());
    for ((frame, b), back) in frames.iter().zip(&bytes).zip(decoded) {
        match back {
            Ok((f, used)) if used == b.len() && &f == frame => {}
            other => return Err(format!("RECORDS frame did not round-trip: {other:?}")),
        }
    }
    let n = frames.len().max(1) as f64;
    Ok((encode as f64 / n, decode as f64 / n))
}
