//! Differential tests of multivariate serving: a fused
//! [`MultivariateClass`] registered as **one** engine stream must be
//! exactly reproducible from the votes of stand-alone per-channel
//! [`ClassSegmenter`]s replayed through the serving engine (block
//! policy, lossless rings) and fed into a fresh [`VoteFuser`]. This pins
//! the whole chain — interleaved ring transport, frame reassembly in the
//! operator, per-channel seed derivation, and the fusion state machine —
//! to exact equality, not a tolerance.

use class_core::stats::SplitMix64;
use class_core::{
    ClassConfig, ClassSegmenter, MultivariateClass, MultivariateConfig, VoteFuser, WidthSelection,
};
use stream_engine::{
    interleave_channels, serve, Backpressure, EngineConfig, MultivariateSegmenterOperator, Record,
    RingConfig, SegmenterOperator,
};

const N_CHANNELS: usize = 3;

/// Channels 0 and 1 change regime at `cp`; channel 2 is pure noise.
fn three_channel_stream(n: usize, cp: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed);
    let mut channels: Vec<Vec<f64>> = (0..N_CHANNELS).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let f = if i < cp { 0.15 } else { 0.45 };
        channels[0].push((i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5));
        channels[1].push((i as f64 * f * 1.1).cos() + 0.05 * (rng.next_f64() - 0.5));
        channels[2].push(rng.next_f64() - 0.5);
    }
    channels
}

fn base_cfg() -> ClassConfig {
    let mut c = ClassConfig::with_window_size(1500);
    c.width = WidthSelection::Fixed(30);
    c.log10_alpha = -12.0;
    c
}

/// Serves the fused multivariate segmenter as one engine stream over a
/// deliberately tiny ring (the interleaved feed must survive real
/// backpressure) and returns its output records in emission order.
fn serve_fused(channels: &[Vec<f64>], cfg: &MultivariateConfig) -> Vec<Record<u64>> {
    let interleaved = interleave_channels(channels);
    let config = EngineConfig {
        shards: 1,
        ring: RingConfig::new(64, Backpressure::Block),
    };
    let cfg = cfg.clone();
    let (mut results, ()) = serve(config, move |engine| {
        let mut handle = engine.register(move || {
            MultivariateSegmenterOperator::new(MultivariateClass::new(cfg, N_CHANNELS))
        });
        for v in interleaved {
            handle.push(v).expect("engine alive");
        }
    });
    results.remove(0).output
}

/// Serves one stand-alone `ClassSegmenter` per channel (each built from
/// the multivariate config's own per-channel derivation) as independent
/// engine streams and returns each channel's timed votes.
fn serve_per_channel(channels: &[Vec<f64>], cfg: &MultivariateConfig) -> Vec<Vec<Record<u64>>> {
    let config = EngineConfig {
        shards: 2,
        ring: RingConfig::new(64, Backpressure::Block),
    };
    let (results, ()) = serve(config, |engine| {
        let handles: Vec<_> = (0..N_CHANNELS)
            .map(|i| {
                let chan_cfg = cfg.channel_config(i);
                engine.register(move || SegmenterOperator::new(ClassSegmenter::new(chan_cfg)))
            })
            .collect();
        let slices: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();
        stream_engine::feed_all(handles, &slices).expect("feed completes");
    });
    results.into_iter().map(|r| r.output).collect()
}

/// Replays per-channel votes through a fresh fusion state machine,
/// reproducing what the fused segmenter computed online: at every frame,
/// each channel's votes for that frame arrive in channel order, then the
/// fuser steps; flush-time votes (timestamp `u64::MAX`) arrive after the
/// stream, in channel order, and are fused by `finish`.
fn refuse_votes(votes: &[Vec<Record<u64>>], n_frames: usize, cfg: &MultivariateConfig) -> Vec<u64> {
    let mut fuser = VoteFuser::new(cfg.fusion);
    let mut fused = Vec::new();
    let mut cursors = vec![0usize; votes.len()];
    for t in 0..n_frames as u64 {
        for (c, chan_votes) in votes.iter().enumerate() {
            while cursors[c] < chan_votes.len() && chan_votes[cursors[c]].timestamp == t {
                fuser.vote(c, chan_votes[cursors[c]].value);
                cursors[c] += 1;
            }
        }
        if let Some(cp) = fuser.step(t) {
            fused.push(cp);
        }
    }
    for (c, chan_votes) in votes.iter().enumerate() {
        for rec in &chan_votes[cursors[c]..] {
            assert_eq!(rec.timestamp, u64::MAX, "non-monotonic vote timestamps");
            fuser.vote(c, rec.value);
        }
    }
    fuser.finish(&mut fused);
    fused
}

#[test]
fn fused_stream_equals_per_channel_votes_refused() {
    let channels = three_channel_stream(5000, 2500, 41);
    let cfg = MultivariateConfig::new(base_cfg(), N_CHANNELS);

    let fused_records = serve_fused(&channels, &cfg);
    let fused: Vec<u64> = fused_records.iter().map(|r| r.value).collect();
    let votes = serve_per_channel(&channels, &cfg);
    let replayed = refuse_votes(&votes, channels[0].len(), &cfg);

    assert_eq!(fused, replayed, "fused output not reproducible from votes");
    assert!(
        fused
            .iter()
            .any(|&c| (c as i64 - 2500).unsigned_abs() < 500),
        "shared change missed: {fused:?}"
    );
    // At least two channels voted (quorum-of-2 fired).
    let voting_channels = votes.iter().filter(|v| !v.is_empty()).count();
    assert!(
        voting_channels >= 2,
        "only {voting_channels} channels voted"
    );
}

#[test]
fn fused_stream_is_deterministic_across_engine_runs() {
    let channels = three_channel_stream(4000, 2000, 7);
    let cfg = MultivariateConfig::new(base_cfg(), N_CHANNELS);
    let a = serve_fused(&channels, &cfg);
    let b = serve_fused(&channels, &cfg);
    assert_eq!(a, b);

    // And identical to stepping the segmenter in-process, frame by frame
    // (the engine's interleaved transport adds nothing and loses nothing).
    let mut mv = MultivariateClass::new(cfg, N_CHANNELS);
    let mut local = Vec::new();
    let mut row = vec![0.0; N_CHANNELS];
    for t in 0..channels[0].len() {
        for (c, chan) in channels.iter().enumerate() {
            row[c] = chan[t];
        }
        mv.step(&row, &mut local);
    }
    mv.finalize(&mut local);
    let engine_cps: Vec<u64> = a.iter().map(|r| r.value).collect();
    assert_eq!(engine_cps, local);
}

#[test]
fn frame_timestamps_divide_out_the_channel_count() {
    // A fused stream's step-time reports carry the frame index, not the
    // interleaved record index.
    let channels = three_channel_stream(5000, 2500, 41);
    let cfg = MultivariateConfig::new(base_cfg(), N_CHANNELS);
    let records = serve_fused(&channels, &cfg);
    for rec in &records {
        if rec.timestamp != u64::MAX {
            assert!(
                (rec.timestamp as usize) < channels[0].len(),
                "timestamp {} is not a frame index",
                rec.timestamp
            );
        }
    }
}
