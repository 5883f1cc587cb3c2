//! The **early streaming segmentation study** the paper proposes as future
//! work (§4.5: "a benchmark study should be conducted to quantitatively
//! evaluate early segmentation"): for every ground-truth change point,
//! measure how many observations each method needs before localising it,
//! together with detection rates and false alarms.

use bench::{benchmark_series, Args};
use eval::{delay_stats, run_timed, AlgoSpec};

fn main() {
    let args = Args::parse();
    let series = args.quick_split(benchmark_series(&args));
    let algos = AlgoSpec::default_lineup(args.window);
    println!("# Early STSS study (paper §4.5 future work)");
    println!(
        "({} benchmark series; tolerance = 2x annotated width per series)\n",
        series.len()
    );
    println!(
        "| Method | detection rate (%) | mean delay (pts) | median delay | false alarms/series |"
    );
    println!("|---|---|---|---|---|");
    for algo in &algos {
        // Parallelise across series (each run is single-threaded).
        let next = std::sync::atomic::AtomicUsize::new(0);
        let collected: std::sync::Mutex<Vec<(f64, Option<f64>, usize)>> =
            std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..args.threads.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= series.len() {
                        break;
                    }
                    let s = &series[i];
                    let mut seg = algo.instantiate(s);
                    let reports = run_timed(seg.as_mut(), &s.values);
                    let tol = (2 * s.width) as u64;
                    let stats = delay_stats(&s.change_points, &reports, tol);
                    collected.lock().unwrap().push((
                        stats.detection_rate(),
                        stats.mean_delay(),
                        stats.false_alarms,
                    ));
                });
            }
        });
        let collected = collected.into_inner().unwrap();
        let mut rates = Vec::new();
        let mut delays: Vec<f64> = Vec::new();
        let mut false_alarms = 0usize;
        for (rate, delay, fa) in collected {
            rates.push(rate);
            if let Some(d) = delay {
                delays.push(d);
            }
            false_alarms += fa;
        }
        let rate = rates.iter().sum::<f64>() / rates.len().max(1) as f64 * 100.0;
        let mean_delay = if delays.is_empty() {
            f64::NAN
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        let median_delay = {
            let mut d = delays.clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            if d.is_empty() {
                f64::NAN
            } else {
                d[d.len() / 2]
            }
        };
        println!(
            "| {} | {rate:.0} | {mean_delay:.0} | {median_delay:.0} | {:.2} |",
            algo.name(),
            false_alarms as f64 / series.len() as f64
        );
    }
    println!("\n(the paper's Figure 9 anecdote: ClaSS alerts after ~2 heart beats,");
    println!("FLOSS after ~3, Window misses — the study quantifies this over the corpus)");
}
