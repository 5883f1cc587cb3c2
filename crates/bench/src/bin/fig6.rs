//! Regenerates **Figure 6**: total runtime vs average Covering (top left),
//! standalone data throughput (bottom left), and the sliding-window-size
//! sweep of throughput and Covering for ClaSS (right).

use bench::{
    all_series, benchmark_series, eval_group, mean_pct, mean_throughput, total_runtime_secs,
    tuning_split, Args,
};
use class_core::ClassConfig;
use eval::AlgoSpec;

fn main() {
    let args = Args::parse();
    let series = args.quick_split(all_series(&args));
    // BOCD excluded: Figure 6 covers all 592 TS, where BOCD does not finish.
    let algos: Vec<AlgoSpec> = AlgoSpec::default_lineup(args.window)
        .into_iter()
        .filter(|a| a.name() != "BOCD")
        .collect();

    eprintln!(
        "running {} series x {} algos on {} threads...",
        series.len(),
        algos.len(),
        args.threads
    );
    let g = eval_group("all", &algos, &series, args.threads);

    println!("# Figure 6 — runtime vs quality and throughput");
    println!("\n## (top/bottom left) total runtime, avg Covering, mean throughput\n");
    println!("| Method | total runtime (s) | avg Covering (%) | mean throughput (pts/s) |");
    println!("|---|---|---|---|");
    let mut rows: Vec<(String, f64, f64, f64)> = g
        .methods
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                total_runtime_secs(&g.results, &m.name),
                mean_pct(&m.scores),
                mean_throughput(&g.results, &m.name),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (name, rt, cov, tp) in rows {
        println!("| {name} | {rt:.2} | {cov:.1} | {tp:.0} |");
    }

    // Right panels: d-sweep for ClaSS on the tuning split (the paper
    // sweeps 1k..20k on the unscaled data; the laptop profile sweeps the
    // same 10 relative sizes around the scaled default).
    let sweep_series = tuning_split(&benchmark_series(&args));
    println!(
        "\n## (right) ClaSS sliding window size sweep ({} TS)\n",
        sweep_series.len()
    );
    println!("| d | avg Covering (%) | mean throughput (pts/s) |");
    println!("|---|---|---|");
    let base = args.window;
    for mult in [1usize, 2, 4, 6, 8, 10, 13, 16, 20] {
        let d = base * mult / 10;
        if d < 200 {
            continue;
        }
        let algo = vec![AlgoSpec::Class(ClassConfig::with_window_size(d))];
        let g = eval_group("sweep", &algo, &sweep_series, args.threads);
        println!(
            "| {d} | {:.1} | {:.0} |",
            mean_pct(&g.methods[0].scores),
            mean_throughput(&g.results, "ClaSS")
        );
    }
}
