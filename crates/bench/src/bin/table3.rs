//! Regenerates **Table 3**: summary Covering performances of ClaSS and the
//! eight competitors on the benchmark group (TSSB + UTSA) and the
//! data-archive group, plus the §4.3 wins/ties and pairwise comparisons.

use bench::{archive_series, benchmark_series, eval_group, Args};
use competitors::CompetitorKind;
use eval::{mean_ranks, pairwise_wins, rank_matrix, wins_line, AlgoSpec};

fn main() {
    let args = Args::parse();
    let benchmarks = args.quick_split(benchmark_series(&args));
    let archives = args.quick_split(archive_series(&args));

    // Benchmarks: full line-up. Archives: no BOCD (as in the paper, where
    // it "did not finish within days").
    let algos_bench = AlgoSpec::default_lineup(args.window);
    let algos_arch: Vec<AlgoSpec> = algos_bench
        .iter()
        .filter(|a| a.name() != CompetitorKind::Bocd.name())
        .cloned()
        .collect();

    eprintln!(
        "running {} benchmark series x {} algos and {} archive series x {} algos on {} threads...",
        benchmarks.len(),
        algos_bench.len(),
        archives.len(),
        algos_arch.len(),
        args.threads
    );
    let gb = eval_group("benchmarks", &algos_bench, &benchmarks, args.threads);
    let ga = eval_group("archives", &algos_arch, &archives, args.threads);

    println!("# Table 3 — summary Covering performances (benchmarks / data archives)");
    println!("\n## Benchmarks ({} TS)\n", benchmarks.len());
    println!("{}", eval::summary_table(&gb.methods));
    println!("{}", wins_line(&gb.methods));
    println!(
        "\n## Data archives ({} TS, BOCD excluded as in the paper)\n",
        archives.len()
    );
    println!("{}", eval::summary_table(&ga.methods));
    println!("{}", wins_line(&ga.methods));

    // Per-archive ranking (paper §4.3: "ClaSS ranks first in 5 out of 6
    // data archives").
    println!("\n## Per-archive mean ranks (archives group)\n");
    let archive_names: Vec<&str> = {
        let mut names: Vec<&str> = ga.results.iter().map(|r| r.archive).collect();
        names.sort_unstable();
        names.dedup();
        names
    };
    let n_arch_series = archives.len();
    let mut firsts = 0;
    for aname in &archive_names {
        let idx: Vec<usize> = (0..n_arch_series)
            .filter(|&s| ga.results[s].archive == *aname)
            .collect();
        let scores: Vec<Vec<f64>> = ga
            .methods
            .iter()
            .map(|m| idx.iter().map(|&s| m.scores[s]).collect())
            .collect();
        let ranks = mean_ranks(&rank_matrix(&scores));
        let mut order: Vec<usize> = (0..ranks.len()).collect();
        order.sort_by(|&a, &b| ranks[a].partial_cmp(&ranks[b]).unwrap());
        let winner = &ga.methods[order[0]].name;
        if winner == "ClaSS" {
            firsts += 1;
        }
        println!(
            "  {:<10} ({:>3} TS): 1st {} (rank {:.2}), 2nd {} (rank {:.2})",
            aname,
            idx.len(),
            winner,
            ranks[order[0]],
            ga.methods[order[1]].name,
            ranks[order[1]]
        );
    }
    println!(
        "  -> ClaSS ranks first in {firsts} of {} archives (paper: 5 of 6)",
        archive_names.len()
    );

    // Pairwise: ClaSS vs every competitor (paper: >= 77% on benchmarks,
    // >= 69% on archives).
    for (label, group) in [("benchmarks", &gb), ("archives", &ga)] {
        let scores: Vec<Vec<f64>> = group.methods.iter().map(|m| m.scores.clone()).collect();
        let class_idx = group
            .methods
            .iter()
            .position(|m| m.name == "ClaSS")
            .expect("ClaSS present");
        println!("\npairwise win rate of ClaSS on {label}:");
        for (i, m) in group.methods.iter().enumerate() {
            if i != class_idx {
                println!(
                    "  vs {:<14} {:.0}%",
                    m.name,
                    pairwise_wins(&scores, class_idx, i) * 100.0
                );
            }
        }
    }
}
