//! Regenerates **Figure 5**: Covering mean-rank critical-difference
//! diagrams (top) and score box plots (bottom) for the benchmark and
//! data-archive groups.

use bench::{archive_series, benchmark_series, eval_group, Args};
use competitors::CompetitorKind;
use eval::{box_plots, cd_diagram, AlgoSpec};

fn main() {
    let args = Args::parse();
    let benchmarks = args.quick_split(benchmark_series(&args));
    let archives = args.quick_split(archive_series(&args));
    let algos_bench = AlgoSpec::default_lineup(args.window);
    let algos_arch: Vec<AlgoSpec> = algos_bench
        .iter()
        .filter(|a| a.name() != CompetitorKind::Bocd.name())
        .cloned()
        .collect();

    eprintln!("running evaluation on {} threads...", args.threads);
    let gb = eval_group("benchmarks", &algos_bench, &benchmarks, args.threads);
    let ga = eval_group("archives", &algos_arch, &archives, args.threads);

    println!("# Figure 5 — Covering ranks and distributions");
    println!(
        "\n## Benchmarks ({} TS): critical-difference analysis\n",
        benchmarks.len()
    );
    println!("{}", cd_diagram(&gb.methods));
    println!("## Benchmarks: Covering box plots\n");
    println!("{}", box_plots(&gb.methods));
    println!(
        "\n## Data archives ({} TS): critical-difference analysis\n",
        archives.len()
    );
    println!("{}", cd_diagram(&ga.methods));
    println!("## Data archives: Covering box plots\n");
    println!("{}", box_plots(&ga.methods));
}
