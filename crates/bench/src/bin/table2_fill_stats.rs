//! Table 2: fill statistics of the generated triangulations per dataset
//! family and triangulation backend — #trng, min-f, #≤f1 (%), %f↓ (max) —
//! the fill-measure counterpart of Table 1.
//!
//! Flags: `--budget-ms` (default 1000), `--instances` (default 3),
//! `--seed`, `--algo`.

use mintri_bench::{run_budgeted, AlgoChoice, Args};
use mintri_core::QualityStats;
use mintri_workloads::PgmFamily;

fn main() {
    let args = Args::parse(&["budget-ms", "instances", "seed", "algo"]);
    let budget_ms = args.get_u64("budget-ms", 1000);
    let instances = args.get_usize("instances", 3);
    let seed = args.get_u64("seed", 42);
    let algos = AlgoChoice::parse_list(&args.get_str("algo", "both"));

    println!("| Dataset | #trng | min-f | #<=f1 (%) | %f_down (max) |");
    println!("|---|---|---|---|---|");
    for algo in algos {
        println!("| **{}** | | | | |", algo.name());
        for family in PgmFamily::ALL {
            let stats: Vec<QualityStats> = family
                .instances(instances, seed)
                .iter()
                .filter_map(|inst| run_budgeted(&inst.graph, algo, budget_ms).quality())
                .collect();
            if stats.is_empty() {
                continue;
            }
            let k = stats.len() as f64;
            let avg = |f: &dyn Fn(&QualityStats) -> f64| stats.iter().map(f).sum::<f64>() / k;
            let trng = avg(&|s| s.num_results as f64);
            let min_f = avg(&|s| s.min_fill as f64);
            let leq = avg(&|s| s.num_leq_first_fill as f64);
            let leq_pct = avg(&|s| 100.0 * s.num_leq_first_fill as f64 / s.num_results as f64);
            let f_down = avg(&|s| s.fill_improvement_pct);
            let f_down_max = stats
                .iter()
                .map(|s| s.fill_improvement_pct)
                .fold(0.0f64, f64::max);
            println!(
                "| {} ({}) | {:.1} | {:.1} | {:.1} ({:.1}%) | {:.1} ({:.1}) |",
                family.name(),
                stats.len(),
                trng,
                min_f,
                leq,
                leq_pct,
                f_down,
                f_down_max
            );
        }
    }
}
