//! Runs the entire Section 6 reproduction — every figure and table — and
//! writes the outputs under `results/`. One command to regenerate what
//! the `fig6_pgm_delay` … `fig10_quality_over_time`, `table1_width_stats`
//! and `table2_fill_stats` binaries produce one at a time.
//!
//! Flags: `--out-dir` (default `results`), `--scale` multiplier applied to
//! all default budgets (default 1; the paper's 30-minute runs would be
//! roughly `--scale 900`).

use mintri_bench::{run_budgeted, AlgoChoice, Args};
use mintri_core::{EnumerationBudget, QualityStats, Query};
use mintri_sgr::PrintMode;
use mintri_workloads::pgm::promedas;
use mintri_workloads::{all_queries, random_suite, PgmFamily};
use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let args = Args::parse(&["out-dir", "scale"]);
    let out_dir = args.get_str("out-dir", "results");
    let scale = args.get_u64("scale", 1).max(1);
    fs::create_dir_all(&out_dir)?;

    // Figure 6
    let mut fig6 =
        String::from("algo,family,instance,nodes,edges,results,completed,avg_delay_ms\n");
    for algo in AlgoChoice::BOTH {
        for family in PgmFamily::ALL {
            for inst in family.instances(3, 42) {
                let o = run_budgeted(&inst.graph, algo, 2000 * scale);
                let avg = o
                    .average_delay()
                    .map(|d| d.as_secs_f64() * 1e3)
                    .unwrap_or(f64::NAN);
                let _ = writeln!(
                    fig6,
                    "{},{},{},{},{},{},{},{:.3}",
                    algo.name(),
                    family.name(),
                    inst.name,
                    inst.graph.num_nodes(),
                    inst.graph.num_edges(),
                    o.records.len(),
                    o.completed,
                    avg
                );
            }
        }
    }
    fs::write(format!("{out_dir}/fig6_pgm_delay.csv"), fig6)?;
    eprintln!("fig6 done");

    // Figure 7
    let mut fig7 = String::from("algo,n,p,edges,results,completed,avg_delay_ms\n");
    for algo in AlgoChoice::BOTH {
        for (p, inst) in random_suite(90, 10, 42) {
            let o = run_budgeted(&inst.graph, algo, 800 * scale);
            let avg = o
                .average_delay()
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            let _ = writeln!(
                fig7,
                "{},{},{},{},{},{},{:.3}",
                algo.name(),
                inst.graph.num_nodes(),
                p,
                inst.graph.num_edges(),
                o.records.len(),
                o.completed,
                avg
            );
        }
    }
    fs::write(format!("{out_dir}/fig7_random_delay.csv"), fig7)?;
    eprintln!("fig7 done");

    // Figure 8
    let q7 = mintri_workloads::tpch_query(7);
    let mut fig8 = String::from("mode,result_index,elapsed_us\n");
    for (name, mode) in [
        ("UG", PrintMode::UponGeneration),
        ("UP", PrintMode::UponPop),
    ] {
        let o = Query::stats().mode(mode).run_local(&q7.graph).wait();
        for r in &o.records {
            let _ = writeln!(fig8, "{},{},{}", name, r.index, r.at.as_micros());
        }
    }
    fs::write(format!("{out_dir}/fig8_printing_modes.csv"), fig8)?;
    eprintln!("fig8 done");

    // Figures 9 & 10 (case study)
    let case = promedas(24, 72, 4, 7);
    let o = Query::stats()
        .budget(EnumerationBudget::time(Duration::from_millis(8000 * scale)))
        .run_local(&case)
        .wait();
    let first_w = o.records.first().map(|r| r.width).unwrap_or(0);
    let min_w = o.records.iter().map(|r| r.width).min().unwrap_or(0);
    let mut fig9 = String::from("elapsed_ms,total,min_width_results,leq_w1_results\n");
    let (mut total, mut at_min, mut leq) = (0, 0, 0);
    for r in &o.records {
        total += 1;
        if r.width == min_w {
            at_min += 1;
        }
        if r.width <= first_w {
            leq += 1;
        }
        let _ = writeln!(fig9, "{},{},{},{}", r.at.as_millis(), total, at_min, leq);
    }
    fs::write(format!("{out_dir}/fig9_cumulative.csv"), fig9)?;
    let mut fig10 = String::from("measure,elapsed_ms,value\n");
    for (at, w) in o.running_min(|r| r.width) {
        let _ = writeln!(fig10, "min_width,{},{}", at.as_millis(), w);
    }
    for (at, f) in o.running_min(|r| r.fill) {
        let _ = writeln!(fig10, "min_fill,{},{}", at.as_millis(), f);
    }
    fs::write(format!("{out_dir}/fig10_quality_over_time.csv"), fig10)?;
    eprintln!("fig9/fig10 done");

    // Tables 1 & 2
    for (table, width_table) in [
        ("table1_width_stats.md", true),
        ("table2_fill_stats.md", false),
    ] {
        let mut out = if width_table {
            String::from(
                "| Dataset | #trng | min-w | #<=w1 (%) | %w_down (max) |\n|---|---|---|---|---|\n",
            )
        } else {
            String::from(
                "| Dataset | #trng | min-f | #<=f1 (%) | %f_down (max) |\n|---|---|---|---|---|\n",
            )
        };
        for algo in AlgoChoice::BOTH {
            let _ = writeln!(out, "| **{}** | | | | |", algo.name());
            for family in PgmFamily::ALL {
                let stats: Vec<QualityStats> = family
                    .instances(3, 42)
                    .iter()
                    .filter_map(|inst| run_budgeted(&inst.graph, algo, 1500 * scale).quality())
                    .collect();
                if stats.is_empty() {
                    continue;
                }
                let k = stats.len() as f64;
                let avg = |f: &dyn Fn(&QualityStats) -> f64| stats.iter().map(f).sum::<f64>() / k;
                let (minv, leqv, pctv, maxv) = if width_table {
                    (
                        avg(&|s| s.min_width as f64),
                        avg(&|s| s.num_leq_first_width as f64),
                        avg(&|s| s.width_improvement_pct),
                        stats
                            .iter()
                            .map(|s| s.width_improvement_pct)
                            .fold(0.0, f64::max),
                    )
                } else {
                    (
                        avg(&|s| s.min_fill as f64),
                        avg(&|s| s.num_leq_first_fill as f64),
                        avg(&|s| s.fill_improvement_pct),
                        stats
                            .iter()
                            .map(|s| s.fill_improvement_pct)
                            .fold(0.0, f64::max),
                    )
                };
                let _ = writeln!(
                    out,
                    "| {} ({}) | {:.1} | {:.1} | {:.1} | {:.1} ({:.1}) |",
                    family.name(),
                    stats.len(),
                    avg(&|s| s.num_results as f64),
                    minv,
                    leqv,
                    pctv,
                    maxv
                );
            }
        }
        fs::write(format!("{out_dir}/{table}"), out)?;
    }
    eprintln!("tables done");

    // TPC-H statistics
    let mut tpch = String::from("query,nodes,edges,chordal,minseps,mintri\n");
    for q in all_queries() {
        let seps = mintri_separators::all_minimal_separators(&q.graph).len();
        let count = mintri_core::MinimalTriangulationsEnumerator::new(&q.graph)
            .take(100_000)
            .count();
        let _ = writeln!(
            tpch,
            "Q{},{},{},{},{},{}",
            q.number,
            q.graph.num_nodes(),
            q.graph.num_edges(),
            mintri_chordal::is_chordal(&q.graph),
            seps,
            count
        );
    }
    fs::write(format!("{out_dir}/tpch_stats.csv"), tpch)?;
    eprintln!("tpch done — all outputs in {out_dir}/");
    Ok(())
}
