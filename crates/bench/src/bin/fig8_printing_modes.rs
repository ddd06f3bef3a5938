//! Figure 8: delay behavior of the two printing modes on TPC-H Q7 —
//! UG (Upon Generation, `EnumMIS`) against UP (Upon Pop, `EnumMISHold`).
//! UG prints in bursts; UP paces the output; both finish together with the
//! same result set.
//!
//! Emits CSV: `mode,result_index,elapsed_us`, then a bucketed
//! `mode,bucket_ms,results_in_bucket` summary mirroring the paper's
//! results-per-10ms bars.
//!
//! Flags: `--query` (default 7), `--bucket-ms` (default 10).

use mintri_bench::Args;
use mintri_core::{EnumerationBudget, Query};
use mintri_sgr::PrintMode;
use mintri_workloads::tpch_query;

fn main() {
    let args = Args::parse(&["query", "bucket-ms"]);
    let number = args.get_u64("query", 7) as u8;
    let bucket_ms = args.get_u64("bucket-ms", 10).max(1);
    let q = tpch_query(number);

    println!("mode,result_index,elapsed_us");
    let mut bucketed: Vec<(&str, Vec<usize>)> = Vec::new();
    for (name, mode) in [
        ("UG", PrintMode::UponGeneration),
        ("UP", PrintMode::UponPop),
    ] {
        let outcome = Query::stats()
            .mode(mode)
            .budget(EnumerationBudget::unlimited())
            .run_local(&q.graph)
            .wait();
        let mut buckets: Vec<usize> = Vec::new();
        for r in &outcome.records {
            println!("{},{},{}", name, r.index, r.at.as_micros());
            let b = (r.at.as_millis() as u64 / bucket_ms) as usize;
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        eprintln!(
            "# {name}: {} results in {:.1} ms (Q{number})",
            outcome.records.len(),
            outcome.elapsed.as_secs_f64() * 1e3
        );
        bucketed.push((name, buckets));
    }

    println!("mode,bucket_ms,results_in_bucket");
    for (name, buckets) in bucketed {
        for (i, count) in buckets.iter().enumerate() {
            println!("{},{},{}", name, i as u64 * bucket_ms, count);
        }
    }
}
