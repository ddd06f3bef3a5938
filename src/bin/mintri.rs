//! The `mintri` command-line tool: enumerate minimal triangulations and
//! proper tree decompositions of graphs from files.
//!
//! ```text
//! mintri stats        --input g.col [--input-format dimacs|edges|uai] [--format text|json]
//! mintri atoms        --input g.col [--format text|json]
//! mintri triangulate  --input g.col [--algo mcsm|lbtriang|lexm|mindegree] [--format ...]
//! mintri enumerate    --input g.col [--limit K] [--budget-ms T] [--algo ...]
//!                     [--explain] [--threads N]
//!                     [--delivery unordered|deterministic] [--store-dir DIR]
//!                     [--format ...]
//! mintri best-k       --input g.col [--k K] [--by width|fill] [--limit K]
//!                     [--explain] [--budget-ms T]
//!                     [--threads N] [--delivery ...] [--format ...]
//! mintri decompose    --input g.col [--limit K] [--one-per-class true]
//!                     [--explain] [--threads N]
//!                     [--delivery ...] [--format ...]
//! mintri serve        [--addr HOST:PORT] [--threads N] [--max-sessions M]
//!                     [--workers W] [--slow-query-ms T] [--store-dir DIR]
//!                     [--store-budget-mb MB]
//! ```
//!
//! Every enumeration command also takes `--trace`: the query carries a
//! span tree (plan decomposition, per-atom dispatch and timings, first
//! result, drain) back in its outcome — printed human-readable to
//! stderr in text mode, embedded as `outcome.trace` in `--format json`.
//!
//! Every enumeration command builds one typed [`Query`] (task + backend +
//! budget + delivery + threads) and renders its [`Response`] — `--format
//! json` emits the results *and* the outcome (budget, quality, replay,
//! `EnumMIS` counters) as one JSON document on stdout. `--threads N`
//! (N > 1, or 0 for "all cores") executes the query on a `mintri-engine`
//! work-stealing pool; `--delivery deterministic` makes the parallel
//! output order match the single-threaded one. (With `--threads 0` the
//! engine picks: a deterministic run is then sequential, which is
//! already the single-threaded order.)
//!
//! `mintri atoms` prints the clique-minimal-separator decomposition the
//! planning layer enumerates over (components, atoms, separators).
//!
//! `--explain` prints the dispatch the engine actually chose for each
//! atom (replay/hydrate/parallel/sequential/ranked plus the thread
//! grant) to stderr; in `--format json` the same record rides in
//! `outcome.dispatch`. Unknown flags are errors that name the flag, so a
//! typo never falls back to a default silently.
//!
//! Graphs: DIMACS `.col` (default), 0-based edge lists, or UAI network
//! files — select explicitly with `--input-format`. (For compatibility,
//! `--format dimacs|edges|uai` is still accepted as an input format;
//! otherwise `--format` selects the *output* format, `text` or `json`.)
//! Text output goes to stdout; diagnostics to stderr.
//!
//! `mintri serve` boots the HTTP/batch transport (`mintri-serve`) over
//! one shared engine: every remote query hits the same warm sessions
//! and replay caches the library calls do. All JSON — CLI output and
//! the wire — is rendered *and parsed* by `mintri_core::json`, so the
//! documents round-trip.
//!
//! `--store-dir DIR` attaches the persistent warm-state tier
//! (`mintri-store`): completed answer caches, memoized plans and (under
//! `serve`) the graph registry are snapshotted to disk and hydrated
//! back on the next run, so warm state survives restarts and can be
//! shared between replicas pointed at one directory. On an enumeration
//! command it forces the engine path even at `--threads 1` — a
//! one-shot CLI run both benefits from and contributes to the shared
//! tier. `--store-budget-mb` caps the directory; past it new snapshots
//! are skipped (never an error: the tier is a cache).

use mintri::core::json::{graph_summary_json, response_document, JsonObject};
use mintri::core::EnumerationBudget;
use mintri::engine::{Delivery, Engine, EngineConfig, ExecPolicy, Store, StoreConfig};
use mintri::graph::io::{parse_dimacs, parse_edge_list};
use mintri::prelude::*;
use mintri::separators::MinimalSeparatorIter;
use mintri::serve::api::ApiLimits;
use mintri::serve::{ServeConfig, Server};
use mintri::triangulate::{minimal_triangulation, EliminationOrder, LexM};
use mintri::workloads::parse_uai;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!(
            "usage: mintri <stats|atoms|triangulate|enumerate|best-k|decompose> --input FILE [flags]\n       mintri serve [--addr HOST:PORT] [--threads N] [--max-sessions M] [--workers W]"
        );
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&command, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags that take no value (present means `true`).
const SWITCH_FLAGS: &[&str] = &["trace", "explain"];

/// Flags that take a value; with [`SWITCH_FLAGS`], every flag any
/// command reads.
const VALUE_FLAGS: &[&str] = &[
    "input",
    "input-format",
    "format",
    "algo",
    "limit",
    "budget-ms",
    "k",
    "by",
    "one-per-class",
    "threads",
    "delivery",
    "store-dir",
    "store-budget-mb",
    "addr",
    "max-sessions",
    "workers",
    "slow-query-ms",
];

fn parse_flags(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut iter = args.peekable();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
        if !SWITCH_FLAGS.contains(&key) && !VALUE_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = if SWITCH_FLAGS.contains(&key) {
            "true".to_string()
        } else {
            iter.next()
                .ok_or_else(|| format!("missing value for --{key}"))?
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

/// Output rendering selected by `--format` (`text` by default).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Output {
    Text,
    Json,
}

/// The `--format` flag historically selected the *input* file format;
/// those values still route there, everything else is an output format.
fn pick_output(flags: &HashMap<String, String>) -> Result<Output, String> {
    match flags.get("format").map(String::as_str) {
        None | Some("text") | Some("dimacs") | Some("edges") | Some("uai") => Ok(Output::Text),
        Some("json") => Ok(Output::Json),
        Some(other) => Err(format!(
            "unknown --format {other:?} (use text or json; dimacs|edges|uai select the input format)"
        )),
    }
}

fn load_graph(flags: &HashMap<String, String>) -> Result<Graph, String> {
    let path = flags
        .get("input")
        .ok_or_else(|| "--input FILE is required".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let legacy = flags
        .get("format")
        .map(String::as_str)
        .filter(|f| matches!(*f, "dimacs" | "edges" | "uai"));
    let format = flags
        .get("input-format")
        .map(String::as_str)
        .or(legacy)
        .unwrap_or_else(|| {
            if path.ends_with(".uai") {
                "uai"
            } else if path.ends_with(".edges") || path.ends_with(".txt") {
                "edges"
            } else {
                "dimacs"
            }
        });
    match format {
        "dimacs" => parse_dimacs(&text).map_err(|e| e.to_string()),
        "edges" => parse_edge_list(&text).map_err(|e| e.to_string()),
        "uai" => parse_uai(&text),
        other => Err(format!("unknown --input-format {other:?}")),
    }
}

fn pick_triangulator(flags: &HashMap<String, String>) -> Result<Box<dyn Triangulator>, String> {
    Ok(
        match flags.get("algo").map(String::as_str).unwrap_or("mcsm") {
            "mcsm" => Box::new(McsM),
            "lbtriang" => Box::new(LbTriang::min_fill()),
            "lexm" => Box::new(LexM),
            "mindegree" => Box::new(EliminationOrder::min_degree()),
            other => return Err(format!("unknown --algo {other:?}")),
        },
    )
}

fn pick_delivery(flags: &HashMap<String, String>) -> Result<Delivery, String> {
    match flags.get("delivery").map(String::as_str) {
        None | Some("unordered") => Ok(Delivery::Unordered),
        Some("deterministic") => Ok(Delivery::Deterministic),
        Some(other) => Err(format!(
            "unknown --delivery {other:?} (use unordered or deterministic)"
        )),
    }
}

fn pick_threads(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    flags
        .get("threads")
        .map(|s| {
            s.parse()
                .map_err(|_| "--threads must be an integer".to_string())
        })
        .transpose()
}

/// `--threads` → an [`EngineConfig`] for engine-backed execution, or
/// `None` for the zero-setup local path (`--threads 1` and no flag both
/// mean sequential).
fn pick_engine_config(flags: &HashMap<String, String>) -> Result<Option<EngineConfig>, String> {
    let threads = pick_threads(flags)?;
    let delivery = pick_delivery(flags)?;
    match threads {
        None | Some(1) => Ok(None),
        #[cfg(feature = "parallel")]
        Some(n) => Ok(Some(EngineConfig {
            threads: n,
            delivery,
            ..EngineConfig::default()
        })),
        #[cfg(not(feature = "parallel"))]
        Some(_) => {
            let _ = delivery;
            Err("--threads needs the `parallel` feature; rebuild with default features".to_string())
        }
    }
}

fn parse_budget(flags: &HashMap<String, String>) -> Result<EnumerationBudget, String> {
    let limit: Option<usize> = flags
        .get("limit")
        .map(|s| s.parse().map_err(|_| "--limit must be an integer"))
        .transpose()?;
    let budget_ms: Option<u64> = flags
        .get("budget-ms")
        .map(|s| s.parse().map_err(|_| "--budget-ms must be an integer"))
        .transpose()?;
    Ok(EnumerationBudget {
        max_results: limit,
        time_limit: budget_ms.map(Duration::from_millis),
    })
}

/// `--threads` and `--delivery` → the query's [`ExecPolicy`]. An explicit
/// `--threads N` is the query's request too, so a deterministic run on
/// N > 1 threads takes the parallel driver; without the flag (or with
/// 0) the engine picks.
fn pick_policy(flags: &HashMap<String, String>) -> Result<ExecPolicy, String> {
    Ok(ExecPolicy::default()
        .with_threads(pick_threads(flags)?.unwrap_or(0))
        .with_delivery(pick_delivery(flags)?))
}

/// Builds the typed query for one enumeration command — the single place
/// where CLI flags become a request.
fn build_query(command: &str, flags: &HashMap<String, String>) -> Result<Query, String> {
    let query = match command {
        // The enumerate command's output is the per-result record CSV
        // (index, elapsed, width, fill) — the instrumented scan.
        "enumerate" => Query::stats(),
        "best-k" => {
            let k: usize = flags
                .get("k")
                .map(|s| s.parse().map_err(|_| "--k must be an integer"))
                .transpose()?
                .unwrap_or(1);
            let cost = match flags.get("by").map(String::as_str).unwrap_or("width") {
                "width" => CostMeasure::Width,
                "fill" => CostMeasure::Fill,
                other => return Err(format!("unknown --by {other:?} (use width or fill)")),
            };
            Query::best_k(k, cost)
        }
        "decompose" => {
            let one_per_class = flags
                .get("one-per-class")
                .map(|s| s == "true" || s == "1")
                .unwrap_or(false);
            Query::decompose(if one_per_class {
                TdEnumerationMode::OnePerClass
            } else {
                TdEnumerationMode::AllDecompositions
            })
        }
        other => return Err(format!("not an enumeration command: {other:?}")),
    };
    Ok(query
        .triangulator(pick_triangulator(flags)?)
        .budget(parse_budget(flags)?)
        .policy(pick_policy(flags)?)
        .traced(flags.contains_key("trace")))
}

/// `--trace` text rendering: the span tree goes to stderr (stdout stays
/// machine-readable). JSON output needs nothing here — the trace rides
/// inside the outcome document.
fn print_trace(outcome: &mintri::core::query::QueryOutcome, output: Output) {
    if output == Output::Text {
        if let Some(trace) = &outcome.trace {
            eprint!("{}", trace.render_text());
        }
    }
}

/// `--explain` text rendering: the per-atom dispatch record — how the
/// engine actually served each atom (replay/hydrate/parallel/sequential/
/// ranked) and the thread grant — to stderr. JSON output carries the
/// same data as `outcome.dispatch`.
fn print_explain(
    outcome: &mintri::core::query::QueryOutcome,
    flags: &HashMap<String, String>,
    output: Output,
) {
    if output != Output::Text || !flags.contains_key("explain") {
        return;
    }
    if outcome.dispatch.is_empty() {
        eprintln!("dispatch: local (no engine)");
        return;
    }
    for d in &outcome.dispatch {
        eprintln!(
            "atom {}: {} nodes, {} thread{}, {}",
            d.index,
            d.nodes,
            d.threads,
            if d.threads == 1 { "" } else { "s" },
            d.kind.name()
        );
    }
}

/// `--store-dir` / `--store-budget-mb` → the persistent warm-state
/// tier, or `None` to run RAM-only.
fn pick_store(flags: &HashMap<String, String>) -> Result<Option<Arc<Store>>, String> {
    let Some(dir) = flags.get("store-dir") else {
        return Ok(None);
    };
    let budget_mb: Option<u64> = flags
        .get("store-budget-mb")
        .map(|s| {
            s.parse()
                .map_err(|_| "--store-budget-mb must be an integer")
        })
        .transpose()?;
    let config = StoreConfig {
        max_disk_bytes: budget_mb.map(|mb| mb.saturating_mul(1024 * 1024)),
        ..StoreConfig::at(dir)
    };
    let store = Store::open(config).map_err(|e| format!("cannot open --store-dir {dir}: {e}"))?;
    Ok(Some(Arc::new(store)))
}

/// Executes a query: through an [`Engine`] when `--threads` asks for
/// parallelism or `--store-dir` attaches the disk tier, otherwise on
/// the calling thread with zero setup.
fn execute<'g>(
    query: Query,
    g: &'g Graph,
    flags: &HashMap<String, String>,
) -> Result<Response<'g>, String> {
    let store = pick_store(flags)?;
    Ok(match (pick_engine_config(flags)?, store) {
        (Some(config), Some(store)) => Engine::with_store(config, store).run(g, query),
        (Some(config), None) => Engine::with_config(config).run(g, query),
        // The store only pays off through the engine's session +
        // replay machinery, so its presence forces the engine path
        // even for a sequential run.
        (None, Some(store)) => Engine::with_store(
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            store,
        )
        .run(g, query),
        (None, None) => query.run_local(g),
    })
}

fn run(command: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    if command == "serve" {
        return cmd_serve(flags);
    }
    let g = load_graph(flags)?;
    let output = pick_output(flags)?;

    match command {
        "stats" => cmd_stats(&g, output),
        "atoms" => cmd_atoms(&g, output),
        "triangulate" => cmd_triangulate(&g, flags, output),
        "enumerate" => cmd_enumerate(&g, flags, output),
        "best-k" => cmd_best_k(&g, flags, output),
        "decompose" => cmd_decompose(&g, flags, output),
        other => Err(format!(
            "unknown command {other:?} (use stats, atoms, triangulate, enumerate, best-k, decompose or serve)"
        )),
    }
}

/// `mintri serve`: the HTTP/batch transport over one shared [`Engine`].
/// `--threads` configures the engine's worker pool (per-query
/// parallelism), `--workers` the connection workers, `--max-sessions`
/// the warm-session LRU cap, `--slow-query-ms` the threshold for the
/// slow-query log surfaced under `/v1/stats`, and `--store-dir` (with
/// an optional `--store-budget-mb` cap) the persistent warm-state tier
/// replay caches and the graph registry survive restarts in.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        flags
            .get(key)
            .map(|s| s.parse().map_err(|_| format!("--{key} must be an integer")))
            .unwrap_or(Ok(default))
    };
    let mut engine_config = EngineConfig {
        max_sessions: parse_usize("max-sessions", EngineConfig::default().max_sessions)?,
        ..EngineConfig::default()
    };
    engine_config.threads = parse_usize("threads", engine_config.threads)?;
    let api = ApiLimits {
        slow_query_ms: parse_usize("slow-query-ms", ApiLimits::default().slow_query_ms as usize)?
            as u64,
        ..ApiLimits::default()
    };
    let config = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| ServeConfig::default().addr),
        workers: parse_usize("workers", ServeConfig::default().workers)?,
        api,
        ..ServeConfig::default()
    };
    let engine = Arc::new(match pick_store(flags)? {
        Some(store) => Engine::with_store(engine_config, store),
        None => Engine::with_config(engine_config),
    });
    let server = Server::bind(config, engine).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("mintri-serve listening on http://{addr}");
    eprintln!("endpoints: GET /healthz | GET /v1/stats | GET /v1/metrics | POST /v1/graphs | POST /v1/query | POST /v1/batch");
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// `mintri atoms`: the decomposition the planning layer runs over —
/// connected components, clique-minimal-separator atoms (flagged
/// chordal/trivial when they need no enumeration) and the separators the
/// split used. Vertices are printed 1-based, matching the DIMACS-style
/// output of the other commands.
fn cmd_atoms(g: &Graph, output: Output) -> Result<(), String> {
    let d = atom_decomposition(g);
    let one_based =
        |s: &NodeSet| -> Vec<String> { s.iter().map(|v| (v + 1).to_string()).collect() };
    match output {
        Output::Text => {
            println!("components: {}", d.components.len());
            println!("atoms: {}", d.atoms.len());
            println!("clique separators: {}", d.separators.len());
            for a in &d.atoms {
                let (sub, _) = g.induced_subgraph(a);
                let kind = if is_chordal(&sub) {
                    "chordal"
                } else {
                    "enumerated"
                };
                println!("a [{}] {}", one_based(a).join(" "), kind);
            }
            for s in &d.separators {
                println!("s [{}]", one_based(s).join(" "));
            }
        }
        Output::Json => {
            let set_json = |s: &NodeSet| format!("[{}]", one_based(s).join(","));
            let sets_json = |ss: &[NodeSet]| {
                format!(
                    "[{}]",
                    ss.iter().map(set_json).collect::<Vec<_>>().join(",")
                )
            };
            let atoms: Vec<String> = d
                .atoms
                .iter()
                .map(|a| {
                    let (sub, _) = g.induced_subgraph(a);
                    format!(
                        "{{\"vertices\":{},\"chordal\":{}}}",
                        set_json(a),
                        is_chordal(&sub)
                    )
                })
                .collect();
            let mut doc = JsonObject::new();
            doc.str("command", "atoms");
            doc.raw("graph", graph_summary_json(g));
            doc.raw("components", sets_json(&d.components));
            doc.raw("atoms", format!("[{}]", atoms.join(",")));
            doc.raw("clique_separators", sets_json(&d.separators));
            println!("{}", doc.finish());
        }
    }
    Ok(())
}

fn cmd_stats(g: &Graph, output: Output) -> Result<(), String> {
    let cap = 10_000;
    let seps: Vec<_> = MinimalSeparatorIter::new(g).take(cap).collect();
    let truncated = seps.len() == cap;
    let chordal = is_chordal(g);
    match output {
        Output::Text => {
            println!("nodes: {}", g.num_nodes());
            println!("edges: {}", g.num_edges());
            println!("chordal: {chordal}");
            let more = if truncated { "+" } else { "" };
            println!("minimal separators: {}{}", seps.len(), more);
            if chordal {
                println!("treewidth: {}", treewidth_of_chordal(g));
            } else {
                let t = minimal_triangulation(g, &McsM);
                println!("mcs-m width (treewidth upper bound): {}", t.width());
                println!("mcs-m fill: {}", t.fill_count());
            }
        }
        Output::Json => {
            let mut doc = JsonObject::new();
            doc.str("command", "stats");
            doc.raw("graph", graph_summary_json(g));
            doc.bool("chordal", chordal);
            doc.usize("minimal_separators", seps.len());
            doc.bool("minimal_separators_truncated", truncated);
            if chordal {
                doc.usize("treewidth", treewidth_of_chordal(g));
            } else {
                let t = minimal_triangulation(g, &McsM);
                doc.usize("mcsm_width", t.width());
                doc.usize("mcsm_fill", t.fill_count());
            }
            println!("{}", doc.finish());
        }
    }
    Ok(())
}

fn cmd_triangulate(
    g: &Graph,
    flags: &HashMap<String, String>,
    output: Output,
) -> Result<(), String> {
    let t = pick_triangulator(flags)?;
    let tri = minimal_triangulation(g, t.as_ref());
    match output {
        Output::Text => {
            println!("c minimal triangulation by {}", t.name());
            println!("c width {} fill {}", tri.width(), tri.fill_count());
            for (u, v) in tri.fill {
                println!("f {} {}", u + 1, v + 1);
            }
        }
        Output::Json => {
            let mut doc = JsonObject::new();
            doc.str("command", "triangulate");
            doc.raw("graph", graph_summary_json(g));
            doc.str("algo", t.name());
            doc.usize("width", tri.width());
            doc.usize("fill_count", tri.fill_count());
            // 1-based endpoints, matching the DIMACS-style text output
            let fill: Vec<String> = tri
                .fill
                .iter()
                .map(|(u, v)| format!("[{},{}]", u + 1, v + 1))
                .collect();
            doc.raw("fill", format!("[{}]", fill.join(",")));
            println!("{}", doc.finish());
        }
    }
    Ok(())
}

fn cmd_enumerate(g: &Graph, flags: &HashMap<String, String>, output: Output) -> Result<(), String> {
    let query = build_query("enumerate", flags)?;
    let mut response = execute(query, g, flags)?;
    response.by_ref().for_each(drop);
    let outcome = response.outcome();
    match output {
        Output::Text => {
            println!("index,elapsed_us,width,fill");
            for r in &outcome.records {
                println!("{},{},{},{}", r.index, r.at.as_micros(), r.width, r.fill);
            }
            eprintln!(
                "{} minimal triangulations{}{} in {:.1} ms",
                outcome.records.len(),
                if outcome.completed { " (complete)" } else { "" },
                if outcome.replayed { " (replay)" } else { "" },
                outcome.elapsed.as_secs_f64() * 1e3
            );
        }
        Output::Json => {
            let results: Vec<String> = outcome
                .records
                .iter()
                .map(|r| {
                    format!(
                        "{{\"index\":{},\"elapsed_us\":{},\"width\":{},\"fill\":{}}}",
                        r.index,
                        r.at.as_micros(),
                        r.width,
                        r.fill
                    )
                })
                .collect();
            println!("{}", response_document("enumerate", g, &results, &outcome));
        }
    }
    print_trace(&outcome, output);
    print_explain(&outcome, flags, output);
    Ok(())
}

fn cmd_best_k(g: &Graph, flags: &HashMap<String, String>, output: Output) -> Result<(), String> {
    let by = flags.get("by").cloned().unwrap_or_else(|| "width".into());
    let query = build_query("best-k", flags)?;
    let mut response = execute(query, g, flags)?;
    let best = response.triangulations();
    let outcome = response.outcome();
    match output {
        Output::Text => {
            println!("rank,width,fill");
            for (i, t) in best.iter().enumerate() {
                println!("{},{},{}", i, t.width(), t.fill_count());
            }
            eprintln!(
                "{} best-{by} triangulations ({} scanned{})",
                best.len(),
                outcome.scanned,
                if outcome.replayed { ", replayed" } else { "" }
            );
        }
        Output::Json => {
            let results: Vec<String> = best
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    format!(
                        "{{\"rank\":{},\"width\":{},\"fill\":{}}}",
                        i,
                        t.width(),
                        t.fill_count()
                    )
                })
                .collect();
            println!("{}", response_document("best-k", g, &results, &outcome));
        }
    }
    print_trace(&outcome, output);
    print_explain(&outcome, flags, output);
    Ok(())
}

fn cmd_decompose(g: &Graph, flags: &HashMap<String, String>, output: Output) -> Result<(), String> {
    let query = build_query("decompose", flags)?;
    let mut response = execute(query, g, flags)?;
    match output {
        Output::Text => {
            let mut count = 0usize;
            for (i, item) in response.by_ref().enumerate() {
                let Some(d) = item.into_decomposition() else {
                    continue;
                };
                println!("d {} width {} bags {}", i, d.width(), d.num_bags());
                for bag in &d.bags {
                    let items: Vec<String> = bag.iter().map(|v| (v + 1).to_string()).collect();
                    println!("b {}", items.join(" "));
                }
                for (a, b) in &d.edges {
                    println!("t {} {}", a, b);
                }
                count += 1;
            }
            eprintln!("{count} proper tree decompositions printed");
            let outcome = response.outcome();
            print_trace(&outcome, output);
            print_explain(&outcome, flags, output);
        }
        Output::Json => {
            let ds = response.decompositions();
            let outcome = response.outcome();
            let results: Vec<String> = ds
                .iter()
                .map(|d| {
                    // 1-based vertices, matching the text output and the
                    // triangulate JSON; `edges` are 0-based bag indices.
                    let bags: Vec<String> = d
                        .bags
                        .iter()
                        .map(|bag| {
                            let items: Vec<String> =
                                bag.iter().map(|v| (v + 1).to_string()).collect();
                            format!("[{}]", items.join(","))
                        })
                        .collect();
                    let edges: Vec<String> =
                        d.edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
                    format!(
                        "{{\"width\":{},\"bags\":[{}],\"edges\":[{}]}}",
                        d.width(),
                        bags.join(","),
                        edges.join(",")
                    )
                })
                .collect();
            println!("{}", response_document("decompose", g, &results, &outcome));
        }
    }
    Ok(())
}

// JSON rendering lives in `mintri_core::json` — shared verbatim with the
// HTTP transport and parsed back by the same module's `JsonValue::parse`,
// so nothing the CLI emits is write-only.
