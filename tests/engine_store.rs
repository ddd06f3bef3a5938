//! The persistent warm-state tier, end to end through the engine:
//! eviction spills to disk instead of discarding, a restarted (or
//! different) engine hydrates sessions from the store with **zero**
//! `Extend` calls, corrupt entries degrade to safe recomputation, and
//! concurrent hydrate races keep exactly one session.

use mintri::engine::{Engine, EngineConfig, Store, StoreConfig};
use mintri::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch store root, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "mintri-engine-store-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn open(&self) -> Arc<Store> {
        Arc::new(Store::open(StoreConfig::at(&self.0)).expect("store opens"))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine_at(dir: &ScratchDir) -> Engine {
    Engine::with_store(EngineConfig::default(), dir.open())
}

#[test]
fn evicted_then_requeried_session_hydrates_with_zero_extends() {
    let dir = ScratchDir::new("evict-hydrate");
    let engine = engine_at(&dir);
    let g = Graph::cycle(6);
    assert_eq!(engine.run(&g, Query::enumerate()).count(), 14);
    assert!(engine.memo_stats().extends > 0, "the cold run worked");

    // Eviction spills the session's winnings to disk instead of
    // discarding them (the pre-store engine silently dropped both the
    // answer cache and the memoized plan here).
    engine.evict(&g);
    assert_eq!(engine.sessions_cached(), 0);
    engine.store().unwrap().flush();

    let warm = engine.run(&g, Query::enumerate());
    assert!(warm.is_replay(), "the requery hydrates from disk");
    assert_eq!(warm.count(), 14);
    assert_eq!(
        engine.memo_stats().extends,
        0,
        "a hydrated session re-interns separators but never Extends"
    );
    assert!(engine.telemetry().store_hits.get() >= 1);
}

#[test]
fn a_restarted_engine_replays_from_the_shared_store_dir() {
    let dir = ScratchDir::new("restart");
    let g = Graph::cycle(6);
    {
        let first = engine_at(&dir);
        assert_eq!(first.run(&g, Query::enumerate()).count(), 14);
        first.store().unwrap().flush();
    }
    // "Restart": a brand-new engine over the same directory — also the
    // multi-replica story (one replica's cold miss is another's warm
    // hit).
    let second = engine_at(&dir);
    let warm = second.run(&g, Query::enumerate());
    assert!(
        warm.is_replay(),
        "the first repeat query after a restart replays from the disk tier"
    );
    assert_eq!(warm.count(), 14);
    assert_eq!(second.memo_stats().extends, 0, "zero Extends after restart");
    assert!(
        second.telemetry().store_hits.get() >= 1,
        "plan + answers hit"
    );
    // The hydrated deposit now serves straight from RAM.
    assert!(second.run(&g, Query::enumerate()).is_replay());
}

#[test]
fn clear_sessions_spills_before_dropping() {
    let dir = ScratchDir::new("clear");
    let engine = engine_at(&dir);
    let g = Graph::cycle(7);
    assert_eq!(engine.run(&g, Query::enumerate()).count(), 42);
    engine.clear_sessions();
    engine.store().unwrap().flush();
    let warm = engine.run(&g, Query::enumerate());
    assert!(warm.is_replay(), "cleared state hydrates back from disk");
    assert_eq!(warm.count(), 42);
}

#[test]
fn corrupt_store_entries_cost_recomputation_never_wrong_answers() {
    let dir = ScratchDir::new("corrupt");
    let g = Graph::cycle(6);
    {
        let engine = engine_at(&dir);
        assert_eq!(engine.run(&g, Query::enumerate()).count(), 14);
        engine.store().unwrap().flush();
    }
    // Bit-flip every published entry on disk (answers and plan alike).
    for sub in ["answers", "plans"] {
        for entry in std::fs::read_dir(dir.0.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    let engine = engine_at(&dir);
    let cold = engine.run(&g, Query::enumerate());
    assert!(
        !cold.is_replay(),
        "corrupt entries must be misses, not answers"
    );
    assert_eq!(cold.count(), 14, "recomputation still gets it right");
    let stats = engine.store().unwrap().stats();
    assert!(
        stats.corrupt_quarantined >= 2,
        "both corrupt entries were quarantined (got {})",
        stats.corrupt_quarantined
    );
}

#[test]
fn concurrent_hydrate_races_keep_exactly_one_session() {
    let dir = ScratchDir::new("race");
    let g = Graph::cycle(7);
    {
        let warmup = engine_at(&dir);
        assert_eq!(warmup.run(&g, Query::enumerate()).count(), 42);
        warmup.store().unwrap().flush();
    }
    let engine = engine_at(&dir);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let response = engine.run(&g, Query::enumerate());
                    let replayed = response.is_replay();
                    (replayed, response.count())
                })
            })
            .collect();
        for client in clients {
            let (replayed, count) = client.join().expect("no hydrator may panic");
            assert!(replayed, "every racer is served a replay");
            assert_eq!(count, 42);
        }
    });
    assert_eq!(
        engine.sessions_cached(),
        1,
        "racing hydrators must converge on one session"
    );
    assert_eq!(engine.memo_stats().extends, 0);
}

/// Name suffix of the answer lists this build records: the filename tag
/// of `StoredOrder::UponGeneration`.
const RECORDED_SUFFIX: &str = "-g2.mts";

/// Records C7, renames its answer list to the retired filename `tag`,
/// and checks that opening the store deletes it, so the next query runs
/// live, yields `run_local`'s order and records a list that replays.
fn assert_a_retired_recording_never_hydrates(tag: &str) {
    let dir = ScratchDir::new(&format!("retired-{tag}"));
    let g = Graph::cycle(7);
    {
        let writer = engine_at(&dir);
        assert_eq!(writer.run(&g, Query::enumerate()).count(), 42);
        writer.store().unwrap().flush();
    }
    // Leave the recording under the retired tag only.
    let answers = dir.0.join("answers");
    let mut retired = Vec::new();
    for entry in std::fs::read_dir(&answers).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(RECORDED_SUFFIX) {
            let renamed = answers.join(format!("{stem}-{tag}.mts"));
            std::fs::rename(&path, &renamed).unwrap();
            retired.push(renamed);
        }
    }
    assert_eq!(retired.len(), 1, "C7 is one atom with one recording");
    let reader = engine_at(&dir);
    assert!(
        retired.iter().all(|path| !path.exists()),
        "opening the store deletes recordings under the retired tag {tag}"
    );
    let live = reader.run(&g, Query::enumerate());
    assert!(!live.is_replay(), "nothing left to hydrate");
    let order: Vec<_> = live
        .filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect();
    let reference: Vec<_> = Query::enumerate()
        .run_local(&g)
        .triangulations()
        .iter()
        .map(|t| t.graph.edges())
        .collect();
    assert_eq!(order, reference);
    // The live run recorded a list every later query can replay.
    assert!(reader.run(&g, Query::enumerate()).is_replay());
}

/// Older stores hold answer lists recorded by unordered parallel runs
/// (filename tag `u`): one race outcome each, in no order a query can
/// promise. Opening the store deletes them, so a query over such a store
/// runs live and yields `run_local`'s order.
#[test]
fn an_unordered_recording_never_hydrates_a_deterministic_query() {
    assert_a_retired_recording_never_hydrates("u");
}

/// Older stores also hold lists of the schedule that extended every
/// distinct `Jv` (tags `g` and `p`). It emits the same answers in
/// another order, so those lists are deleted too rather than replayed.
#[test]
fn a_recording_of_the_old_schedule_never_hydrates_a_query() {
    for tag in ["g", "p"] {
        assert_a_retired_recording_never_hydrates(tag);
    }
}

/// Both print modes emit the same full sequence, so a query hydrates a
/// completed recording of the other mode.
#[test]
fn a_deterministic_query_hydrates_the_other_print_modes_recording() {
    let dir = ScratchDir::new("print-modes");
    let g = Graph::cycle(7);
    let det = |mode: PrintMode| Query::enumerate().mode(mode);
    let order = |resp: Response<'_>| -> Vec<Vec<(Node, Node)>> {
        resp.filter_map(QueryItem::into_triangulation)
            .map(|t| t.graph.edges())
            .collect()
    };
    let generated = {
        let writer = engine_at(&dir);
        let generated = order(writer.run(&g, det(PrintMode::UponGeneration)));
        writer.store().unwrap().flush();
        generated
    };
    assert_eq!(generated.len(), 42);
    let reader = engine_at(&dir);
    let popped = reader.run(&g, det(PrintMode::UponPop));
    assert!(
        popped.is_replay(),
        "an UponPop query hydrates the UponGeneration recording"
    );
    assert_eq!(order(popped), generated);
    assert_eq!(reader.memo_stats().extends, 0);
}
