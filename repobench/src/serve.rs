//! The `serve_churn` workload: a closed loop with one caller driving a
//! `ServeEngine` — per epoch one `ingest_epoch` of fresh sites, then
//! repeated `serve_batch` calls of a fixed client pool.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

use datagen::{DataSpec, Distribution, SpatialExtent};
use dist_skyline::static_net::grid_network_from_global;
use dist_skyline::{verify_serve_drift, ServeConfig, ServeEngine, ServeStats, ServedAnswer};
use skyline_core::diagram::{CellKey, DiagramConfig, SkyDelta};
use skyline_core::region::Point;
use skyline_core::{LiveSkyline, Tuple, TupleId};

use crate::stats::{
    fits, mean, median, min, peak_rss_mb, per_item, quantile, rss_mb, span, timed, traced,
};
use crate::{insert_spans, Checks, Outcome};

/// Sites in the engine at construction.
const SITES: usize = 2_000;
/// Attribute dimensionality.
const DIM: usize = 3;
/// Client query points, served as one batch per `serve_batch` call.
const POOL: usize = 256;
/// Serving epochs including the all-cold epoch 0.
const EPOCHS: usize = 128;
/// Sites added per epoch (each retired two epochs later).
const CHURN: usize = 8;
/// `serve_batch` calls of the pool per epoch after epoch 0.
const BATCHES: usize = 8;
/// Engine worker threads (the machine's core count; default is 4).
const THREADS: usize = 2;

/// Everything the engine is fed, generated from the seed before any
/// timing starts.
struct Inputs {
    relation: Vec<Tuple>,
    pool: Vec<(Point, f64)>,
    /// `deltas[e - 1]` is ingested at epoch `e`.
    deltas: Vec<SkyDelta>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[0, n)` with three decimals.
fn draw(state: &mut u64, n: u64) -> f64 {
    (splitmix(state) % (n * 1_000)) as f64 / 1_000.0
}

/// Generates the inputs; returns them with the seconds spent in
/// `DataSpec::generate` (the datagen layer's share).
fn inputs(seed: u64) -> (Inputs, f64) {
    let (relation, generate_s) = timed(|| {
        DataSpec::manet_experiment(SITES, DIM, Distribution::Independent, seed).generate()
    });
    let mut state = seed ^ 0xC11E_57A7;
    let pool = (0..POOL)
        .map(|i| {
            let p = Point::new(draw(&mut state, 1_000), draw(&mut state, 1_000));
            (p, [90.0, 180.0, 400.0][i % 3])
        })
        .collect();
    let mut retire: VecDeque<TupleId> = VecDeque::new();
    let deltas = (1..EPOCHS)
        .map(|_| {
            let mut delta = SkyDelta::default();
            for _ in 0..CHURN {
                let (x, y) = (draw(&mut state, 1_000), draw(&mut state, 1_000));
                let attrs = (0..DIM).map(|_| 1.0 + draw(&mut state, 999)).collect();
                let site = Tuple::new(x, y, attrs);
                let id = TupleId::site(&site);
                delta.adds.push((id, site));
                retire.push_back(id);
            }
            while retire.len() > 2 * CHURN {
                delta.removes.push(retire.pop_front().expect("non-empty"));
            }
            delta
        })
        .collect();
    (Inputs { relation, pool, deltas }, generate_s)
}

fn config() -> ServeConfig {
    ServeConfig { threads: THREADS, slots: EPOCHS + 2, backend_g: 8, ..ServeConfig::default() }
}

/// Recomputes served answers from the current site set: a fresh
/// `LiveSkyline` over the sites inside each cell's canonical region.
struct Oracle {
    diagram: DiagramConfig,
    sites: BTreeMap<TupleId, Tuple>,
    memo: BTreeMap<CellKey, Vec<TupleId>>,
}

impl Oracle {
    fn new(diagram: DiagramConfig, relation: &[Tuple]) -> Self {
        let sites = relation.iter().map(|t| (TupleId::site(t), t.clone())).collect();
        Oracle { diagram, sites, memo: BTreeMap::new() }
    }

    fn apply(&mut self, delta: &SkyDelta) {
        for id in &delta.removes {
            self.sites.remove(id);
        }
        for (id, t) in &delta.adds {
            self.sites.insert(*id, t.clone());
        }
        self.memo.clear();
    }

    fn answer(&mut self, key: CellKey) -> &[TupleId] {
        let (diagram, sites) = (&self.diagram, &self.sites);
        self.memo.entry(key).or_insert_with(|| {
            let region = diagram.canonical_query(key);
            let mut live = LiveSkyline::new();
            for (id, t) in sites {
                if region.contains(t.location()) {
                    live.insert(*id, t.clone());
                }
            }
            live.result_ids()
        })
    }

    /// Returns `(exact answers, Σ completeness)` over a batch.
    fn score(&mut self, answers: &[ServedAnswer]) -> (u64, f64) {
        let (mut exact, mut completeness) = (0u64, 0.0);
        for a in answers {
            let truth = self.answer(a.key);
            exact += u64::from(a.ids == truth);
            let found = truth.iter().filter(|id| a.ids.binary_search(id).is_ok()).count();
            completeness += if truth.is_empty() { 1.0 } else { found as f64 / truth.len() as f64 };
        }
        (exact, completeness)
    }
}

fn hash_batch(h: &mut DefaultHasher, answers: &[ServedAnswer]) {
    for a in answers {
        a.key.hash(h);
        a.ids.hash(h);
        a.cached.hash(h);
        a.age.hash(h);
    }
}

/// One pass of the serving loop over a fresh engine.
struct Pass {
    setup_s: f64,
    generate_s: f64,
    cold_ms: f64,
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    run_s: f64,
    requests: u64,
    answered: u64,
    /// Σ completeness over the served answers (oracle-checked passes only).
    completeness: f64,
    rss_per_epoch_mb: f64,
    stats: ServeStats,
    /// Hash of every served answer, in order — equal across passes.
    digest: u64,
}

/// Runs one pass; with `oracle`, checks every epoch's first batch
/// against a fresh recompute and the remaining batches against the
/// first. Every pass ends with the engine's own invariant check and the
/// trace/counter reconciliation.
fn pass(seed: u64, oracle: bool, checks: &mut Checks) -> Pass {
    let ((inp, generate_s), gen_s) = timed(|| inputs(seed));
    let relation = inp.relation.clone();
    let (engine, new_s) = timed(|| ServeEngine::new(config(), relation));
    let rss0 = rss_mb();
    let mut orc = oracle.then(|| Oracle::new(engine.config().diagram.clone(), &inp.relation));
    let mut digest = DefaultHasher::new();
    let (mut exact, mut completeness, mut answered) = (0u64, 0.0, 0u64);
    let mut requests = 0u64;

    let (cold, cold_s) = timed(|| engine.serve_batch(&inp.pool));
    requests += POOL as u64;
    answered += cold.len() as u64;
    hash_batch(&mut digest, &cold);
    if let Some(o) = orc.as_mut() {
        let (e, c) = o.score(&cold);
        exact += e;
        completeness += c;
    }
    let mut ingest_ms = Vec::with_capacity(EPOCHS - 1);
    let mut read_ms = Vec::with_capacity((EPOCHS - 1) * BATCHES);
    for delta in &inp.deltas {
        let (_, s) = timed(|| engine.ingest_epoch(delta));
        ingest_ms.push(s * 1e3);
        if let Some(o) = orc.as_mut() {
            o.apply(delta);
        }
        let mut first: Option<Vec<ServedAnswer>> = None;
        for _ in 0..BATCHES {
            let (answers, s) = timed(|| engine.serve_batch(&inp.pool));
            read_ms.push(s * 1e3);
            requests += POOL as u64;
            answered += answers.len() as u64;
            hash_batch(&mut digest, &answers);
            match (&first, orc.as_mut()) {
                (None, Some(o)) => {
                    let (e, c) = o.score(&answers);
                    exact += e;
                    completeness += c;
                    first = Some(answers);
                }
                (None, None) => first = Some(answers),
                (Some(f), Some(_)) => {
                    let same = f.iter().zip(&answers).filter(|(a, b)| a.ids == b.ids).count();
                    exact += same as u64;
                    completeness += same as f64;
                    checks.check(same == answers.len(), (answers.len() - same) as u64, || {
                        "a batch's answers differ from the epoch's first batch".to_string()
                    });
                }
                (Some(_), None) => {}
            }
        }
    }
    let rss1 = rss_mb();
    let run_s = cold_s + (ingest_ms.iter().sum::<f64>() + read_ms.iter().sum::<f64>()) * 1e-3;

    checks.attempted += requests;
    checks.check(answered == requests, requests - answered, || {
        format!("{answered} answers for {requests} requests")
    });
    if oracle {
        checks.check(exact == requests, requests - exact, || {
            format!(
                "{} of {requests} served answers differ from a fresh recompute",
                requests - exact
            )
        });
    }
    let invariants = engine.check_invariants();
    checks.check(invariants.is_ok(), 1, || format!("diagram invariants: {invariants:?}"));
    let stats = engine.stats();
    let drift = verify_serve_drift(&engine.take_trace(), &stats);
    checks.check(drift.is_ok(), 1, || format!("serve drift: {:?}", drift.err()));

    Pass {
        setup_s: gen_s + new_s,
        generate_s,
        cold_ms: cold_s * 1e3,
        ingest_ms,
        read_ms,
        run_s,
        requests,
        answered,
        completeness,
        rss_per_epoch_mb: (rss1 - rss0) / EPOCHS as f64,
        stats,
        digest: digest.finish(),
    }
}

/// Re-times the backend rebuild each publish performs — one
/// `grid_network_from_global` (64 `HybridRelation::new`) over every
/// epoch's site set — as the storage layer's share of ingest.
fn storage_rebuild_s(seed: u64) -> f64 {
    let (inp, _) = inputs(seed);
    let space = SpatialExtent::PAPER;
    let mut sites: BTreeMap<TupleId, Tuple> =
        inp.relation.iter().map(|t| (TupleId::site(t), t.clone())).collect();
    let mut total = 0.0;
    for delta in std::iter::once(&SkyDelta::default()).chain(&inp.deltas) {
        for id in &delta.removes {
            sites.remove(id);
        }
        for (id, t) in &delta.adds {
            sites.insert(*id, t.clone());
        }
        let tuples: Vec<Tuple> = sites.values().cloned().collect();
        let (net, s) = timed(|| grid_network_from_global(&tuples, config().backend_g, space));
        std::hint::black_box(net);
        total += s;
    }
    total
}

/// Runs one `serve_churn` invocation.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // The first pass is the oracle-checked one; every later pass must
    // serve bit-identical answers.
    let first = pass(seed, true, &mut checks);
    if trace {
        // Both compared passes run on the warm allocator.
        let plain = pass(seed, false, &mut checks);
        let (second, profile) = traced(|| pass(seed, false, &mut checks));
        checks.check(second.digest == first.digest && plain.digest == first.digest, 1, || {
            "a later pass served different answers".to_string()
        });
        let s = &second.stats;
        let lookups = span(&profile, "serve::lookup");
        m.insert("datagen.generate_s", second.generate_s);
        m.insert("storage.build_s", storage_rebuild_s(seed));
        insert_spans(&mut m, &profile);
        let touched = s.cells_touched as f64;
        m.insert("core.cells_touched_frac", touched / (touched + s.cells_skipped as f64).max(1.0));
        m.insert("serve.hit_ratio", s.hits as f64 / s.lookups.max(1) as f64);
        m.insert("serve.misses", s.misses as f64);
        m.insert("serve.evictions", s.evictions as f64);
        m.insert("serve.backfills", s.backfills as f64);
        m.insert("serve.stale_mean_epochs", s.staleness.sum() as f64 / s.lookups.max(1) as f64);
        m.insert("serve.cold_batch_ms", plain.cold_ms);
        m.insert("serve.read_ms_p99", quantile(&plain.read_ms, 0.99));
        m.insert("serve.ingest_ms_p50", quantile(&plain.ingest_ms, 0.5));
        m.insert("serve.ingest_ms_p90", quantile(&plain.ingest_ms, 0.9));
        m.insert("serve.rss_mb_per_epoch", first.rss_per_epoch_mb);
        m.insert("obs.untraced_run_s", plain.run_s);
        m.insert("obs.traced_run_s", second.run_s);
        m.insert("obs.trace_overhead_frac", second.run_s / plain.run_s - 1.0);
        // Every request is one unit of `serve::lookup`; a shortfall is
        // span data lost between worker threads and the collector.
        m.insert("obs.span_units_lost", second.requests as f64 - lookups.1);
        return Outcome { checks, metrics: m };
    }

    // Timed passes: the oracle pass above doubles as the warm-up (it
    // faults in the allocator's pages); each reuses the same inputs.
    let start = std::time::Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || fits(start.elapsed().as_secs_f64(), passes.len(), seconds) {
        let p = pass(seed, false, &mut checks);
        checks.check(p.digest == first.digest, p.requests, || {
            "pass served different answers than the oracle-checked pass".to_string()
        });
        passes.push(p);
    }
    let reads: Vec<Vec<f64>> = passes.iter().map(|p| p.read_ms.clone()).collect();
    let read_ms = per_item(&reads, min);
    // One set-up per pass, so the samples spread over the whole run.
    let setups: Vec<f64> = std::iter::once(&first).chain(&passes).map(|p| p.setup_s).collect();
    m.insert("setup_s", median(&setups));
    m.insert("run_s", median(&passes.iter().map(|p| p.run_s).collect::<Vec<_>>()));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("read_ms_p50", quantile(&read_ms, 0.5));
    m.insert("read_ms_mean", mean(&read_ms));
    m.insert("query_ok_frac", first.answered as f64 / first.requests as f64);
    m.insert("answer_completeness", first.completeness / first.requests as f64);
    eprintln!("serve_churn seed={seed}: {} passes of {} reads", passes.len(), read_ms.len());
    Outcome { checks, metrics: m }
}
