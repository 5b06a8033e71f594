//! The four workloads. Each one sets up its instance several times
//! (the median is `setup_s`), warms up, runs its timed window, checks
//! every answer against exact execution, and — in a traced run — runs
//! the window again with spans on and replays each layer.
//!
//! The host's speed drifts by 10–15% over seconds, so the read-only
//! workloads cut their window into [`SEGMENTS`] segments and measure a
//! block of everything (approximate queries, exact queries, one ingest
//! batch) in each: every figure then samples the whole run instead of
//! one stretch of it, while each block keeps its caches warm.

use crate::check::{check, Accuracy};
use crate::layers::{replay_queries, service_metrics, IngestReplay, ServiceCall};
use crate::measure::{
    answer_digest, median, ms, peak_rss_mb, put, timed, timing, timing_flat, us, Metrics, Tracer,
};
use blinkdb_common::rng::{derive_seed, seeded};
use blinkdb_common::Value;
use blinkdb_core::{ApproxAnswer, BlinkDb, DataEpoch};
use blinkdb_exec::{execute, ExecOptions, QueryAnswer, RateSpec};
use blinkdb_service::{
    DurabilityConfig, IngestConfig, QueryService, ServiceAnswer, ServiceConfig, ServiceMetrics,
};
use blinkdb_storage::{Table, TableRef};
use blinkdb_workload::conviva::{conviva_dataset, conviva_templates};
use blinkdb_workload::queries::{bootstrap_suite, instantiate, query_mix};
use blinkdb_workload::stream::{conviva_append_batch, StreamSpec};
use blinkdb_workload::tpch::{tpch_dataset, tpch_templates};
use blinkdb_workload::BoundSpec;
use rand::Rng;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Physical fact rows of every dataset.
const ROWS: usize = 200_000;
/// Seed of the datasets and of the instance's sampling. The datasets
/// stay fixed so that runs with different `--seed`s measure the same
/// system; `--seed` draws the query lists, submission sequences and
/// appended batches.
const DATA_SEED: u64 = 2013;
/// Sample storage budget as a fraction of the fact table.
const BUDGET: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed queries before each timed window.
const WARMUP: usize = 20;
/// Segments of a window, each ending with one ingest-probe batch in the
/// read-only workloads; tails are medians over time slices of them.
const SEGMENTS: usize = 16;
/// Time spent on exact queries, as a share of the approximate-query time.
const EXACT_SHARE: f64 = 0.3;
/// Rows per appended batch: about 0.6 MB of WAL, so the 4 MiB WAL
/// trigger checkpoints about every seventh batch.
const BATCH_ROWS: usize = 5_000;
/// `ingest_live` send period: an apply pass takes about half a second
/// at 200k rows, so the ingest thread is busy about half the time.
const INGEST_PERIOD: Duration = Duration::from_millis(1_000);
/// Worker threads of every service.
const WORKERS: usize = 2;
/// Queries each traced run replays layer by layer.
const REPLAY_QUERIES: usize = 40;
/// Queries in the `adhoc_core` list.
const ADHOC_QUERIES: usize = 1_000;
/// Queries in the `tpch_join` list: one pass takes about fifteen
/// seconds, and the list must be long enough that the coverage estimate
/// (several hundred checked aggregates) is not dominated by chance.
const TPCH_QUERIES: usize = 96;
/// Fact rows query constants are drawn from. Rows are generated
/// independently, so a prefix yields the same query distribution as the
/// whole table, while the generator's per-query distinct counts stay
/// cheap.
const QUERY_ROWS: usize = 20_000;
/// Queries generated per client for the `service_mix` and `ingest_live`
/// pools (before duplicates are dropped), and the share of submissions
/// that repeat one of the client's last eight queries (a result-cache
/// hit). Kept far from one half so the median latency is always a miss.
const MIX_POOL: usize = 1_500;
const MIX_REPEAT: f64 = 0.1;

const ERROR_5: BoundSpec = BoundSpec::Error {
    pct: 5.0,
    conf: 95.0,
};
const WITHIN_2S: BoundSpec = BoundSpec::Time { seconds: 2.0 };
/// Bootstrap-only aggregates cost more than two simulated seconds even
/// on the smallest sample, so their time bound is wider.
const WITHIN_8S: BoundSpec = BoundSpec::Time { seconds: 8.0 };

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for WAL and checkpoint directories.
    pub scratch: PathBuf,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub correct: bool,
    pub context: BTreeMap<String, String>,
    pub tracer: Option<Tracer>,
}

/// The timed part of one workload run.
#[derive(Default)]
struct Window {
    /// Approximate query latencies and the segment each was measured in.
    query_ms: Vec<f64>,
    query_slot: Vec<usize>,
    /// Wall seconds the query clients were running.
    query_wall_s: f64,
    exact_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    acc: Accuracy,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<u64>,
    /// Cross-checks that failed: the run is then not correct.
    incorrect: Vec<String>,
    calls: Vec<ServiceCall>,
    context: Vec<(String, String)>,
}

impl Window {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn ctx(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Times one exact query; returns its answer.
    fn exact(&mut self, db: &BlinkDb, sql: &str) -> Option<QueryAnswer> {
        let (r, d) = timed(|| db.query_exact_audit(sql));
        self.attempted += 1;
        match r {
            Ok(ans) => {
                self.exact_ms.push(ms(d));
                Some(ans)
            }
            Err(e) => {
                self.fail(format!("exact {sql}: {e}"));
                None
            }
        }
    }

    /// Applies one ingest batch through the replayed ingest pass.
    fn ingest(&mut self, replay: &mut IngestReplay, batch: &[Vec<Value>], i: usize, tr: &Tracer) {
        self.attempted += 1;
        match replay.apply(batch, i as u64, tr) {
            Ok(d) => self.visible_ms.push(ms(d)),
            Err(e) => self.fail(format!("ingest batch {i}: {e}")),
        }
    }
}

pub fn run(a: &Args) -> Outcome {
    match a.workload.as_str() {
        "adhoc_core" => adhoc_core(a),
        "service_mix" => service_mix(a),
        "ingest_live" => ingest_live(a),
        "tpch_join" => tpch_join(a),
        other => panic!("unknown workload {other}"),
    }
}

/// The first [`QUERY_ROWS`] rows of `fact`, to instantiate queries from.
fn query_rows(fact: &Table) -> Table {
    fact.gather(&(0..QUERY_ROWS.min(fact.num_rows())).collect::<Vec<_>>())
}

/// Builds Conviva at [`ROWS`] rows with samples at [`BUDGET`].
fn conviva() -> BlinkDb {
    let ds = conviva_dataset(ROWS, DATA_SEED);
    let mut db = BlinkDb::new(ds.table, blinkdb_bench::bench_config());
    db.create_samples(&ds.templates, BUDGET)
        .expect("sample creation");
    db
}

/// Runs `build` [`SETUP_REPS`] times, keeping the last instance; the
/// durations go to `setup_s`.
fn repeat_setup<T>(build: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (x, d) = timed(&build);
        times.push(d.as_secs_f64());
        last = Some(x);
    }
    (last.expect("at least one set-up"), times)
}

fn conviva_batches(seed: u64, n: usize) -> Vec<Vec<Vec<Value>>> {
    let spec = StreamSpec {
        rows_per_batch: BATCH_ROWS,
        batches: n,
        seed: derive_seed(seed, 7),
        skew_shift: 0,
    };
    (0..n).map(|i| conviva_append_batch(&spec, i)).collect()
}

fn durability(dir: &Path) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    // Pinned rather than inherited from `BLINKDB_FSYNC`.
    d.fsync = true;
    d
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

/// A fresh, empty scratch directory; removed by the caller.
fn scratch_dir(a: &Args, name: &str) -> PathBuf {
    let dir = a.scratch.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The ingest probe of the read-only workloads: one batch per segment,
/// applied through the service's ingest sequence on a private copy; a
/// batch is visible when its pass ends.
fn ingest_probe(db: &BlinkDb, a: &Args, dir: &str) -> (IngestReplay, PathBuf) {
    let dir = scratch_dir(a, dir);
    let replay = IngestReplay::new(db.clone(), &dir, true).expect("ingest probe start");
    (replay, dir)
}

/// The window of `adhoc_core` and `tpch_join`: one closed-loop client
/// alternating `blocks` blocks of `BlinkDb::query` down the list with
/// blocks of `query_exact_audit` down the same list ([`EXACT_SHARE`] of
/// the time; both passes cover the whole list at least once), with one
/// ingest-probe batch after every `blocks / SEGMENTS` pairs. Every repeat
/// of a query must reproduce its first answer bit for bit.
fn direct_window(
    db: &BlinkDb,
    sqls: &[String],
    batches: &[Vec<Vec<Value>>],
    a: &Args,
    tr: &Tracer,
    probe_dir: &str,
    blocks: usize,
) -> (Window, IngestReplay) {
    assert_eq!(blocks % SEGMENTS, 0, "a probe batch ends every segment");
    let mut w = Window::default();
    let (mut replay, dir) = ingest_probe(db, a, probe_dir);
    for sql in sqls.iter().take(WARMUP) {
        let _ = db.query(sql);
        let _ = db.query_exact_audit(sql);
    }
    let n = sqls.len();
    let mut first: Vec<Option<(u64, QueryAnswer)>> = vec![None; n];
    let mut exact: Vec<Option<QueryAnswer>> = vec![None; n];
    let (mut i, mut j) = (0usize, 0usize);
    let block = Duration::from_secs_f64(a.seconds / blocks as f64);
    for b in 0..blocks {
        let seg = b * SEGMENTS / blocks;
        let pass_due = n * (b + 1) / blocks;
        let start = Instant::now();
        while i < pass_due || start.elapsed() < block {
            let idx = i % n;
            let (r, d) = tr.span(i as u64, None, "query", || db.query(&sqls[idx]));
            w.attempted += 1;
            match r {
                Ok(ans) => {
                    w.query_ms.push(ms(d));
                    w.query_slot.push(seg);
                    w.query_wall_s += d.as_secs_f64();
                    let dg = answer_digest(&ans.answer);
                    match &first[idx] {
                        None => first[idx] = Some((dg, ans.answer)),
                        Some((f, _)) if *f != dg => {
                            w.fail(format!("answer changed on repeat: {}", sqls[idx]))
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => w.fail(format!("{}: {e}", sqls[idx])),
            }
            i += 1;
        }
        let start = Instant::now();
        while j < pass_due || start.elapsed() < block.mul_f64(EXACT_SHARE) {
            let idx = j % n;
            let truth = w.exact(db, &sqls[idx]);
            if exact[idx].is_none() {
                exact[idx] = truth;
            }
            j += 1;
        }
        if (b + 1) % (blocks / SEGMENTS) == 0 {
            w.ingest(&mut replay, &batches[seg], seg, tr);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut h = 0u64;
    for (idx, f) in first.iter().enumerate() {
        let (Some((dg, approx)), Some(truth)) = (f, &exact[idx]) else {
            continue;
        };
        h = h.rotate_left(5) ^ dg;
        if let Err(e) = check(approx, truth, &mut w.acc) {
            w.fail(format!("{}: {e}", sqls[idx]));
        }
    }
    w.digest = Some(h);
    (w, replay)
}

/// Submits `sqls` once through a fresh service over `db` — the service
/// layer's view of a workload that does not run behind one.
fn service_replay(
    db: Arc<BlinkDb>,
    sqls: &[String],
    tr: &Tracer,
) -> (Vec<ServiceCall>, ServiceMetrics) {
    let svc = QueryService::new(db, service_config());
    let calls = sqls
        .iter()
        .enumerate()
        .filter_map(|(i, sql)| service_call(&svc, sql, i as u64, tr).ok().map(|r| r.0))
        .collect();
    let m = svc.metrics();
    (calls, m)
}

/// One submit → answer round trip.
fn service_call(
    svc: &QueryService,
    sql: &str,
    req: u64,
    tr: &Tracer,
) -> Result<(ServiceCall, ServiceAnswer), String> {
    let t = Instant::now();
    let root = tr.root(req, "service.query");
    let (h, d_submit) = tr.span(req, root, "service.submit", || svc.submit(sql));
    let r = match h {
        Ok(h) => tr.span(req, root, "service.wait", || h.wait()).0 .1,
        Err(e) => {
            tr.close(root);
            return Err(format!("rejected: {e}"));
        }
    };
    tr.close(root);
    let ans = r.map_err(|e| format!("failed: {e}"))?;
    let call = ServiceCall {
        submit_us: us(d_submit),
        queue_wait_us: us(ans.queue_wait),
        total_us: us(t.elapsed()),
    };
    Ok((call, ans))
}

/// End-to-end metrics of a window.
fn end_to_end(w: &Window, setup: &[f64], m: &mut Metrics, ctx: &mut BTreeMap<String, String>) {
    let q = timing(&w.query_ms, &w.query_slot, SEGMENTS);
    let e = timing_flat(&w.exact_ms);
    let v = timing_flat(&w.visible_ms);
    put(m, "setup_s", median(setup), "s");
    put(m, "query_p50_ms", q.p50, "ms");
    put(m, "query_tail_ms", q.tail, "ms");
    put(
        m,
        "query_qps",
        w.query_ms.len() as f64 / w.query_wall_s,
        "1/s",
    );
    put(m, "exact_p50_ms", e.p50, "ms");
    put(m, "rel_error_p50", median(&w.acc.rel_errors), "fraction");
    put(m, "ingest_visible_p50_ms", v.p50, "ms");
    put(m, "ingest_visible_tail_ms", v.tail, "ms");
    put(m, "peak_rss_mb", peak_rss_mb(), "MB");
    let mut c = |k: &str, v: String| {
        ctx.insert(k.into(), v);
    };
    c("query_samples", q.samples.to_string());
    c(
        "query_tail_percentile",
        format!("p{} (median of {} time slices)", q.tail_pct, q.slices),
    );
    c("exact_samples", e.samples.to_string());
    c("ingest_visible_samples", v.samples.to_string());
    c("ingest_visible_tail_percentile", format!("p{}", v.tail_pct));
    c("setup_samples", setup.len().to_string());
    c("rel_error_samples", w.acc.rel_errors.len().to_string());
    c(
        "ci_coverage",
        format!(
            "{:.4} ({} of {} checks)",
            w.acc.coverage(),
            w.acc.covered,
            w.acc.claims
        ),
    );
    c(
        "failed_ratio",
        format!("{}", w.failed as f64 / w.attempted.max(1) as f64),
    );
    if let Some(d) = w.digest {
        c("answer_digest", format!("{d:016x}"));
    }
    for (k, v) in &w.context {
        c(k, v.clone());
    }
}

/// Assembles the outcome: the untraced window gives the end-to-end
/// metrics; a traced run adds the traced window's overhead.
fn finish(w0: Window, w1: Option<(Window, Tracer, Metrics)>, setup: &[f64]) -> Outcome {
    let mut o = Outcome::default();
    end_to_end(&w0, setup, &mut o.end_to_end, &mut o.context);
    let mut correct = w0.acc.coverage_ok() && w0.incorrect.is_empty();
    o.attempted = w0.attempted;
    o.failed = w0.failed;
    o.failures = w0.failures;
    o.failures.extend(w0.incorrect);
    if let Some((w1, tracer, mut layers)) = w1 {
        let p50 = |v: &[f64]| timing_flat(v).p50;
        put(
            &mut layers,
            "trace.query_p50_overhead_ms",
            p50(&w1.query_ms) - p50(&w0.query_ms),
            "ms",
        );
        put(
            &mut layers,
            "trace.ingest_visible_p50_overhead_ms",
            p50(&w1.visible_ms) - p50(&w0.visible_ms),
            "ms",
        );
        correct &= w1.acc.coverage_ok() && w1.incorrect.is_empty();
        if w1.digest != w0.digest {
            correct = false;
            o.failures
                .push("traced window's answer digest differs".into());
        }
        o.attempted += w1.attempted;
        o.failed += w1.failed;
        o.failures.extend(w1.failures);
        o.failures.extend(w1.incorrect);
        o.layers = layers;
        o.tracer = Some(tracer);
    }
    o.correct = correct;
    o
}

/// `adhoc_core`: the paper's core path. One closed-loop client calls
/// `BlinkDb::query` (no plan-profile or result cache) on the 42-template
/// Conviva mix with `ERROR WITHIN 5% AT CONFIDENCE 95%`.
fn adhoc_core(a: &Args) -> Outcome {
    let (db, setup) = repeat_setup(conviva);
    let sqls: Vec<String> = query_mix(
        &query_rows(db.fact()),
        &conviva_templates(),
        "sessiontimems",
        ADHOC_QUERIES,
        ERROR_5,
        derive_seed(a.seed, 1),
    )
    .into_iter()
    .map(|q| q.sql)
    .collect();
    let batches = conviva_batches(a.seed, SEGMENTS);
    read_only(a, db, HashMap::new(), &sqls, &batches, setup, SEGMENTS)
}

/// `tpch_join`: fact→dimension joins, the only queries still on the
/// row-at-a-time scan, which compile the dimension join per query.
fn tpch_join(a: &Args) -> Outcome {
    let ((db, orders), setup) = repeat_setup(|| {
        let ds = tpch_dataset(ROWS, DATA_SEED);
        let mut db = BlinkDb::new(ds.lineitem, blinkdb_bench::bench_config());
        db.add_dimension(ds.orders.clone());
        db.create_samples(&ds.templates, BUDGET)
            .expect("sample creation");
        (db, ds.orders)
    });
    let templates = tpch_templates();
    let table = query_rows(db.fact());
    let mut rng = seeded(derive_seed(a.seed, 1));
    let sqls: Vec<String> = (0..TPCH_QUERIES)
        .map(|i| {
            let t = &templates[i % templates.len()];
            let bound = if i % 2 == 0 { ERROR_5 } else { WITHIN_2S };
            let q = instantiate(&table, &t.columns, "extendedprice", bound, &mut rng);
            join_orders(&q.sql)
        })
        .collect();
    let batches: Vec<Vec<Vec<Value>>> = (0..SEGMENTS)
        .map(|i| {
            let t = tpch_dataset(BATCH_ROWS, derive_seed(a.seed, 100 + i as u64)).lineitem;
            (0..t.num_rows())
                .map(|r| (0..t.schema().len()).map(|c| t.value(r, c)).collect())
                .collect()
        })
        .collect();
    let mut dims: HashMap<String, Table> = HashMap::new();
    dims.insert("orders".into(), orders);
    // A join query takes ~70 ms and the host's memory-bound speed swings
    // by a third within seconds, so approximate and exact queries
    // alternate query by query.
    read_only(a, db, dims, &sqls, &batches, setup, TPCH_QUERIES)
}

/// Turns a `lineitem` query into a join with the `orders` dimension,
/// filtered on a dimension column that keeps four fifths of the rows.
fn join_orders(sql: &str) -> String {
    let joined = sql.replacen(
        "FROM lineitem",
        "FROM lineitem JOIN orders ON lineitem.orderkey = orders.o_orderkey",
        1,
    );
    let dim_pred = "orders.o_orderpriority <> '5-LOW'";
    if joined.contains(" WHERE ") {
        joined.replacen(" WHERE ", &format!(" WHERE {dim_pred} AND "), 1)
    } else {
        let at = ["GROUP BY", "ERROR", "WITHIN"]
            .iter()
            .filter_map(|k| joined.find(&format!(" {k}")))
            .min()
            .unwrap_or(joined.len());
        format!("{} WHERE {dim_pred}{}", &joined[..at], &joined[at..])
    }
}

/// The body shared by `adhoc_core` and `tpch_join`.
fn read_only(
    a: &Args,
    db: BlinkDb,
    dims: HashMap<String, Table>,
    sqls: &[String],
    batches: &[Vec<Vec<Value>>],
    setup: Vec<f64>,
    blocks: usize,
) -> Outcome {
    let (w0, _) = direct_window(&db, sqls, batches, a, &Tracer::new(false), "probe0", blocks);
    let traced = a.trace.then(|| {
        let tr = Tracer::new(true);
        let (mut w1, replay) = direct_window(&db, sqls, batches, a, &tr, "probe1", blocks);
        let mut layers = Metrics::new();
        replay.metrics(&tr, &mut layers);
        let dim_refs: HashMap<String, &Table> = dims.iter().map(|(k, v)| (k.clone(), v)).collect();
        let sample = &sqls[..REPLAY_QUERIES.min(sqls.len())];
        if let Err(e) = replay_queries(&db, &dim_refs, sample, &tr, &mut layers) {
            w1.incorrect.push(format!("query-layer replay: {e}"));
        }
        let (calls, sm) = service_replay(Arc::new(db.clone()), sample, &tr);
        service_metrics(&calls, &sm, &mut layers);
        (w1, tr, layers)
    });
    finish(w0, traced, &setup)
}

/// The submission sequence of client `client` of `clients`: fresh
/// queries from its share of the pool, with [`MIX_REPEAT`] of
/// submissions repeating one of its last eight.
fn mix_sequence(pool_len: usize, client: usize, clients: usize, seed: u64) -> Vec<usize> {
    const LEN: usize = 100_000;
    let mut rng = seeded(derive_seed(seed, 50 + client as u64));
    let fresh: Vec<usize> = (client..pool_len).step_by(clients).collect();
    let mut seq: Vec<usize> = Vec::with_capacity(LEN);
    let mut next = 0usize;
    while seq.len() < LEN {
        if seq.len() >= 8 && rng.random::<f64>() < MIX_REPEAT {
            let back = rng.random_range(1..=8usize);
            seq.push(seq[seq.len() - back]);
        } else {
            seq.push(fresh[next % fresh.len()]);
            next += 1;
        }
    }
    seq
}

/// Each query text once, in a seeded shuffle.
fn distinct_shuffled(queries: impl IntoIterator<Item = String>, seed: u64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut pool: Vec<String> = queries
        .into_iter()
        .filter(|q| seen.insert(q.clone()))
        .collect();
    let mut rng = seeded(seed);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.random_range(0..=i));
    }
    pool
}

/// The Conviva pool of `service_mix`: `ERROR WITHIN 5%`, `WITHIN 2
/// SECONDS` and bootstrap-only `STDDEV`/`RATIO` queries (`WITHIN 8
/// SECONDS`), shuffled, each text once.
fn mix_pool(table: &Table, seed: u64) -> Vec<String> {
    let templates = conviva_templates();
    let n = MIX_POOL * WORKERS;
    let parts = [
        query_mix(
            table,
            &templates,
            "sessiontimems",
            n / 2,
            ERROR_5,
            derive_seed(seed, 2),
        ),
        query_mix(
            table,
            &templates,
            "sessiontimems",
            n * 7 / 20,
            WITHIN_2S,
            derive_seed(seed, 3),
        ),
        bootstrap_suite(
            table,
            "city",
            "sessiontimems",
            "bufferingms",
            n * 3 / 20,
            WITHIN_8S,
            derive_seed(seed, 4),
        ),
    ];
    distinct_shuffled(
        parts.into_iter().flatten().map(|q| q.sql),
        derive_seed(seed, 5),
    )
}

/// A served answer as the client received it.
struct Served {
    sql: usize,
    epoch: DataEpoch,
    answer: Arc<ApproxAnswer>,
}

/// Closed-loop clients, one thread each, submitting their sequences to
/// `svc` from `next[c]` on until `end`; samples go to segment `seg`.
#[allow(clippy::too_many_arguments)]
fn service_clients(
    svc: &QueryService,
    pool: &[String],
    seqs: &[Vec<usize>],
    next: &mut [usize],
    end: Instant,
    seg: usize,
    tr: &Tracer,
    w: &Mutex<Window>,
    served: &Mutex<Vec<Served>>,
) {
    std::thread::scope(|s| {
        for (c, (seq, pos)) in seqs.iter().zip(next.iter_mut()).enumerate() {
            s.spawn(move || {
                let mut local = Vec::new();
                while *pos < seq.len() && Instant::now() < end {
                    let idx = seq[*pos];
                    let req = ((c as u64) << 32) | *pos as u64;
                    *pos += 1;
                    let t = Instant::now();
                    let r = service_call(svc, &pool[idx], req, tr);
                    let d = t.elapsed();
                    let mut w = w.lock().expect("window lock");
                    w.attempted += 1;
                    match r {
                        Ok((call, ans)) => {
                            w.query_ms.push(ms(d));
                            w.query_slot.push(seg);
                            w.calls.push(call);
                            local.push(Served {
                                sql: idx,
                                epoch: ans.epoch,
                                answer: ans.answer,
                            });
                        }
                        Err(e) => w.fail(format!("{}: {e}", pool[idx])),
                    }
                }
                served.lock().expect("served lock").extend(local);
            });
        }
    });
}

/// `service_mix`: the Conviva instance behind `QueryService` with
/// default caches and two closed-loop clients. Between segments the
/// clients pause while the exact baseline runs the queries served so
/// far and one ingest-probe batch is applied.
fn service_mix(a: &Args) -> Outcome {
    let (svc, setup) = repeat_setup(|| QueryService::new(Arc::new(conviva()), service_config()));
    let db = svc.db();
    drop(svc);
    let pool = mix_pool(&query_rows(db.fact()), a.seed);
    let seqs: Vec<Vec<usize>> = (0..WORKERS)
        .map(|c| mix_sequence(pool.len(), c, WORKERS, a.seed))
        .collect();
    let batches = conviva_batches(a.seed, SEGMENTS);
    let window = |tr: &Tracer, probe_dir: &str| {
        let svc = QueryService::new(Arc::clone(&db), service_config());
        // Warm-up: the pool's tail, which the timed sequences reach last.
        for sql in pool.iter().rev().take(WARMUP) {
            let _ = svc.submit(sql).map(|h| h.wait());
        }
        let before = svc.metrics();
        let (mut replay, dir) = ingest_probe(&db, a, probe_dir);
        let w = Mutex::new(Window::default());
        let served = Mutex::new(Vec::new());
        let mut next = vec![0usize; WORKERS];
        let mut exact: HashMap<usize, Option<QueryAnswer>> = HashMap::new();
        for (seg, batch) in batches.iter().enumerate().take(SEGMENTS) {
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(a.seconds / SEGMENTS as f64);
            service_clients(&svc, &pool, &seqs, &mut next, end, seg, tr, &w, &served);
            let mut w = w.lock().expect("window lock");
            w.query_wall_s += start.elapsed().as_secs_f64();
            let fresh: Vec<usize> = served
                .lock()
                .expect("served lock")
                .iter()
                .map(|s| s.sql)
                .filter(|i| !exact.contains_key(i))
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            for i in fresh {
                let truth = w.exact(&db, &pool[i]);
                exact.insert(i, truth);
            }
            w.ingest(&mut replay, batch, seg, tr);
        }
        let _ = std::fs::remove_dir_all(dir);
        let after = svc.metrics();
        let mut w = w.into_inner().expect("window lock");
        let hits = after.result_cache_hits - before.result_cache_hits;
        let lookups = hits + after.result_cache_misses - before.result_cache_misses;
        w.ctx(
            "result_cache_hit_share",
            hits as f64 / lookups.max(1) as f64,
        );
        for s in served.into_inner().expect("served lock") {
            let Some(Some(truth)) = exact.get(&s.sql) else {
                continue;
            };
            if let Err(e) = check(&s.answer.answer, truth, &mut w.acc) {
                w.fail(format!("{}: {e}", pool[s.sql]));
            }
        }
        (w, replay, after)
    };
    let (w0, _, _) = window(&Tracer::new(false), "probe0");
    let traced = a.trace.then(|| {
        let tr = Tracer::new(true);
        let (mut w1, replay, sm) = window(&tr, "probe1");
        let mut layers = Metrics::new();
        service_metrics(&w1.calls, &sm, &mut layers);
        replay.metrics(&tr, &mut layers);
        let sample = &pool[..REPLAY_QUERIES.min(pool.len())];
        if let Err(e) = replay_queries(&db, &HashMap::new(), sample, &tr, &mut layers) {
            w1.incorrect.push(format!("query-layer replay: {e}"));
        }
        (w1, tr, layers)
    });
    finish(w0, traced, &setup)
}

/// Exact answer over the first `rows` of the fact table.
fn exact_prefix(db: &BlinkDb, sql: &str, rows: &[u32]) -> Result<QueryAnswer, String> {
    let q = blinkdb_sql::parse(sql).map_err(|e| e.to_string())?;
    let bq = blinkdb_sql::bind(&q, &db.catalog()).map_err(|e| e.to_string())?;
    execute(
        &bq,
        TableRef::subset(db.fact(), rows),
        RateSpec::Exact,
        &HashMap::new(),
        ExecOptions {
            confidence: db.config().default_confidence,
            bootstrap: None,
            vectorized: true,
        },
    )
    .map_err(|e| format!("exact {sql}: {e}"))
}

/// What the live ingest side of one `ingest_live` window did.
struct LiveIngest {
    sent: usize,
    epoch: u64,
    folded: u64,
    refreshed: u64,
}

/// `ingest_live`: the Conviva instance behind a durable service (WAL and
/// checkpoints, fsync on, default cadence). Batches are sent open loop
/// every [`INGEST_PERIOD`]; one closed-loop client queries meanwhile.
/// Afterwards every answer is checked against exact execution over the
/// rows its epoch held (the table only grows, so those are a prefix of
/// the final one).
fn ingest_live(a: &Args) -> Outcome {
    let (db0, setup) = repeat_setup(|| {
        let db = conviva();
        let dir = scratch_dir(a, "setup");
        let svc = QueryService::with_ingest_durable(
            db.clone(),
            service_config(),
            IngestConfig::default(),
            durability(&dir),
        )
        .expect("durable service start");
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        db
    });
    let sqls = distinct_shuffled(
        query_mix(
            &query_rows(db0.fact()),
            &conviva_templates(),
            "sessiontimems",
            MIX_POOL * WORKERS,
            ERROR_5,
            derive_seed(a.seed, 1),
        )
        .into_iter()
        .map(|q| q.sql),
        derive_seed(a.seed, 5),
    );
    let seq = mix_sequence(sqls.len(), 0, 1, a.seed);
    let n_batches = (a.seconds / INGEST_PERIOD.as_secs_f64()).ceil() as usize;
    let batches = conviva_batches(a.seed, n_batches);
    let window = |tr: &Tracer, dir: &str| -> (Window, LiveIngest, ServiceMetrics) {
        let dir = scratch_dir(a, dir);
        let svc = QueryService::with_ingest_durable(
            db0.clone(),
            service_config(),
            IngestConfig::default(),
            durability(&dir),
        )
        .expect("durable service start");
        for sql in sqls.iter().rev().take(WARMUP) {
            let _ = svc.submit(sql).map(|h| h.wait());
        }
        let w = Mutex::new(Window::default());
        let served = Mutex::new(Vec::new());
        let rows_at = Mutex::new(HashMap::from([(db0.epoch().get(), db0.fact().num_rows())]));
        let lateness = Mutex::new(Vec::new());
        // The client thread alternates blocks: service queries for most
        // of each segment, then exact queries of what it was served on
        // the current snapshot, so the exact baseline samples the whole
        // window. Its times are kept apart from `w`, whose lock the
        // ingest thread takes after every batch.
        let mut exact = Window::default();
        let slot_len = Duration::from_secs_f64(a.seconds / SEGMENTS as f64);
        let start = Instant::now();
        let mut next = [0usize];
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut rows = db0.fact().num_rows();
                for (i, b) in batches.iter().enumerate() {
                    let due = start + INGEST_PERIOD * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    lateness
                        .lock()
                        .expect("lateness lock")
                        .push(ms(due.elapsed()));
                    let req = 1 << 40 | i as u64;
                    let root = tr.root(req, "ingest.send");
                    let (r, _) = tr.span(req, root, "service.append_rows", || {
                        svc.append_rows(b.clone())
                    });
                    let r = r.and_then(|_| {
                        tr.span(req, root, "service.flush_ingest", || svc.flush_ingest())
                            .0
                    });
                    tr.close(root);
                    let mut w = w.lock().expect("window lock");
                    w.attempted += 1;
                    match r {
                        Ok(epoch) => {
                            rows += b.len();
                            w.visible_ms.push(ms(due.elapsed()));
                            rows_at
                                .lock()
                                .expect("epoch map lock")
                                .insert(epoch.get(), rows);
                        }
                        Err(e) => w.fail(format!("ingest batch {i}: {e}")),
                    }
                }
            });
            let mut exact_next = 0usize;
            for seg in 0..SEGMENTS {
                let seg_start = Instant::now();
                let query_end = seg_start + slot_len.div_f64(1.0 + EXACT_SHARE);
                let one = std::slice::from_ref(&seq);
                service_clients(&svc, &sqls, one, &mut next, query_end, seg, tr, &w, &served);
                w.lock().expect("window lock").query_wall_s += seg_start.elapsed().as_secs_f64();
                let snapshot = svc.db();
                while next[0] > 0 && seg_start.elapsed() < slot_len {
                    exact.exact(&snapshot, &sqls[seq[exact_next % next[0]]]);
                    exact_next += 1;
                }
            }
        });
        let mut w = w.into_inner().expect("window lock");
        w.exact_ms = exact.exact_ms;
        w.attempted += exact.attempted;
        w.failed += exact.failed;
        w.failures.extend(exact.failures);
        let sm = svc.metrics();
        let live = LiveIngest {
            sent: w.visible_ms.len(),
            epoch: svc.current_epoch().get(),
            folded: sm.families_folded,
            refreshed: sm.families_refreshed,
        };
        let snapshot = svc.db();
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        let late = lateness.into_inner().expect("lateness lock");
        let busy: f64 = w.visible_ms.iter().zip(&late).map(|(v, l)| v - l).sum();
        w.ctx("ingest_batches", late.len());
        w.ctx("ingest_rows_per_batch", BATCH_ROWS);
        w.ctx("ingest_period_ms", INGEST_PERIOD.as_millis());
        w.ctx(
            "ingest_busy_share",
            format!("{:.3}", busy / 1e3 / a.seconds),
        );
        let max_late = late.iter().cloned().fold(0.0, f64::max);
        w.ctx("ingest_send_lateness_max_ms", format!("{max_late:.3}"));
        w.ctx("fsync", true);
        w.ctx("checkpoint_cadence", "4 MiB of WAL or 16 sealed segments");

        let served = served.into_inner().expect("served lock");
        let rows_at = rows_at.into_inner().expect("epoch map lock");
        let all_rows: Vec<u32> = (0..snapshot.fact().num_rows() as u32).collect();
        let mut truths: HashMap<(usize, u64), QueryAnswer> = HashMap::new();
        for s in &served {
            let key = (s.sql, s.epoch.get());
            let Some(&n) = rows_at.get(&key.1) else {
                w.fail(format!("answer at unpublished epoch {}", key.1));
                continue;
            };
            let truth = match truths.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => match exact_prefix(&snapshot, &sqls[s.sql], &all_rows[..n]) {
                    Ok(t) => v.insert(t),
                    Err(e) => {
                        w.fail(e);
                        continue;
                    }
                },
            };
            if let Err(e) = check(&s.answer.answer, truth, &mut w.acc) {
                w.fail(format!("{}: {e}", sqls[s.sql]));
            }
        }
        (w, live, sm)
    };
    let (w0, _, _) = window(&Tracer::new(false), "live0");
    let traced = a.trace.then(|| {
        let tr = Tracer::new(true);
        let (mut w1, live, sm) = window(&tr, "live1");
        let mut layers = Metrics::new();
        service_metrics(&w1.calls, &sm, &mut layers);
        // The ingest replay: the same batches through the same calls on
        // the pre-ingest instance must land where the live service did.
        let dir = scratch_dir(a, "replay");
        let mut replay = IngestReplay::new(db0.clone(), &dir, true).expect("ingest replay start");
        for (i, b) in batches.iter().take(live.sent).enumerate() {
            if let Err(e) = replay.apply(b, i as u64, &tr) {
                w1.incorrect.push(format!("replayed batch {i}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if replay.db.epoch().get() != live.epoch
            || replay.folded != live.folded
            || replay.refreshed != live.refreshed
        {
            w1.incorrect.push(format!(
                "ingest replay diverged: epoch {} vs live {}, folded {} vs {}, refreshed {} vs {}",
                replay.db.epoch().get(),
                live.epoch,
                replay.folded,
                live.folded,
                replay.refreshed,
                live.refreshed
            ));
        }
        replay.metrics(&tr, &mut layers);
        let sample = &sqls[..REPLAY_QUERIES.min(sqls.len())];
        if let Err(e) = replay_queries(&replay.db, &HashMap::new(), sample, &tr, &mut layers) {
            w1.incorrect.push(format!("query-layer replay: {e}"));
        }
        (w1, tr, layers)
    });
    finish(w0, traced, &setup)
}
