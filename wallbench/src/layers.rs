//! Per-layer timing. Each function here calls one layer's public
//! functions from the benchmark's own code, inside spans, and turns the
//! spans into per-layer metrics.

use crate::measure::{answer_digest, mean, median, put, us, Metrics, Tracer};
use blinkdb_common::rng::derive_seed;
use blinkdb_common::Value;
use blinkdb_core::{BlinkDb, CheckpointState, Compactor, CompactorConfig, Maintainer};
use blinkdb_estimator::{BootstrapSpec, DEFAULT_REPLICATES};
use blinkdb_exec::{ErrorMethod, ExecOptions, PartialAggregates, QueryPlan, RateSpec};
use blinkdb_persist::{encode_batch, Wal};
use blinkdb_service::{IngestConfig, ServiceMetrics};
use blinkdb_storage::{RowSet, Table};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed stream the query pipeline draws bootstrap replicates from:
/// `(config seed, data epoch)`, as `blinkdb_core::query` derives it.
fn bootstrap_seed(db: &BlinkDb) -> u64 {
    derive_seed(db.config().seed, 0xB007_5EED ^ db.epoch().get())
}

/// Replays each query layer by layer on `db` and reports the query-path
/// layer metrics. The hinted query (`query_profiled` with the profile
/// its unhinted run returned) is rebuilt from its parts — partition,
/// compile, one `scan_set` per partition merged in order, finish — and
/// a closed-form rebuild must equal the hinted answer bit for bit.
pub fn replay_queries(
    db: &BlinkDb,
    dims: &HashMap<String, &Table>,
    sqls: &[String],
    tr: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut probe = Vec::new();
    let mut fanout_self = Vec::new();
    let mut scan = Vec::new();
    let mut exact_scan = Vec::new();
    let mut boot_extra = Vec::new();
    let mut rows_read = Vec::new();
    let mut parts_scanned = Vec::new();
    let (mut scanned, mut matched, mut scan_s) = (0u64, 0u64, 0.0f64);
    for (i, sql) in sqls.iter().enumerate() {
        let req = i as u64;
        let root = tr.root(req, "replay.query");
        let (q, t_parse) = tr.span(req, root, "sql.parse", || blinkdb_sql::parse(sql));
        let q = q.map_err(|e| format!("parse {sql}: {e}"))?;
        let (bq, t_bind) = tr.span(req, root, "sql.bind", || {
            blinkdb_sql::bind(&q, &db.catalog())
        });
        let bq = bq.map_err(|e| format!("bind {sql}: {e}"))?;
        let (r, t_unhinted) = tr.span(req, root, "core.query_unhinted", || {
            db.query_profiled(sql, None)
        });
        let (unhinted, profile) = r.map_err(|e| format!("query {sql}: {e}"))?;
        rows_read.push(unhinted.rows_read as f64);
        parts_scanned.push(unhinted.partitions_scanned as f64);
        let (exact, t_exact) = tr.span(req, root, "exec.exact", || db.query_exact_audit(sql));
        exact.map_err(|e| format!("exact {sql}: {e}"))?;
        exact_scan.push(us(t_exact) - us(t_parse) - us(t_bind));
        let Some(profile) = profile else {
            tr.close(root);
            continue;
        };
        let (r, t_hinted) = tr.span(req, root, "core.query_hinted", || {
            db.query_profiled(sql, Some(&profile))
        });
        let (hinted, _) = r.map_err(|e| format!("hinted {sql}: {e}"))?;
        // A cached plan that cannot meet the bound falls back to the
        // full pipeline; such a run has no probe-free parts to rebuild.
        if hinted.probe_s > 0.0 {
            tr.close(root);
            continue;
        }
        probe.push(us(t_unhinted) - us(t_hinted));

        let family = &db.families()[profile.family_idx];
        let chosen = (0..family.num_resolutions())
            .find(|&i| family.resolution(i).cap == hinted.resolution_cap)
            .ok_or_else(|| format!("no resolution with cap {}", hinted.resolution_cap))?;
        let bootstrap = match hinted.method {
            ErrorMethod::Bootstrap { replicates } => Some(BootstrapSpec {
                replicates,
                seed: bootstrap_seed(db),
                force: false,
            }),
            _ => None,
        };
        let opts = ExecOptions {
            confidence: db.config().default_confidence,
            bootstrap,
            vectorized: true,
        };
        let (view, rates) = family.view(chosen);
        let k = hinted.partitions_total as usize;
        let (parts, t_part) = tr.span(req, root, "storage.partitioned", || {
            (k > 1).then(|| family.partitioned(chosen, k))
        });
        let row_sets: Vec<RowSet<'_>> = match &parts {
            Some(p) => p
                .partitions()
                .iter()
                .map(|p| RowSet::Rows(p.rows()))
                .collect(),
            None => vec![view.row_set()],
        };
        let (plan, t_compile) = tr.span(req, root, "exec.compile", || {
            QueryPlan::compile(&bq, family.table(), dims, opts)
        });
        let plan = plan.map_err(|e| format!("compile {sql}: {e}"))?;
        let mut acc = PartialAggregates::default();
        let mut t_scan = Duration::ZERO;
        for rs in &row_sets {
            let (partial, t) = tr.span(req, root, "exec.scan_set", || {
                plan.scan_set(rs.clone(), rates)
            });
            t_scan += t;
            scanned += partial.rows_scanned;
            matched += partial.rows_matched;
            acc.merge(partial);
        }
        scan_s += t_scan.as_secs_f64();
        let scan_exact = matches!(rates, RateSpec::Exact);
        let (rebuilt, t_finish) =
            tr.span(req, root, "exec.finish", || plan.finish(acc, scan_exact));
        if hinted.method == ErrorMethod::ClosedForm
            && answer_digest(&rebuilt) != answer_digest(&hinted.answer)
        {
            return Err(format!("replayed answer differs from the query's: {sql}"));
        }
        scan.push(us(t_scan));
        fanout_self.push(
            us(t_hinted)
                - us(t_parse)
                - us(t_bind)
                - us(t_part)
                - us(t_compile)
                - us(t_scan)
                - us(t_finish),
        );

        // Bootstrap replicate cost: the same scans with and without a
        // replicate spec (closed-form aggregates attach none).
        let mut with_b = opts;
        with_b.bootstrap = Some(BootstrapSpec {
            replicates: DEFAULT_REPLICATES,
            seed: bootstrap_seed(db),
            force: false,
        });
        let mut without_b = opts;
        without_b.bootstrap = None;
        let plain = QueryPlan::compile(&bq, family.table(), dims, without_b)
            .map_err(|e| format!("compile {sql}: {e}"))?;
        let boot = QueryPlan::compile(&bq, family.table(), dims, with_b)
            .map_err(|e| format!("compile {sql}: {e}"))?;
        // Interleaved repeats, best of three each, so cache warmth and
        // order do not masquerade as replicate cost.
        let (mut t_plain, mut t_boot) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let mut p = 0.0;
            let mut b = 0.0;
            for rs in &row_sets {
                p += us(tr
                    .span(req, root, "estimator.scan_plain", || {
                        plain.scan_set(rs.clone(), rates)
                    })
                    .1);
                b += us(tr
                    .span(req, root, "estimator.scan_bootstrap", || {
                        boot.scan_set(rs.clone(), rates)
                    })
                    .1);
            }
            t_plain = t_plain.min(p);
            t_boot = t_boot.min(b);
        }
        boot_extra.push(t_boot - t_plain);
        tr.close(root);
    }
    if scan.is_empty() {
        return Err("no query could be rebuilt from its parts".into());
    }
    put(
        m,
        "sql.parse_us",
        median(&tr.durations_us("sql.parse")),
        "us",
    );
    put(m, "sql.bind_us", median(&tr.durations_us("sql.bind")), "us");
    put(m, "core.probe_us", median(&probe), "us");
    put(m, "core.fanout_self_us", median(&fanout_self), "us");
    let part = tr.durations_us("storage.partitioned");
    put(m, "storage.partition_us", median(&part), "us");
    put(
        m,
        "exec.compile_us",
        median(&tr.durations_us("exec.compile")),
        "us",
    );
    put(m, "exec.scan_us", median(&scan), "us");
    put(m, "exec.scan_rows_per_s", scanned as f64 / scan_s, "1/s");
    put(
        m,
        "exec.finish_us",
        median(&tr.durations_us("exec.finish")),
        "us",
    );
    put(
        m,
        "exec.match_ratio",
        matched as f64 / scanned.max(1) as f64,
        "ratio",
    );
    put(m, "exec.exact_scan_us", median(&exact_scan), "us");
    put(m, "core.rows_read_per_query", mean(&rows_read), "count");
    put(
        m,
        "core.partitions_scanned_per_query",
        mean(&parts_scanned),
        "count",
    );
    put(m, "estimator.bootstrap_scan_us", mean(&boot_extra), "us");
    Ok(())
}

/// One service call as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCall {
    pub submit_us: f64,
    pub queue_wait_us: f64,
    /// From the `submit` call to the answer in hand.
    pub total_us: f64,
}

/// Service-layer metrics from the client's calls and the service's own
/// counters.
pub fn service_metrics(calls: &[ServiceCall], sm: &ServiceMetrics, m: &mut Metrics) {
    let col = |f: fn(&ServiceCall) -> f64| calls.iter().map(f).collect::<Vec<_>>();
    put(m, "service.submit_us", median(&col(|c| c.submit_us)), "us");
    put(
        m,
        "service.queue_wait_us",
        median(&col(|c| c.queue_wait_us)),
        "us",
    );
    let run = col(|c| (c.total_us - c.submit_us - c.queue_wait_us).max(0.0));
    put(m, "service.run_us", median(&run), "us");
    put(
        m,
        "service.result_cache_hit_ratio",
        sm.result_cache_hit_rate,
        "ratio",
    );
    put(
        m,
        "service.elp_cache_hit_ratio",
        sm.elp_cache_hit_rate,
        "ratio",
    );
    let submitted = sm.submitted.max(1) as f64;
    let rejected = sm.rejected_unsatisfiable + sm.rejected_queue_full;
    put(
        m,
        "service.rejected_ratio",
        rejected as f64 / submitted,
        "ratio",
    );
    put(
        m,
        "service.degraded_ratio",
        sm.degraded as f64 / submitted,
        "ratio",
    );
    let purged = sm.stale_results_purged as f64 / sm.epochs_published.max(1) as f64;
    put(m, "service.stale_results_purged", purged, "count");
}

/// The service's ingest thread, replayed through the same public calls
/// in the same order on a private copy of the instance: WAL append,
/// `append_rows`, `fold_segment_or_refresh`, snapshot clone (publish),
/// a compaction tick, sample-health gauges, and an incremental
/// checkpoint on the service's default cadence.
pub struct IngestReplay {
    pub db: BlinkDb,
    published: Option<BlinkDb>,
    dir: PathBuf,
    fsync: bool,
    wal: Wal,
    maintainer: Maintainer,
    compactor: Compactor,
    checkpoint: CheckpointState,
    snapshot_wal_bytes: u64,
    snapshot_sealed_segments: u64,
    wal_bytes_since: u64,
    sealed_since: u64,
    user_bytes_since: u64,
    pub folded: u64,
    pub refreshed: u64,
    /// `(framed WAL bytes, batch payload bytes)` per batch.
    wal_bytes: Vec<(u64, u64)>,
    /// `(checkpoint bytes written, batch payload bytes it covers)`.
    checkpoint_bytes: Vec<(u64, u64)>,
}

impl IngestReplay {
    /// Opens a fresh WAL under `dir` and writes the initial checkpoint,
    /// as a durable service does when it starts.
    pub fn new(db: BlinkDb, dir: &Path, fsync: bool) -> Result<Self, String> {
        let durability = blinkdb_service::DurabilityConfig::new(dir);
        let registry = blinkdb_telemetry::Registry::new();
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut wal = Wal::open(dir.join("wal.log"), fsync).map_err(|e| e.to_string())?;
        wal.set_telemetry(registry.clone());
        wal.reset().map_err(|e| e.to_string())?;
        let mut checkpoint = CheckpointState::default();
        db.save_incremental(dir, &[], fsync, &mut checkpoint)
            .map_err(|e| e.to_string())?;
        let cfg = IngestConfig::default();
        Ok(IngestReplay {
            db,
            published: None,
            dir: dir.to_path_buf(),
            fsync,
            wal,
            maintainer: Maintainer::new(cfg.drift_threshold).with_telemetry(registry.clone()),
            compactor: Compactor::new(CompactorConfig::default()).with_telemetry(registry),
            checkpoint,
            snapshot_wal_bytes: durability.snapshot_wal_bytes,
            snapshot_sealed_segments: durability.snapshot_sealed_segments,
            wal_bytes_since: 0,
            sealed_since: 0,
            user_bytes_since: 0,
            folded: 0,
            refreshed: 0,
            wal_bytes: Vec::new(),
            checkpoint_bytes: Vec::new(),
        })
    }

    /// Applies one batch; returns the wall time until the whole pass
    /// (the point a `flush_ingest` caller would return) ended.
    pub fn apply(
        &mut self,
        batch: &[Vec<Value>],
        req: u64,
        tr: &Tracer,
    ) -> Result<Duration, String> {
        let start = Instant::now();
        let root = tr.root(req, "ingest.batch");
        self.db
            .fact()
            .validate_rows(batch)
            .map_err(|e| e.to_string())?;
        let user = encode_batch(batch);
        let mut payload = self.db.epoch().get().to_le_bytes().to_vec();
        payload.extend_from_slice(&user);
        let (framed, _) = tr.span(req, root, "persist.wal_append", || {
            self.wal.append(&payload)
        });
        let framed = framed.map_err(|e| e.to_string())?;
        self.wal_bytes.push((framed, user.len() as u64));
        self.wal_bytes_since += framed;
        self.user_bytes_since += user.len() as u64;
        let (range, _) = tr.span(req, root, "core.append_rows", || self.db.append_rows(batch));
        range.map_err(|e| e.to_string())?;
        let sealed = self
            .db
            .segments()
            .segments()
            .last()
            .expect("append seals")
            .clone();
        let (report, _) = tr.span(req, root, "maintenance.fold", || {
            self.maintainer
                .fold_segment_or_refresh(&mut self.db, &sealed)
        });
        let report = report.map_err(|e| e.to_string())?;
        self.folded += report.folded.len() as u64;
        self.refreshed += report.refreshed.len() as u64;
        tr.span(req, root, "core.publish_clone", || {
            self.published = Some(self.db.clone());
        });
        tr.span(req, root, "maintenance.compact", || {
            self.compactor.tick(&mut self.db, &[])
        });
        let (health, _) = tr.span(req, root, "maintenance.health", || {
            self.maintainer.publish_health(&self.db)
        });
        health.map_err(|e| e.to_string())?;
        self.sealed_since += 1;
        let wal_trip =
            self.snapshot_wal_bytes > 0 && self.wal_bytes_since >= self.snapshot_wal_bytes;
        let seal_trip =
            self.snapshot_sealed_segments > 0 && self.sealed_since >= self.snapshot_sealed_segments;
        if wal_trip || seal_trip {
            let (saved, _) = tr.span(req, root, "persist.checkpoint", || {
                let report =
                    self.db
                        .save_incremental(&self.dir, &[], self.fsync, &mut self.checkpoint)?;
                self.wal.reset()?;
                Ok::<_, blinkdb_common::error::BlinkError>(report)
            });
            let saved = saved.map_err(|e| e.to_string())?;
            self.checkpoint_bytes
                .push((saved.bytes_written, self.user_bytes_since));
            self.wal_bytes_since = 0;
            self.sealed_since = 0;
            self.user_bytes_since = 0;
        }
        tr.close(root);
        Ok(start.elapsed())
    }

    /// Ingest-layer metrics from the spans of every applied batch.
    pub fn metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let batches = self.wal_bytes.len().max(1) as f64;
        let med = |name: &str| {
            let d = tr.durations_us(name);
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        put(m, "persist.wal_append_us", med("persist.wal_append"), "us");
        let ratio = |v: &[(u64, u64)]| {
            let (a, b) = v.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
            a as f64 / b.max(1) as f64
        };
        put(
            m,
            "persist.wal_bytes_per_user_byte",
            ratio(&self.wal_bytes),
            "ratio",
        );
        put(m, "core.append_rows_us", med("core.append_rows"), "us");
        put(m, "maintenance.fold_us", med("maintenance.fold"), "us");
        put(
            m,
            "maintenance.families_folded",
            self.folded as f64 / batches,
            "count",
        );
        put(
            m,
            "maintenance.families_refreshed",
            self.refreshed as f64 / batches,
            "count",
        );
        put(m, "core.publish_clone_us", med("core.publish_clone"), "us");
        put(
            m,
            "maintenance.compact_us",
            med("maintenance.compact"),
            "us",
        );
        put(m, "maintenance.health_us", med("maintenance.health"), "us");
        put(m, "persist.checkpoint_us", med("persist.checkpoint"), "us");
        put(
            m,
            "persist.checkpoint_bytes_per_user_byte",
            ratio(&self.checkpoint_bytes),
            "ratio",
        );
    }
}
