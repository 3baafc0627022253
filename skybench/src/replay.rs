//! The traced run: the workload's own round with spans around the calls
//! it makes, then a replay of the same inputs through the public layer
//! calls in pipeline order, each call inside a span.
//!
//! Ingest: `parse_line` → `transform` → `ArraySet::push` → `Request`
//! encode/decode → `Engine::apply_batch` → `Engine::commit`, beside
//! `Session::execute_batch` on a second server (the server layer is the
//! difference) and the B+-tree and heap inserts the engine makes per
//! row. Cone reads: `cone_key_ranges_at` → `index_range_committed` →
//! `separation_deg`. Per-layer times are span sums divided by the work
//! the span covered; counts are `obs_snapshot()` deltas of the traced
//! round.

use std::collections::BTreeMap;

use skyloader::skycat::gen::CatalogFile;
use skyloader::skycat::{parse_line, transform, CATALOG_TABLES};
use skyloader::skydb::btree::BPlusTree;
use skyloader::skydb::heap::TableHeap;
use skyloader::skydb::value::encode_row;
use skyloader::skydb::wire::{Request, Response};
use skyloader::skydb::{CmpOp, Expr, Key, Row, ServeConfig, Server, TableId, Value};
use skyloader::skyhtm::{cone_key_ranges_at, separation_deg, Cone};
use skyloader::skysim::cluster::AssignmentPolicy;
use skyloader::skysim::mem::MemoryModel;
use skyloader::skysim::time::TimeScale;
use skyloader::{load_night, ArraySet, LoaderConfig, ShardLoadConfig, ShardLoader, ShardRouter};

use crate::checks::COL_MAG;
use serde::Serialize;

use crate::trace::{summarize, Span, Tracer};
use crate::workloads::{self, paper_server, Fleet, Read, Round, Shape, Target};
use crate::{put, Metrics};

/// A traced run's trace: per-layer metrics, per-span-name totals and
/// every span.
#[derive(Serialize)]
pub struct TraceDoc {
    workload: String,
    seed: u64,
    untraced_timed_s: f64,
    traced_timed_s: f64,
    overhead_pct: f64,
    per_layer: Metrics,
    span_summary: BTreeMap<String, SpanSum>,
    spans: Vec<Span>,
}

/// Count, total and self time of the spans of one name.
#[derive(Serialize)]
struct SpanSum {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// At most this many reads of each kind are replayed.
const REPLAY_READS: usize = 400;
const REPLAY_SCANS: usize = 3;

/// Work counts the per-layer ratios divide by.
#[derive(Default)]
struct Work(BTreeMap<&'static str, f64>);

impl Work {
    fn add(&mut self, what: &'static str, n: f64) {
        *self.0.entry(what).or_insert(0.0) += n;
    }

    fn get(&self, what: &str) -> f64 {
        self.0.get(what).copied().unwrap_or(0.0)
    }
}

/// Replay the ingest of `files` through the layer calls.
fn ingest_replay(files: &[CatalogFile], obs: &[(i64, i64)], tracer: &Tracer, work: &mut Work) {
    let server = paper_server(obs);
    let engine = server.engine();
    let caller = paper_server(obs);
    let session = caller.connect();
    let cfg = LoaderConfig::paper();
    let tables: Vec<String> = CATALOG_TABLES.iter().map(|t| t.to_string()).collect();
    let tids: Vec<TableId> = tables
        .iter()
        .map(|t| engine.table_id(t).expect("catalog table"))
        .collect();
    let stmts: Vec<_> = tables
        .iter()
        .map(|t| session.prepare_insert(t).expect("prepared insert"))
        .collect();
    let mut applied_rows: Vec<Vec<Row>> = vec![Vec::new(); tables.len()];
    let mut peak_bytes = 0u64;

    for file in files {
        tracer.span("replay.file", 0, |fid| {
            let lines: Vec<&str> = file.text.lines().collect();
            work.add("lines", lines.len() as f64);
            let recs: Vec<_> = tracer.span("skycat.parse_line", fid, |_| {
                lines.iter().filter_map(|l| parse_line(l).ok()).collect()
            });
            work.add("records", recs.len() as f64);
            let rows: Vec<(&str, Row)> = tracer.span("skycat.transform", fid, |_| {
                recs.iter().filter_map(|r| transform(r).ok()).collect()
            });
            work.add("rows", rows.len() as f64);

            // Array-set buffering, sealing whenever a push asks for a flush.
            let mem = MemoryModel::new(
                cfg.client_heap_budget,
                4096,
                cfg.client_fault_penalty,
                TimeScale::ZERO,
            );
            let mut sets = Vec::new();
            tracer.span("arrayset.push", fid, |_| {
                let mut a = ArraySet::new(&tables, &cfg, mem);
                for (table, row) in rows {
                    let idx = a.index_of(table).expect("catalog table");
                    let full = a.push(idx, row);
                    peak_bytes = peak_bytes.max(a.footprint());
                    if full {
                        sets.push(a.seal());
                    }
                }
                if !a.is_empty() {
                    sets.push(a.seal());
                }
            });

            // Batches of `batch_size`, parent tables first, as the loader
            // sends them.
            let mut requests = Vec::new();
            for mut set in sets {
                for (idx, &table) in tids.iter().enumerate().take(set.table_count()) {
                    let rows = set.take(idx);
                    for chunk in rows.chunks(cfg.batch_size) {
                        requests.push((
                            idx,
                            Request::InsertBatch {
                                table,
                                rows: chunk.to_vec(),
                                fence: None,
                            },
                        ));
                    }
                }
            }
            let txn = engine.begin();
            for (idx, req) in requests {
                let n = match &req {
                    Request::InsertBatch { rows, .. } => rows.len() as f64,
                    _ => 0.0,
                };
                work.add("batched_rows", n);
                let mut buf = bytes::BytesMut::with_capacity(64);
                tracer.span("wire.encode", fid, |_| req.encode(&mut buf));
                work.add("wire_bytes", buf.len() as f64);
                let decoded = tracer.span("wire.decode", fid, |_| {
                    Request::decode(&mut &buf[..]).expect("own encoding decodes")
                });
                let Request::InsertBatch { table, rows, .. } = decoded else {
                    unreachable!("an insert batch decodes as one");
                };
                // Engine: apply, skipping each rejected row (Fig. 3).
                let mut kept = Vec::new();
                tracer.span("engine.apply_batch", fid, |_| {
                    let mut first = 0;
                    while first < rows.len() {
                        let out = engine.apply_batch(txn, table, &rows[first..]);
                        kept.push(first..first + out.applied);
                        match out.failed {
                            None => break,
                            Some((off, _)) => first += off + 1,
                        }
                    }
                });
                for range in kept {
                    applied_rows[idx].extend_from_slice(&rows[range]);
                }
                // The same batch through a session on the second server.
                tracer.span("server.execute_batch", fid, |_| {
                    let mut first = 0;
                    while first < rows.len() {
                        let out = session
                            .execute_batch(&stmts[idx], &rows[first..])
                            .expect("replay batch call");
                        match out.failed {
                            None => break,
                            Some((off, _)) => first += off + 1,
                        }
                    }
                });
            }
            tracer.span("engine.commit", fid, |_| {
                engine.commit(txn).expect("replay commit")
            });
            session.commit().expect("replay session commit");
            work.add("commits", 1.0);
        });
    }
    work.add("arrayset.peak_bytes", peak_bytes as f64);

    // The per-row structures inside `insert_row`, fed the applied rows.
    for (idx, rows) in applied_rows.iter().enumerate() {
        let schema = engine.schema(tids[idx]);
        let width: usize = schema
            .primary_key
            .iter()
            .map(|&c| schema.columns[c].dtype.width_hint() + 1)
            .sum();
        let keys: Vec<Key> = rows
            .iter()
            .map(|r| Key::project(r, &schema.primary_key))
            .collect();
        let mut tree = BPlusTree::with_key_width(true, width);
        tracer.span("btree.insert", 0, |_| {
            for (i, k) in keys.into_iter().enumerate() {
                let _ = tree.insert(k, i as u64);
            }
        });
        let mut heap = TableHeap::new(tids[idx]);
        tracer.span("heap.insert", 0, |_| {
            for r in rows {
                let mut buf = Vec::with_capacity(128);
                encode_row(r, &mut buf);
                heap.insert(buf.into_boxed_slice());
            }
        });
        work.add("applied_rows", rows.len() as f64);
    }
}

/// Replay reads against the engines that served them: point lookups,
/// cones through the HTM cover, filtered scans, and the decode of a
/// rows reply.
fn read_replay(servers: &[&Server], reads: &[Read], tracer: &Tracer, work: &mut Work) {
    let cfg = ServeConfig::default();
    let objects = servers[0].engine().table_id("objects").expect("objects");
    let pks: Vec<i64> = reads
        .iter()
        .filter_map(|r| {
            if let Read::Pk(id) = r {
                Some(*id)
            } else {
                None
            }
        })
        .take(REPLAY_READS)
        .collect();
    tracer.span("engine.pk_get", 0, |_| {
        for &id in &pks {
            let key = Key(vec![Value::Int(id)]);
            let found = servers
                .iter()
                .any(|s| matches!(s.engine().pk_get_committed(objects, &key), Ok(Some(_))));
            assert!(found, "replayed pk {id} not found");
        }
    });
    work.add("pk_gets", pks.len() as f64);

    for read in reads
        .iter()
        .filter(|r| matches!(r, Read::Cone(..)))
        .take(REPLAY_READS)
    {
        let Read::Cone(ra, dec, r) = *read else {
            continue;
        };
        tracer.span("replay.cone", 0, |cid| {
            let ranges = tracer.span("htm.cover", cid, |_| {
                cone_key_ranges_at(
                    &Cone::from_radec_arcmin(ra, dec, r),
                    cfg.cover_depth,
                    cfg.htm_depth,
                )
            });
            let candidates: Vec<Row> = tracer.span("engine.index_range", cid, |_| {
                let mut out = Vec::new();
                for s in servers {
                    for &(lo, hi) in &ranges {
                        let got = s
                            .engine()
                            .index_range_committed(
                                &cfg.cone_table,
                                &cfg.cone_index,
                                &Key(vec![Value::Int(lo)]),
                                &Key(vec![Value::Int(hi)]),
                            )
                            .expect("index range");
                        out.extend(got.rows);
                    }
                }
                out
            });
            let hits = tracer.span("htm.separation", cid, |_| {
                candidates
                    .iter()
                    .filter(|row| match (&row[2], &row[3]) {
                        (Value::Float(ora), Value::Float(odec)) => {
                            separation_deg(ra, dec, *ora, *odec) * 60.0 <= r
                        }
                        _ => false,
                    })
                    .count()
            });
            work.add("cones", 1.0);
            work.add("ranges", ranges.len() as f64);
            work.add("range_calls", (ranges.len() * servers.len()) as f64);
            work.add("candidates", candidates.len() as f64);
            work.add("cone_results", hits as f64);
        });
    }

    for read in reads
        .iter()
        .filter(|r| matches!(r, Read::Scan(_)))
        .take(REPLAY_SCANS)
    {
        let Read::Scan(limit) = *read else {
            continue;
        };
        let filter = Expr::cmp(COL_MAG, CmpOp::Lt, limit);
        for s in servers {
            let out = tracer.span("engine.scan", 0, |_| {
                s.engine()
                    .scan_where_committed(objects, Some(&filter))
                    .expect("filtered scan")
            });
            work.add("scan_examined", out.examined as f64);
        }
    }

    // Client-side decode of a rows reply: the unfiltered object scan.
    let rows = servers[0]
        .engine()
        .scan_where_committed(objects, None)
        .expect("scan")
        .rows;
    let n = rows.len();
    let mut buf = bytes::BytesMut::with_capacity(64);
    Response::Rows {
        rows,
        modeled_us: 0,
    }
    .encode(&mut buf);
    tracer.span("wire.rows_decode", 0, |_| {
        Response::decode(&mut &buf[..]).expect("own encoding decodes")
    });
    work.add("rows_decoded", n as f64);
}

/// Route the files through a fresh `ShardRouter` (timed), and, when the
/// workload has no shards of its own, load them into a two-zone group
/// so the shard layers are measured on this workload's inputs too.
fn shard_replay(
    round: &Round,
    tracer: &Tracer,
    work: &mut Work,
) -> (
    f64,
    f64,
    Vec<std::sync::Arc<Server>>,
    Option<std::sync::Arc<skyloader::skydb::ShardGroup>>,
) {
    let files = &round.ingest_files;
    let (group, registry) = match &round.target {
        Some(Target::Sharded(g, r)) => (g.clone(), r.clone()),
        _ => workloads::shard_group(&round.ingest_obs),
    };
    let mut router = ShardRouter::new(*group.map());
    tracer.span("shardload.route", 0, |_| {
        for f in files {
            router.route(f, None);
        }
    });
    work.add(
        "route_lines",
        files.iter().map(|f| f.text.lines().count() as f64).sum(),
    );

    let (applied, flushes) = if let Some(Target::Sharded(..)) = &round.target {
        let d = &round.ingest_delta;
        (d.counter("shard.rows_applied"), d.counter("shard.flushes"))
    } else {
        let before = registry.snapshot();
        let mut router = ShardRouter::new(*group.map());
        ShardLoader::new(group.clone(), ShardLoadConfig::default(), &registry)
            .load_files(&mut router, files, None)
            .expect("replayed sharded load");
        let d = registry.snapshot().since(&before);
        (d.counter("shard.rows_applied"), d.counter("shard.flushes"))
    };
    let zones: Vec<u32> = (0..group.zones()).collect();
    for read in round
        .reads
        .iter()
        .filter(|r| matches!(r, Read::Scan(_)))
        .take(REPLAY_SCANS)
    {
        let Read::Scan(limit) = *read else {
            continue;
        };
        let filter = Expr::cmp(COL_MAG, CmpOp::Lt, limit);
        tracer.span("shard.gather_each", 0, |_| {
            group
                .gather_each(&zones, |session, _| {
                    let r = session.query_scan_named("objects", Some(filter.clone()))?;
                    Ok((r.rows, r.modeled))
                })
                .expect("gather")
        });
        work.add("gathered_zones", zones.len() as f64);
    }
    let servers = zones.iter().map(|&z| group.server(z)).collect();
    (applied as f64, flushes as f64, servers, Some(group))
}

/// Run the workload's first round untraced and then traced on the same
/// inputs, replay the traced round's inputs through the layers, and
/// return both rounds, the per-layer metrics and the trace document.
pub fn traced_run(workload: &str, shape: &Shape, seed: u64) -> (Vec<Round>, Metrics, TraceDoc) {
    let mut plain = workloads::run_round(workload, shape, seed, 0, None);
    plain.target = None;
    plain.ingest_files.clear();
    let tracer = Tracer::default();
    let mut round = workloads::run_round(workload, shape, seed, 0, Some(&tracer));
    let overhead_pct = (round.timed_s / plain.timed_s - 1.0) * 100.0;

    let mut work = Work::default();
    ingest_replay(&round.ingest_files, &round.ingest_obs, &tracer, &mut work);
    let (shard_applied, shard_flushes, shard_servers, _group) =
        shard_replay(&round, &tracer, &mut work);
    match &round.target {
        Some(Target::Single(s)) => read_replay(&[s.as_ref()], &round.reads, &tracer, &mut work),
        _ => {
            let refs: Vec<&Server> = shard_servers.iter().map(|s| s.as_ref()).collect();
            read_replay(&refs, &round.reads, &tracer, &mut work)
        }
    }
    // The sharded path has no loader fleet: replay its night through the
    // fleet's two leased loaders so the fleet layer is measured on it too.
    let fleet = match round.fleet {
        Some(f) => f,
        None => {
            let server = paper_server(&round.ingest_obs);
            let before = server.obs_snapshot();
            let night = tracer.span("skyloader.load_night", 0, |_| {
                load_night(
                    &server,
                    &round.ingest_files,
                    &LoaderConfig::paper(),
                    2,
                    AssignmentPolicy::Dynamic,
                )
                .expect("replayed night loads")
            });
            Fleet::of(&night, &server.obs_snapshot().since(&before))
        }
    };
    round.target = None;
    round.ingest_files.clear();

    let spans = tracer.spans();
    let sum = summarize(&spans);
    let total_ns = |name: &str| sum.get(name).map_or(0.0, |s| s.1 as f64);
    let per = |name: &str, what: &str| total_ns(name) / work.get(what).max(1.0);

    let mut m = Metrics::new();
    put(
        &mut m,
        "skycat.parse_ns_per_row",
        per("skycat.parse_line", "lines"),
        "ns/row",
    );
    put(
        &mut m,
        "skycat.transform_ns_per_row",
        per("skycat.transform", "records"),
        "ns/row",
    );
    put(
        &mut m,
        "arrayset.push_ns_per_row",
        per("arrayset.push", "rows"),
        "ns/row",
    );
    put(
        &mut m,
        "arrayset.peak_bytes",
        work.get("arrayset.peak_bytes"),
        "B",
    );
    put(
        &mut m,
        "wire.encode_ns_per_row",
        per("wire.encode", "batched_rows"),
        "ns/row",
    );
    put(
        &mut m,
        "wire.decode_ns_per_row",
        per("wire.decode", "batched_rows"),
        "ns/row",
    );
    put(
        &mut m,
        "wire.bytes_per_row",
        work.get("wire_bytes") / work.get("batched_rows").max(1.0),
        "B/row",
    );
    put(
        &mut m,
        "wire.rows_decode_ns_per_row",
        per("wire.rows_decode", "rows_decoded"),
        "ns/row",
    );
    let apply = per("engine.apply_batch", "batched_rows");
    put(&mut m, "engine.apply_ns_per_row", apply, "ns/row");
    put(
        &mut m,
        "server.call_ns_per_row",
        per("server.execute_batch", "batched_rows") - apply,
        "ns/row",
    );
    put(
        &mut m,
        "btree.insert_ns_per_key",
        per("btree.insert", "applied_rows"),
        "ns/key",
    );
    put(
        &mut m,
        "heap.insert_ns_per_row",
        per("heap.insert", "applied_rows"),
        "ns/row",
    );
    put(
        &mut m,
        "engine.commit_us",
        per("engine.commit", "commits") / 1e3,
        "us",
    );
    put(
        &mut m,
        "engine.pk_get_ns",
        per("engine.pk_get", "pk_gets"),
        "ns",
    );
    put(
        &mut m,
        "engine.index_range_us",
        per("engine.index_range", "range_calls") / 1e3,
        "us",
    );
    put(
        &mut m,
        "engine.scan_ns_per_row",
        per("engine.scan", "scan_examined"),
        "ns/row",
    );
    put(
        &mut m,
        "htm.cover_us",
        per("htm.cover", "cones") / 1e3,
        "us",
    );
    put(
        &mut m,
        "htm.ranges_per_cone",
        work.get("ranges") / work.get("cones").max(1.0),
        "count",
    );
    put(
        &mut m,
        "cone.candidates_per_result",
        work.get("candidates") / work.get("cone_results").max(1.0),
        "ratio",
    );
    put(
        &mut m,
        "shardload.route_ns_per_row",
        per("shardload.route", "route_lines"),
        "ns/row",
    );
    put(
        &mut m,
        "shard.rows_applied_per_row",
        shard_applied / work.get("rows").max(1.0),
        "ratio",
    );
    put(&mut m, "shard.flushes", shard_flushes, "count");
    put(
        &mut m,
        "shard.gather_us_per_zone",
        per("shard.gather_each", "gathered_zones") / 1e3,
        "us",
    );

    let rows = round.ingest_rows.max(1) as f64;
    let d = &round.ingest_delta;
    let rd = &round.read_delta;
    put(
        &mut m,
        "bulk.calls_per_krow",
        d.counter("engine.batch_calls") as f64 / rows * 1e3,
        "calls/krow",
    );
    put(
        &mut m,
        "bulk.commits",
        d.counter("engine.commits") as f64,
        "count",
    );
    put(
        &mut m,
        "engine.index_entries_per_row",
        d.counter("engine.index_entries") as f64 / d.counter("engine.rows_inserted").max(1) as f64,
        "ratio",
    );
    put(
        &mut m,
        "wal.bytes_per_row",
        d.counter("wal.bytes_flushed") as f64 / rows,
        "B/row",
    );
    put(
        &mut m,
        "wal.flushes",
        d.counter("wal.flushes") as f64,
        "count",
    );
    let scans = round
        .reads
        .iter()
        .filter(|r| matches!(r, Read::Scan(_)))
        .count()
        .max(1);
    put(
        &mut m,
        "engine.scan_pages",
        rd.counter("engine.scan_pages") as f64 / scans as f64,
        "pages",
    );
    put(
        &mut m,
        "cache.hits",
        rd.counter("cache.hits") as f64,
        "count",
    );
    put(
        &mut m,
        "cache.misses",
        rd.counter("cache.misses") as f64,
        "count",
    );
    put(
        &mut m,
        "cache.evictions",
        rd.counter("cache.evictions") as f64,
        "count",
    );
    put(
        &mut m,
        "lock.waits",
        rd.counter("lock.waits") as f64,
        "count",
    );
    let queue = &round.queue_us;
    put(
        &mut m,
        "serve.queue_us",
        queue.iter().sum::<f64>() / queue.len().max(1) as f64,
        "us",
    );
    put(&mut m, "fleet.idle_s", fleet.idle_s, "s");
    put(&mut m, "fleet.imbalance", fleet.imbalance, "ratio");
    put(&mut m, "fleet.grants", fleet.grants, "count");
    put(&mut m, "trace.overhead_pct", overhead_pct, "%");
    put(&mut m, "trace.spans", spans.len() as f64, "count");

    let doc = TraceDoc {
        workload: workload.to_string(),
        seed,
        untraced_timed_s: plain.timed_s,
        traced_timed_s: round.timed_s,
        overhead_pct,
        per_layer: m.clone(),
        span_summary: sum
            .iter()
            .map(|(name, &(count, total_ns, self_ns))| {
                (
                    name.to_string(),
                    SpanSum {
                        count,
                        total_ns,
                        self_ns,
                    },
                )
            })
            .collect(),
        spans,
    };
    (vec![plain, round], m, doc)
}
