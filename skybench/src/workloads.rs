//! The three workloads, each run as whole rounds: set-up, a timed ingest,
//! a read phase, then the checks.
//!
//! Every workload uses the shipped configuration: `DbConfig::paper` at
//! `TimeScale::ZERO` (modeled costs accounted, never slept),
//! `LoaderConfig::paper()`, the default `FleetPolicy` inside it, and the
//! default `ServeConfig`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyloader::skycat::gen::{generate_observation, CatalogFile, ExpectedCounts, GenConfig};
use skyloader::skycat::CATALOG_TABLES;
use skyloader::skydb::serve::{FastOutcome, Query, QueryService, ServeConfig};
use skyloader::skydb::shard::{GatherPolicy, ShardGroup, ZoneMap};
use skyloader::skydb::{CmpOp, DbConfig, Expr, Row, Server, Value};
use skyloader::skyobs::{Registry, Snapshot};
use skyloader::skysim::cluster::AssignmentPolicy;
use skyloader::skysim::rng::SplitMix64;
use skyloader::skysim::time::TimeScale;
use skyloader::{
    fresh_catalog_server, load_night, LoaderConfig, NightReport, ShardLoadConfig, ShardLoader,
    ShardRouter, ZONED_TABLES,
};

use crate::checks::{self, Deferred, Known, Reference};
use crate::sys;
use crate::trace::{maybe, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["night-fleet", "serve-archive", "sharded-night"];

/// The fast-queue user every benchmark query runs as.
const USER: &str = "bench";
/// The observation `fresh_catalog_server` seeds (sharded-night loads it).
const SHARD_OBS: i64 = 100;
/// The declination band the generator's four CCD columns cover.
pub const DEC_BAND: (f64, f64) = (-1.2, 1.2);
/// Declination zones of the sharded workload.
pub const ZONES: u32 = 2;

/// Point lookups per small cone, as in the fast-queue part of the
/// repository's CasJobs-style user (`skyloader::serving`: 45% `PkLookup`
/// to 35% small `Cone`). Its wide cones, which demote to the slow queue,
/// and its batch scans are not sent; see the README.
pub const PK_PER_CONE: (usize, usize) = (9, 7);

/// Input sizes. `full()` is what the benchmark measures; `reduced()` is
/// the same code on small inputs, for the self-tests.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Catalog files per night.
    pub files: usize,
    /// Frames per CCD column (the generator's size knob).
    pub frames_per_ccd: usize,
    /// serve-archive: nights preloaded before the timed phase.
    pub preload_nights: usize,
    /// serve-archive: nights ingested during the timed phase.
    pub ingest_nights: usize,
    /// Quiet read phase: cones per round (point lookups follow in
    /// [`PK_PER_CONE`] proportion).
    pub cones: usize,
    /// serve-archive: cones in the one pass of the mix sent between the
    /// ingest files.
    pub mix_cones: usize,
    /// Filtered scans per quiet read phase.
    pub scans: usize,
    /// serve-archive: filtered scans in one pass of the mix.
    pub mix_scans: usize,
    /// Fewest rounds a run makes.
    pub min_rounds: usize,
    /// night-fleet and sharded-night: times each round's set-up is made
    /// and timed (one set-up takes about 0.15 s, short enough for a busy
    /// spell of the host to double it, so one sample per round is not
    /// enough for a steady median).
    pub setup_repeats: usize,
    /// serve-archive: heap pages the preloaded archive must exceed.
    pub archive_pages: u64,
}

impl Shape {
    /// The measured shape: paper-sized nights.
    pub fn full() -> Shape {
        Shape {
            files: 28,
            frames_per_ccd: 4,
            preload_nights: 4,
            ingest_nights: 4,
            cones: 4200,
            mix_cones: 1400,
            scans: 6,
            mix_scans: 12,
            min_rounds: 3,
            setup_repeats: 4,
            archive_pages: DbConfig::paper(TimeScale::ZERO).cache_pages as u64,
        }
    }

    /// A reduced shape for the self-tests.
    #[cfg(test)]
    pub fn reduced() -> Shape {
        Shape {
            files: 3,
            frames_per_ccd: 2,
            preload_nights: 1,
            ingest_nights: 1,
            cones: 35,
            mix_cones: 35,
            scans: 2,
            mix_scans: 2,
            min_rounds: 1,
            setup_repeats: 2,
            archive_pages: 0,
        }
    }

    /// Point lookups, cones and scans for `cones` cones and `scans`
    /// scans.
    fn reads(cones: usize, scans: usize) -> [(&'static str, usize); 3] {
        let pk = cones * PK_PER_CONE.0 / PK_PER_CONE.1;
        [("pk", pk), ("cone", cones), ("scan", scans)]
    }

    fn night(&self, seed: u64, obs_id: i64, error_rate: f64) -> Vec<CatalogFile> {
        let mut cfg = GenConfig::night(seed, obs_id).with_error_rate(error_rate);
        cfg.files = self.files;
        cfg.frames_per_ccd = self.frames_per_ccd;
        generate_observation(&cfg)
    }

    /// The sky footprint of a night: ra span of the drift-scan files.
    fn ra_span(&self) -> (f64, f64) {
        (150.0, 150.0 + 0.55 * (self.files as f64 - 1.0) + 0.6)
    }
}

/// One read the benchmark sends through the fast queue.
#[derive(Debug, Clone)]
pub enum Read {
    /// Primary-key lookup of an object id.
    Pk(i64),
    /// Cone: ra, dec (degrees), radius (arcmin).
    Cone(f64, f64, f64),
    /// Filtered scan `mag_auto < limit`.
    Scan(f64),
}

impl Read {
    fn kind(&self) -> &'static str {
        match self {
            Read::Pk(_) => "pk",
            Read::Cone(..) => "cone",
            Read::Scan(_) => "scan",
        }
    }

    fn query(&self) -> Query {
        match *self {
            Read::Pk(id) => Query::PkLookup {
                table: "objects".into(),
                key: vec![Value::Int(id)],
            },
            Read::Cone(ra, dec, r) => Query::Cone {
                ra_deg: ra,
                dec_deg: dec,
                radius_arcmin: r,
            },
            Read::Scan(limit) => Query::Scan {
                table: "objects".into(),
                filter: Some(Expr::cmp(checks::COL_MAG, CmpOp::Lt, limit)),
            },
        }
    }
}

/// Draw a seeded read: point lookups of committed ids, cones of 1–6
/// arcmin anywhere in the night's footprint, scans selecting the
/// brightest ~0–5% of objects.
fn draw_read(rng: &mut SplitMix64, kind: &str, ids: &[i64], shape: &Shape) -> Read {
    match kind {
        "pk" => Read::Pk(ids[rng.next_below(ids.len() as u64) as usize]),
        "cone" => {
            let (ra0, ra1) = shape.ra_span();
            Read::Cone(
                rng.next_f64_range(ra0, ra1),
                rng.next_f64_range(DEC_BAND.0, DEC_BAND.1),
                rng.next_f64_range(1.0, 6.0),
            )
        }
        _ => Read::Scan(rng.next_f64_range(14.0, 14.4)),
    }
}

/// The read kinds of one pass of the serve-archive mix: point lookups and
/// cones in a seeded order, and the scans evenly spaced through it. A
/// scan reads the whole table, which doubles over the pass, so scans
/// placed at random would make the scan median follow where they fell.
fn mix(rng: &mut SplitMix64, shape: &Shape) -> Vec<&'static str> {
    let [pk, cone, (scan, scans)] = Shape::reads(shape.mix_cones, shape.mix_scans);
    let mut kinds: Vec<&str> = [pk, cone]
        .into_iter()
        .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    rng.shuffle(&mut kinds);
    let len = kinds.len();
    for i in (0..scans).rev() {
        kinds.insert((2 * i + 1) * len / (2 * scans), scan);
    }
    kinds
}

/// The quiet read phase's plan: each kind in its own block (point
/// lookups, then cones, then scans), so one kind's latencies are not
/// coloured by the caches another kind just swept.
fn read_plan(rng: &mut SplitMix64, ids: &[i64], shape: &Shape) -> Vec<Read> {
    Shape::reads(shape.cones, shape.scans)
        .into_iter()
        .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
        .map(|k| draw_read(rng, k, ids, shape))
        .collect()
}

/// Operations attempted and failed, by kind.
#[derive(Debug, Default, Clone)]
pub struct Ops(pub BTreeMap<&'static str, (u64, u64)>);

impl Ops {
    fn attempt(&mut self, kind: &'static str, n: u64) {
        self.0.entry(kind).or_default().0 += n;
    }

    fn fail(&mut self, kind: &'static str, n: u64) {
        self.0.entry(kind).or_default().1 += n;
    }

    /// Total attempted.
    pub fn attempted(&self) -> u64 {
        self.0.values().map(|v| v.0).sum()
    }

    /// Total failed.
    pub fn failed(&self) -> u64 {
        self.0.values().map(|v| v.1).sum()
    }
}

/// Loader-fleet figures of one night load.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fleet {
    /// nodes × makespan − Σ per-file wall time, seconds.
    pub idle_s: f64,
    /// Busiest over idlest node busy time.
    pub imbalance: f64,
    /// Leases granted.
    pub grants: f64,
}

impl Fleet {
    pub fn of(night: &NightReport, delta: &Snapshot) -> Fleet {
        let busy: f64 = night.files.iter().map(|f| f.elapsed.as_secs_f64()).sum();
        Fleet {
            idle_s: night.nodes as f64 * night.makespan.as_secs_f64() - busy,
            imbalance: night.node_imbalance,
            grants: delta.counter("fleet.grants") as f64,
        }
    }
}

/// What one round measured and what the traced replay needs from it.
#[derive(Default)]
pub struct Round {
    /// Set-up times: one per set-up made.
    pub setup_s: Vec<f64>,
    pub ingest_rows: u64,
    pub ingest_wall_s: f64,
    pub ingest_cpu_s: f64,
    /// serve-archive: krows/s of each ingest file, loaded one at a time
    /// between reads.
    pub file_krows_per_s: Vec<f64>,
    /// Wall time of the ingest and read phases together.
    pub timed_s: f64,
    /// Read latencies by read kind, µs of the reading thread's CPU time
    /// (see [`send`]).
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
    /// Client latency minus the serving tier's own wall time, µs.
    pub queue_us: Vec<f64>,
    pub store_bytes_per_row: f64,
    /// Peak resident memory (`VmHWM`), MB, read once the repository is
    /// complete and before the benchmark scans it for its references.
    pub peak_rss_mb: f64,
    /// Heap pages of the whole store at the end of the round.
    pub heap_pages: u64,
    pub ops: Ops,
    pub errors: Vec<String>,
    /// Counter deltas over the ingest and over the read phase.
    pub ingest_delta: Snapshot,
    pub read_delta: Snapshot,
    pub fleet: Option<Fleet>,
    /// The round's ingest input and the observations it references.
    pub ingest_files: Vec<CatalogFile>,
    pub ingest_obs: Vec<(i64, i64)>,
    /// The reads the round sent.
    pub reads: Vec<Read>,
    /// Where the reads ran, kept for the traced replay.
    pub target: Option<Target>,
}

/// The repository a round's reads ran against.
pub enum Target {
    Single(Arc<Server>),
    Sharded(Arc<ShardGroup>, Arc<Registry>),
}

impl Round {
    fn fail(&mut self, kind: &'static str, err: String) {
        self.ops.fail(kind, 1);
        self.errors.push(err);
    }
}

/// A paper-configured server with the schema, the static tables and the
/// given `(night, observation)` headers.
pub fn paper_server(obs: &[(i64, i64)]) -> Arc<Server> {
    let server = Server::start(DbConfig::paper(TimeScale::ZERO));
    let e = server.engine();
    skyloader::skycat::create_all(e).expect("schema");
    skyloader::skycat::seed_static(e).expect("static tables");
    for &(night, obs_id) in obs {
        skyloader::skycat::seed_observation(e, night, obs_id).expect("observation header");
    }
    server
}

fn committed_counts(servers: &[&Server], replicated_once: bool) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for table in CATALOG_TABLES {
        let zoned = ZONED_TABLES.contains(&table);
        let mut n = 0;
        for (i, s) in servers.iter().enumerate() {
            if replicated_once && !zoned && i > 0 {
                continue;
            }
            let e = s.engine();
            n += e.row_count(e.table_id(table).expect("catalog table"));
        }
        out.insert(table.to_string(), n);
    }
    out
}

/// Record `store.bytes_per_row` — heap pages × 8192 plus durable WAL
/// bytes, over every table of every server, per stored row — and the
/// heap page count.
fn measure_store(round: &mut Round, servers: &[&Server]) {
    let (mut bytes, mut rows, mut pages) = (0, 0, 0);
    for server in servers {
        let e = server.engine();
        bytes += e.wal().durable_len() as u64;
        for name in e.table_names() {
            let tid = e.table_id(&name).expect("listed table");
            pages += e.page_count(tid) as u64;
            rows += e.row_count(tid);
        }
    }
    round.heap_pages = pages;
    round.store_bytes_per_row = (bytes + pages * 8192) as f64 / rows as f64;
}

fn objects_scan(server: &Server) -> Vec<Row> {
    let e = server.engine();
    e.scan_where_committed(e.table_id("objects").expect("objects"), None)
        .expect("unfiltered scan")
        .rows
}

/// Check the ingest against the generator's accounting; count files and
/// rows.
fn check_ingest<'a>(
    round: &mut Round,
    files: impl IntoIterator<Item = &'a CatalogFile>,
    committed: &BTreeMap<String, u64>,
    skipped: u64,
    failed_files: u64,
) {
    let mut expected = ExpectedCounts::default();
    let mut n = 0;
    for f in files {
        expected.merge(&f.expected);
        n += 1;
    }
    round.ops.attempt("files", n);
    round.ops.fail("files", failed_files);
    round.ops.attempt("rows", expected.total_emitted());
    let injected = expected.total_emitted() - expected.total_loadable();
    if let Err(e) = checks::check_counts(committed, &expected.loadable, skipped, injected) {
        round.ops.fail("rows", 1);
        round.errors.push(e);
    }
}

/// Send one read through the fast queue, timing it from the client, and
/// check its answer; `must`/`may` as in [`checks::check_cone`], `text` as
/// in [`checks::check_pk`].
///
/// The latency recorded is the CPU time of this thread from the call to
/// its return. The read runs wholly on it (the fast queue is synchronous,
/// a sharded gather visits zones in turn, and modeled I/O is accounted,
/// not slept), so on a quiet host this equals the wall-clock latency. On
/// a shared host the hypervisor takes the virtual CPU away for 10–60 ms
/// at a time, which a wall-clock tail of millisecond reads measures
/// instead of the program; this clock does not count that time. The
/// wall-clock latency still gives `serve.queue_us`.
fn send(
    svc: &QueryService,
    read: &Read,
    round: &mut Round,
    tracer: Option<&Tracer>,
    (must, may, text): (&Reference, &dyn Known, &HashMap<i64, (f64, f64)>),
) {
    let kind = read.kind();
    round.ops.attempt(kind, 1);
    let (t0, cpu0) = (Instant::now(), sys::thread_cpu());
    let out = maybe(tracer, "serve.fast_query", 0, |_| {
        svc.fast_query(USER, read.query())
    });
    let cpu_us = (sys::thread_cpu() - cpu0).as_secs_f64() * 1e6;
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    match out {
        Ok(FastOutcome::Done(r)) if !r.partial => {
            round.latency_us.entry(kind).or_default().push(cpu_us);
            round.queue_us.push(wall_us - r.wall.as_secs_f64() * 1e6);
            let rows = &r.rows;
            let checked = match *read {
                Read::Pk(id) => checks::check_pk(rows, id, may, text),
                Read::Cone(ra, dec, r) => checks::check_cone(rows, (ra, dec, r), must, may),
                Read::Scan(limit) => checks::check_scan(rows, limit, must, may),
            };
            if let Err(e) = checked {
                round.fail(kind, e);
            }
        }
        Ok(FastOutcome::Done(r)) => round.fail(
            kind,
            format!("{read:?}: partial answer, zones {:?}", r.missing_zones),
        ),
        Ok(FastOutcome::Demoted(job)) => round.fail(
            kind,
            format!("{read:?}: demoted to the slow queue as {job}"),
        ),
        Err(e) => round.fail(kind, format!("{read:?}: {e}")),
    }
}

/// The quiet read phase shared by night-fleet and sharded-night: a fixed
/// seeded plan, sent closed-loop by one client, each answer checked
/// against the unfiltered scan as it arrives.
fn quiet_reads(
    svc: &QueryService,
    reference: &Reference,
    texts: &[CatalogFile],
    rng: &mut SplitMix64,
    shape: &Shape,
    round: &mut Round,
    tracer: Option<&Tracer>,
) {
    let text = checks::text_positions(texts.iter().map(|f| f.text.as_str()));
    let plan = read_plan(rng, &reference.ids(), shape);
    for read in &plan {
        send(svc, read, round, tracer, (reference, reference, &text));
    }
    round.reads = plan;
}

/// Make a set-up `repeats` times from the same inputs, timing each; keep
/// the last.
fn timed_setup<T>(repeats: usize, round: &mut Round, mut setup: impl FnMut() -> T) -> T {
    let mut made = None;
    for _ in 0..repeats.max(1) {
        drop(made.take());
        let t0 = Instant::now();
        made = Some(setup());
        round.setup_s.push(t0.elapsed().as_secs_f64());
    }
    made.expect("at least one set-up")
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round as u64 + 1)
}

fn build_index(server: &Server) {
    server
        .engine()
        .create_index("objects", "idx_objects_htmid", &["htmid"], false)
        .expect("htmid index");
}

/// night-fleet: one paper night with 1% injected errors, loaded by two
/// leased loaders, then a quiet read phase.
pub fn night_fleet(shape: &Shape, seed: u64, round_no: usize, tracer: Option<&Tracer>) -> Round {
    const OBS: i64 = 100;
    let mut round = Round::default();
    let mut rng = SplitMix64::new(round_seed(seed, round_no));
    let night_seed = rng.next_u64();
    let (files, server) = timed_setup(shape.setup_repeats, &mut round, || {
        (
            shape.night(night_seed, OBS, 0.01),
            paper_server(&[(1, OBS)]),
        )
    });

    let before = server.obs_snapshot();
    let (cpu0, w0) = (sys::process_cpu(), Instant::now());
    let night = maybe(tracer, "skyloader.load_night", 0, |_| {
        load_night(
            &server,
            &files,
            &LoaderConfig::paper(),
            2,
            AssignmentPolicy::Dynamic,
        )
    });
    round.ingest_wall_s = w0.elapsed().as_secs_f64();
    round.ingest_cpu_s = (sys::process_cpu() - cpu0).as_secs_f64();
    let after_ingest = server.obs_snapshot();
    round.ingest_delta = after_ingest.since(&before);
    match night {
        Ok(night) => {
            round.ingest_rows = night.rows_loaded();
            round.fleet = Some(Fleet::of(&night, &round.ingest_delta));
            let committed = committed_counts(&[&server], false);
            check_ingest(&mut round, &files, &committed, night.rows_skipped(), 0);
        }
        Err(e) => {
            round.ops.attempt("files", files.len() as u64);
            round.fail("files", format!("night load: {e}"));
        }
    }

    build_index(&server);
    round.peak_rss_mb = sys::peak_rss_mb();
    let reference = Reference::new(objects_scan(&server));
    let svc = QueryService::start(server.clone(), ServeConfig::default());
    let before_reads = server.obs_snapshot();
    let r0 = Instant::now();
    quiet_reads(
        &svc, &reference, &files, &mut rng, shape, &mut round, tracer,
    );
    round.timed_s = round.ingest_wall_s + r0.elapsed().as_secs_f64();
    round.read_delta = server.obs_snapshot().since(&before_reads);
    drop(svc);

    measure_store(&mut round, &[&server]);
    round.ingest_files = files;
    round.ingest_obs = vec![(1, OBS)];
    round.target = Some(Target::Single(server));
    round
}

/// serve-archive: an archive larger than the block cache, then one clean
/// loader ingesting further nights file by file, taking turns with one
/// client that sends a read mix through the fast queue.
pub fn serve_archive(shape: &Shape, seed: u64, round_no: usize, tracer: Option<&Tracer>) -> Round {
    let mut round = Round::default();
    let mut rng = SplitMix64::new(round_seed(seed, round_no));
    let nights = shape.preload_nights + shape.ingest_nights;
    let obs: Vec<(i64, i64)> = (0..nights as i64).map(|i| (i + 1, 200 + i)).collect();

    let t0 = Instant::now();
    let mut night_files: Vec<Vec<CatalogFile>> = obs
        .iter()
        .map(|&(_, o)| shape.night(rng.next_u64(), o, 0.0))
        .collect();
    let server = paper_server(&obs);
    let (preload, ingest) = night_files.split_at(shape.preload_nights);
    let mut skipped = 0;
    for files in preload {
        let night = load_night(
            &server,
            files,
            &LoaderConfig::paper(),
            1,
            AssignmentPolicy::Dynamic,
        )
        .expect("preload night loads");
        skipped += night.rows_skipped();
    }
    build_index(&server);
    round.setup_s.push(t0.elapsed().as_secs_f64());
    measure_store(&mut round, &[&server]);
    if round.heap_pages <= shape.archive_pages {
        round.errors.push(format!(
            "the archive holds {} heap pages, not more than the {} the cache holds",
            round.heap_pages, shape.archive_pages
        ));
    }

    // Pk probes draw preloaded ids, so the preload's text is enough to
    // check them.
    let preloaded = Reference::new(objects_scan(&server));
    let deferred = Deferred::new(&preloaded);
    let text = checks::text_positions(preload.iter().flatten().map(|f| f.text.as_str()));
    let ids = preloaded.ids();
    let svc = QueryService::start(server.clone(), ServeConfig::default());
    let kinds = mix(&mut rng, shape);
    let mut read_rng = SplitMix64::new(rng.next_u64());

    // Loads and reads take turns on this one thread: after each ingest
    // file is loaded, the next slice of one pass of the mix is sent, so
    // the pass spans the ingest and every round sends the same reads.
    // Side by side on two threads, a loader and a closed-loop reader kept
    // both of the host's two cores busy and their figures followed the
    // host's other load: over ten runs of one commit, the quartiles of
    // the ingest rate spread by up to 54% of its median and those of the
    // cone p99 by up to 140%. An
    // answer may hold rows committed after the preload: it must cover
    // everything the preload held, and its other rows are settled against
    // the final scan.
    let files: Vec<&CatalogFile> = ingest.iter().flatten().collect();
    let mut reports = Vec::with_capacity(files.len());
    let mut failed_files = 0;
    let mut sent = 0;
    let before = server.obs_snapshot();
    let w0 = Instant::now();
    for (j, &file) in files.iter().enumerate() {
        let (cpu0, t0) = (sys::process_cpu(), Instant::now());
        let night = maybe(tracer, "skyloader.load_night", 0, |_| {
            load_night(
                &server,
                std::slice::from_ref(file),
                &LoaderConfig::paper(),
                1,
                AssignmentPolicy::Dynamic,
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        round.ingest_wall_s += wall;
        round.ingest_cpu_s += (sys::process_cpu() - cpu0).as_secs_f64();
        match night {
            Ok(night) => {
                round
                    .file_krows_per_s
                    .push(night.rows_loaded() as f64 / wall / 1e3);
                reports.push(night);
            }
            Err(e) => {
                failed_files += 1;
                round.errors.push(format!("ingest of {}: {e}", file.name));
            }
        }
        let upto = kinds.len() * (j + 1) / files.len();
        for &kind in &kinds[sent..upto] {
            let read = draw_read(&mut read_rng, kind, &ids, shape);
            send(
                &svc,
                &read,
                &mut round,
                tracer,
                (&preloaded, &deferred, &text),
            );
            round.reads.push(read);
        }
        sent = upto;
    }
    round.timed_s = w0.elapsed().as_secs_f64();
    round.peak_rss_mb = sys::peak_rss_mb();
    let delta = server.obs_snapshot().since(&before);
    drop(svc);

    let mut fleet = Fleet {
        grants: delta.counter("fleet.grants") as f64,
        ..Fleet::default()
    };
    for night in &reports {
        round.ingest_rows += night.rows_loaded();
        skipped += night.rows_skipped();
        let f = Fleet::of(night, &delta);
        fleet.idle_s += f.idle_s;
        fleet.imbalance = fleet.imbalance.max(f.imbalance);
    }
    round.fleet = Some(fleet);
    let committed = committed_counts(&[&server], false);
    check_ingest(
        &mut round,
        night_files.iter().flatten(),
        &committed,
        skipped,
        failed_files,
    );
    let finale = Reference::new(objects_scan(&server));
    if let Err(e) = deferred.settle(&finale) {
        round.fail("rows", e);
    }

    measure_store(&mut round, &[&server]);
    round.ingest_delta = delta.clone();
    round.read_delta = delta;
    round.ingest_files = night_files
        .split_off(shape.preload_nights)
        .into_iter()
        .flatten()
        .collect();
    round.ingest_obs = obs[shape.preload_nights..].to_vec();
    round.target = Some(Target::Single(server));
    round
}

/// A two-zone shard group with the catalog schema and `obs` headers on
/// every shard.
pub fn shard_group(obs: &[(i64, i64)]) -> (Arc<ShardGroup>, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let servers = (0..ZONES)
        .map(|_| {
            let s = fresh_catalog_server(DbConfig::paper(TimeScale::ZERO), &registry)
                .expect("shard server");
            for &(night, o) in obs.iter().filter(|(_, o)| *o != SHARD_OBS) {
                skyloader::skycat::seed_observation(s.engine(), night, o).expect("observation");
            }
            s
        })
        .collect();
    let map = ZoneMap::band(ZONES, DEC_BAND.0, DEC_BAND.1);
    let group = ShardGroup::new(
        map,
        servers,
        &ZONED_TABLES,
        GatherPolicy::default(),
        &registry,
    );
    (Arc::new(group), registry)
}

/// sharded-night: the night-fleet night routed into two declination
/// zones by `ShardRouter` and loaded by `ShardLoader`, then scatter-gather
/// reads.
pub fn sharded_night(shape: &Shape, seed: u64, round_no: usize, tracer: Option<&Tracer>) -> Round {
    let mut round = Round::default();
    let mut rng = SplitMix64::new(round_seed(seed, round_no));
    let night_seed = rng.next_u64();
    let (files, (group, registry), svc) = timed_setup(shape.setup_repeats, &mut round, || {
        let files = shape.night(night_seed, SHARD_OBS, 0.01);
        let (group, registry) = shard_group(&[(1, SHARD_OBS)]);
        let svc = QueryService::start_sharded(group.clone(), ServeConfig::default(), &registry);
        (files, (group, registry), svc)
    });

    let servers: Vec<Arc<Server>> = (0..ZONES).map(|z| group.server(z)).collect();
    let refs: Vec<&Server> = servers.iter().map(|s| s.as_ref()).collect();
    let seeded: u64 = refs
        .iter()
        .map(|s| committed_counts(&[s], false).values().sum::<u64>())
        .sum();
    let before = registry.snapshot();
    let (cpu0, w0) = (sys::process_cpu(), Instant::now());
    let loaded = maybe(tracer, "skyloader.shard_load", 0, |_| {
        let mut router = ShardRouter::new(*group.map());
        ShardLoader::new(group.clone(), ShardLoadConfig::default(), &registry).load_files(
            &mut router,
            &files,
            None,
        )
    });
    round.ingest_wall_s = w0.elapsed().as_secs_f64();
    round.ingest_cpu_s = (sys::process_cpu() - cpu0).as_secs_f64();
    round.ingest_delta = registry.snapshot().since(&before);

    let committed = committed_counts(&refs, true);
    let mut on_zones = 0;
    for (i, s) in refs.iter().enumerate() {
        let counts = committed_counts(&[s], false);
        on_zones += counts.values().sum::<u64>();
        for (table, n) in &counts {
            if i > 0 && !ZONED_TABLES.contains(&table.as_str()) && committed[table] != *n {
                round.errors.push(format!(
                    "replicated table {table}: {n} rows on one zone, {} on zone 0",
                    committed[table]
                ));
            }
        }
    }
    // The loader's own report must agree with what the zones hold: every
    // file loaded, and every row it applied (a replicated row once per
    // zone) stored.
    match &loaded {
        Ok(report) if report.files_loaded != files.len() as u64 => round.errors.push(format!(
            "sharded load reports {} files loaded of {}",
            report.files_loaded,
            files.len()
        )),
        Ok(report) if report.rows_applied != on_zones - seeded => round.errors.push(format!(
            "sharded load reports {} rows applied, the zones gained {}",
            report.rows_applied,
            on_zones - seeded
        )),
        Ok(_) => {}
        Err(e) => round.errors.push(format!("sharded load: {e}")),
    }
    let stored: u64 = committed.values().sum();
    round.ingest_rows = stored;
    let emitted: u64 = files.iter().map(|f| f.expected.total_emitted()).sum();
    let failed_files = if loaded.is_ok() {
        0
    } else {
        files.len() as u64
    };
    // `ShardLoadReport` counts no skipped rows, so the skip count here is
    // emitted − stored, and the skip check reduces to the per-table one.
    check_ingest(
        &mut round,
        &files,
        &committed,
        emitted.saturating_sub(stored),
        failed_files,
    );

    for s in &servers {
        build_index(s);
    }
    round.peak_rss_mb = sys::peak_rss_mb();
    let mut scan = Vec::new();
    for (zone, s) in servers.iter().enumerate() {
        let rows = objects_scan(s);
        if let Err(e) = checks::check_zone(&rows, zone as u32, DEC_BAND, ZONES) {
            round.errors.push(e);
        }
        scan.extend(rows);
    }
    let reference = Reference::new(scan);
    let before_reads = registry.snapshot();
    let r0 = Instant::now();
    quiet_reads(
        &svc, &reference, &files, &mut rng, shape, &mut round, tracer,
    );
    round.timed_s = round.ingest_wall_s + r0.elapsed().as_secs_f64();
    round.read_delta = registry.snapshot().since(&before_reads);
    drop(svc);

    measure_store(&mut round, &refs);
    round.ingest_files = files;
    round.ingest_obs = vec![(1, SHARD_OBS)];
    round.target = Some(Target::Sharded(group, registry));
    round
}

/// Run one round of `workload`.
pub fn run_round(
    workload: &str,
    shape: &Shape,
    seed: u64,
    round_no: usize,
    tracer: Option<&Tracer>,
) -> Round {
    match workload {
        "night-fleet" => night_fleet(shape, seed, round_no, tracer),
        "serve-archive" => serve_archive(shape, seed, round_no, tracer),
        "sharded-night" => sharded_night(shape, seed, round_no, tracer),
        other => panic!("unknown workload {other}"),
    }
}

/// Rounds until `seconds` of wall time have passed, and at least
/// `shape.min_rounds`.
pub fn run_rounds(workload: &str, shape: &Shape, seed: u64, seconds: f64) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < shape.min_rounds || start.elapsed() < Duration::from_secs_f64(seconds) {
        let mut r = run_round(workload, shape, seed, rounds.len(), None);
        let pct =
            |k: &str, q: f64| crate::stats::quantile(r.latency_us.get(k).map_or(&[][..], |v| v), q);
        eprintln!(
            "round {}: {} heap pages, setup {:.3} s, ingest {:.2} s of {:.2} s timed, {:.1} krows/s {:.2} us/row cpu, p50 pk {:.1} cone {:.1} scan {:.0} us, p99 pk {:.1} cone {:.0} us",
            rounds.len(),
            r.heap_pages,
            crate::stats::median(&r.setup_s),
            r.ingest_wall_s,
            r.timed_s,
            r.ingest_rows as f64 / r.ingest_wall_s / 1e3,
            r.ingest_cpu_s * 1e6 / r.ingest_rows as f64,
            pct("pk", 0.5),
            pct("cone", 0.5),
            pct("scan", 0.5),
            pct("pk", 0.99),
            pct("cone", 0.99),
        );
        r.target = None;
        r.ingest_files.clear();
        rounds.push(r);
    }
    rounds
}
