//! The scheduling daemon behind `pacga serve`.
//!
//! Thread topology (all `std::net` / `std::thread`, per the vendor
//! policy in DESIGN.md §5):
//!
//! ```text
//! acceptor ──spawns──▶ one handler thread per connection, which answers
//!                      every request itself: control verbs inline,
//!                      stream sessions and schedule misses run their
//!                      engine on it
//!                          │  schedule: drain check → resolve → digest
//!                          │  → cache hit, or ride along on a twin in
//!                          │  flight, or wait for engine slots (at most
//!                          │  `queue_cap` misses wait; more get "busy")
//!                          ▼
//!            pa_cga_core::runner::Semaphore (capacity = --workers,
//!            weight = engine threads ⇒ concurrent misses never
//!            oversubscribe the host)
//! ```
//!
//! Shutdown: a `shutdown` request (or [`ServerHandle::shutdown`]) stops
//! the acceptor and refuses new schedule requests with `busy`; every
//! request admitted before it still gets its answer, and
//! [`ServerHandle::join`] waits for all of them before it persists the
//! corpus and returns a [`ServeSummary`].

use crate::cache::{CachedRun, ScheduleCache};
use crate::jobs::JobManager;
use crate::protocol::{Request, Response, ScheduleRequest, StatsSnapshot, StreamOpenRequest};
use crate::store::{StoreBuilder, StoreReader};
use crate::stream::StreamSession;
use pa_cga_core::engine::PaCga;
use pa_cga_core::runner::{resolve_workers, JobPanic, Semaphore};
use pa_cga_core::trace::RunOutcome;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the `pacga serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Engine slots shared by every schedule miss; 0 = one slot per
    /// available core.
    pub workers: usize,
    /// Most schedule misses waiting for engine slots; a miss beyond it
    /// gets `busy`.
    pub queue_cap: usize,
    /// Memoization cache entries (0 disables caching).
    pub cache_cap: usize,
    /// Durable-job data directory; `None` disables the `job.*` verbs
    /// and named (durable) stream sessions.
    pub data_dir: Option<String>,
    /// Default checkpoint cadence (generations) for durable jobs.
    pub checkpoint_gens: u64,
    /// Retention horizon for archived jobs: buckets older than this many
    /// days are swept on boot. `None` keeps archives forever.
    pub archive_keep_days: Option<u64>,
    /// Path of a `.pacst` corpus store (see FORMAT.md). When set, the
    /// memoization cache warm-loads every best-schedule record at boot
    /// and persists its entries back (merged, atomically) on drain. A
    /// missing file is a cold start, not an error — the drain creates
    /// it.
    pub corpus: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7413".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 128,
            data_dir: None,
            checkpoint_gens: 64,
            archive_keep_days: None,
            corpus: None,
        }
    }
}

/// Schedule-request bookkeeping, all under one lock so that the drain
/// count, the count of misses waiting for slots and the in-flight set
/// change together.
struct Intake {
    /// Schedule requests past the drain check and not yet answered:
    /// [`ServerHandle::join`] waits for zero.
    admitted: usize,
    /// Misses waiting for engine slots (at most `queue_cap`).
    waiting: usize,
    /// Digest → the engine run computing it. A twin rides along on the
    /// run instead of starting its own.
    in_flight: HashMap<u64, Arc<Flight>>,
}

/// One engine run's answer, handed to every request riding along on it.
struct Flight {
    result: Mutex<Option<Result<CachedRun, String>>>,
    done: Condvar,
}

impl Flight {
    fn finish(&self, result: Result<CachedRun, String>) {
        *self.result.lock() = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<CachedRun, String> {
        let mut result = self.result.lock();
        loop {
            if let Some(r) = result.as_ref() {
                return r.clone();
            }
            result = self.done.wait(result);
        }
    }
}

/// An admitted schedule request: dropping it counts the request
/// answered and wakes a draining [`ServerHandle::join`].
struct Admitted<'a>(&'a Shared);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut intake = self.0.intake.lock();
        intake.admitted -= 1;
        if intake.admitted == 0 {
            self.0.answered.notify_all();
        }
    }
}

#[derive(Default)]
struct Metrics {
    received: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    coalesced: AtomicU64,
    runs: AtomicU64,
    evaluations: AtomicU64,
}

impl Metrics {
    /// Bumps a stats counter by one.
    fn bump(counter: &AtomicU64) {
        // ord: Relaxed — monotonic advisory counters; no data rides on
        // them.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a stats counter.
    fn add(counter: &AtomicU64, n: u64) {
        // ord: Relaxed — same advisory-counter contract as `bump`.
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

struct Shared {
    addr: SocketAddr,
    workers: usize,
    queue_cap: usize,
    /// Engine slots (`workers` of them) taken by schedule misses.
    slots: Semaphore,
    intake: Mutex<Intake>,
    /// Signalled when `intake.admitted` drops to zero.
    answered: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    cache: Mutex<ScheduleCache>,
    conns: Mutex<usize>,
    conns_cv: Condvar,
    /// Read-half handles of every live connection, keyed by connection
    /// id: the drain path shuts their read sides down so idle keep-alive
    /// clients produce EOF instead of pinning [`ServerHandle::join`]
    /// until the grace deadline. In-flight requests are unaffected
    /// (their answer goes out on the write half).
    conn_streams: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// The durable-job subsystem, present when `--data-dir` was given.
    jobs: Option<Arc<JobManager>>,
    /// The data directory itself, for durable stream sessions.
    data_dir: Option<std::path::PathBuf>,
    /// Named stream sessions currently open on SOME connection: at most
    /// one connection may drive a given durable session at a time.
    stream_names: Mutex<std::collections::HashSet<String>>,
    /// `.pacst` corpus path, when `--corpus` was given: the cache is
    /// warm-loaded from it at boot and persisted back on drain.
    corpus: Option<std::path::PathBuf>,
    /// Best-schedule records warm-loaded from the corpus at boot.
    cache_persisted: u64,
    start: Instant,
}

impl Shared {
    /// Counts a schedule request in for the drain, unless the daemon is
    /// already draining.
    fn admit(&self) -> Option<Admitted<'_>> {
        let mut intake = self.intake.lock();
        // ord: Relaxed — checked under the intake mutex, which the drain
        // trigger bridges after raising the flag and `join` takes only
        // after the acceptor saw the flag: a request either sees the
        // flag or is counted before `join` looks.
        if self.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        intake.admitted += 1;
        Metrics::bump(&self.metrics.received);
        Some(Admitted(self))
    }

    /// Answers one `schedule` request on the calling connection thread:
    /// from the cache, by riding along on an identical run in flight,
    /// or by running the engine once engine slots are free.
    fn schedule(&self, request: ScheduleRequest) -> Response {
        let Some(_admitted) = self.admit() else {
            return self.busy("draining");
        };
        let instance = match request.resolve_instance() {
            Ok(i) => i,
            Err(message) => return self.error(&request, message),
        };
        // A request may not ask for more engine threads than there are
        // slots: the weight would clamp but the engine would still spawn
        // every thread, oversubscribing the host.
        if request.threads > self.workers {
            let message = format!(
                "\"threads\" = {} exceeds the server's worker pool ({})",
                request.threads, self.workers
            );
            return self.error(&request, message);
        }
        let digest = request.digest(&instance);
        // Each response echoes its own request's name: the digest covers
        // the matrix bytes, not the label.
        let name = instance.name();

        // The cache and the in-flight set are read under the intake lock,
        // and a run leaves the set under it only after its cache insert,
        // so at most one engine run per digest is ever going.
        let flight = {
            let mut intake = self.intake.lock();
            if let Some(run) = self.cache.lock().get(digest) {
                drop(intake);
                return self.answer(&request, name, Ok(run), true, false);
            }
            if let Some(twin) = intake.in_flight.get(&digest).cloned() {
                drop(intake);
                return self.answer(&request, name, twin.wait(), false, true);
            }
            if intake.waiting >= self.queue_cap {
                drop(intake);
                return self.busy("queue full");
            }
            intake.waiting += 1;
            let flight = Arc::new(Flight { result: Mutex::new(None), done: Condvar::new() });
            intake.in_flight.insert(digest, Arc::clone(&flight));
            flight
        };

        let weight = request.threads.clamp(1, self.workers);
        self.slots.acquire(weight);
        self.intake.lock().waiting -= 1;
        Metrics::bump(&self.metrics.runs);
        let config = request.build_config();
        let outcome = catch_unwind(AssertUnwindSafe(|| PaCga::new(&instance, config).run()));
        self.slots.release(weight);
        let result = match outcome {
            Ok(outcome) => {
                Metrics::add(&self.metrics.evaluations, outcome.evaluations);
                Ok(cached_run(&instance, &outcome))
            }
            Err(payload) => Err(format!("engine failed: {}", JobPanic::from_payload(payload))),
        };
        {
            let mut intake = self.intake.lock();
            if let Ok(run) = &result {
                self.cache.lock().insert(digest, run.clone());
            }
            intake.in_flight.remove(&digest);
        }
        flight.finish(result.clone());
        self.answer(&request, name, result, false, false)
    }

    fn answer(
        &self,
        request: &ScheduleRequest,
        name: &str,
        result: Result<CachedRun, String>,
        cached: bool,
        coalesced: bool,
    ) -> Response {
        match result {
            Ok(run) => {
                Metrics::bump(&self.metrics.completed);
                if coalesced {
                    Metrics::bump(&self.metrics.coalesced);
                }
                result_response(request, name, &run, cached, coalesced)
            }
            Err(message) => self.error(request, message),
        }
    }

    fn error(&self, request: &ScheduleRequest, message: String) -> Response {
        Metrics::bump(&self.metrics.errors);
        Response::Error { id: request.id.clone(), message }
    }

    fn busy(&self, reason: &str) -> Response {
        Metrics::bump(&self.metrics.busy);
        Response::Busy { reason: reason.into() }
    }

    fn trigger_shutdown(&self) {
        // ord: AcqRel — exactly one caller wins the drain edge and runs
        // the teardown below; losers return immediately.
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return; // already draining
        }
        // Bridge the intake mutex: once this returns, no schedule request
        // can still be admitted past the drain check.
        drop(self.intake.lock());
        // Park every live job behind a final checkpoint so the next
        // daemon incarnation can resume it.
        if let Some(jobs) = &self.jobs {
            jobs.begin_drain();
        }
        // Poke the acceptor out of its blocking accept().
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        // Stop further intake at the socket level: idle connections see
        // EOF now instead of holding join() to the grace deadline.
        for stream in self.conn_streams.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (cache_hits, cache_misses, cache_entries, cache_capacity) = {
            let cache = self.cache.lock();
            (cache.hits(), cache.misses(), cache.len(), cache.capacity())
        };
        let uptime_s = self.start.elapsed().as_secs_f64();
        // ord: Relaxed — advisory stats counters; the snapshot needs no
        // cross-counter consistency.
        let completed = self.metrics.completed.load(Ordering::Relaxed);
        let received = self.metrics.received.load(Ordering::Relaxed);
        let errors = self.metrics.errors.load(Ordering::Relaxed);
        let busy = self.metrics.busy.load(Ordering::Relaxed);
        let coalesced = self.metrics.coalesced.load(Ordering::Relaxed);
        let runs = self.metrics.runs.load(Ordering::Relaxed);
        let evaluations = self.metrics.evaluations.load(Ordering::Relaxed);
        let jobs = self.jobs.as_ref().map(|j| j.counters()).unwrap_or_default();
        StatsSnapshot {
            uptime_s,
            received,
            completed,
            errors,
            busy,
            cache_hits,
            cache_misses,
            cache_entries,
            cache_capacity,
            cache_persisted: self.cache_persisted,
            coalesced,
            batches: runs,
            evaluations,
            req_per_sec: completed as f64 / uptime_s.max(1e-9),
            jobs_started: jobs.started,
            jobs_completed: jobs.completed,
            jobs_failed: jobs.failed,
            jobs_resumed: jobs.resumed,
            jobs_active: jobs.active,
        }
    }
}

/// What a drained daemon reports on exit.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Schedule requests answered with a result.
    pub completed: u64,
    /// Schedule requests answered with an error.
    pub errors: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Cache hits / misses over the whole run.
    pub cache_hits: u64,
    /// Cache misses over the whole run.
    pub cache_misses: u64,
    /// Requests answered by riding along on an identical run in flight.
    pub coalesced: u64,
    /// Engine runs started.
    pub runs: u64,
    /// Total engine evaluations spent.
    pub evaluations: u64,
    /// Cache entries persisted to the `--corpus` store on drain.
    pub persisted: u64,
    /// Listener lifetime.
    pub uptime: Duration,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained cleanly: {} completed, {} errors, {} busy | cache {} hits / {} misses, \
             {} coalesced, {} persisted | {} runs, {} evaluations | uptime {:.2}s",
            self.completed,
            self.errors,
            self.busy,
            self.cache_hits,
            self.cache_misses,
            self.coalesced,
            self.persisted,
            self.runs,
            self.evaluations,
            self.uptime.as_secs_f64()
        )
    }
}

/// A running daemon: its bound address plus the join/shutdown handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain, as if a `shutdown` request arrived.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the drain to finish and returns the exit summary.
    /// Every schedule request admitted before the drain is answered
    /// first, however long its run takes; lingering connections are then
    /// given `grace` to finish before the summary is returned anyway.
    pub fn join(self) -> ServeSummary {
        let _ = self.acceptor.join();
        let mut intake = self.shared.intake.lock();
        while intake.admitted > 0 {
            intake = self.shared.answered.wait(intake);
        }
        drop(intake);
        // Job workers were cancelled by the drain trigger; wait for their
        // final checkpoints to land before reporting.
        if let Some(jobs) = &self.shared.jobs {
            jobs.join_all();
        }
        let grace = Duration::from_secs(10);
        let deadline = Instant::now() + grace;
        let mut conns = self.shared.conns.lock();
        while *conns > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self.shared.conns_cv.wait_timeout(conns, left);
            conns = guard;
        }
        drop(conns);
        // Everything that could add cache entries has stopped: persist
        // the LRU into the corpus store (merged with whatever the file
        // already holds, atomically rewritten).
        let persisted = persist_corpus(&self.shared);
        let s = self.shared.snapshot();
        ServeSummary {
            completed: s.completed,
            errors: s.errors,
            busy: s.busy,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            coalesced: s.coalesced,
            runs: s.batches,
            evaluations: s.evaluations,
            persisted,
            uptime: self.shared.start.elapsed(),
        }
    }
}

/// Drain-time corpus persistence: load the existing store (preserving
/// its instances and checkpoints), upsert every live cache entry sorted
/// by digest (deterministic images), and atomically rewrite the file.
/// Returns how many cache entries were written; failures are reported
/// on stderr and drop the persistence, never the drain.
fn persist_corpus(shared: &Shared) -> u64 {
    let Some(path) = &shared.corpus else { return 0 };
    let mut builder = if path.exists() {
        match StoreReader::open_path(path).and_then(|mut r| r.to_builder()) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "pacga serve: corpus {} unreadable at drain ({e}); not persisting",
                    path.display()
                );
                return 0;
            }
        }
    } else {
        StoreBuilder::new()
    };
    let mut entries: Vec<(u64, CachedRun)> = {
        let cache = shared.cache.lock();
        cache.entries().map(|(d, run)| (d, run.clone())).collect()
    };
    entries.sort_by_key(|(d, _)| *d);
    let mut persisted = 0u64;
    for (digest, run) in &entries {
        match builder.add_best(*digest, run) {
            Ok(()) => persisted += 1,
            Err(e) => {
                eprintln!("pacga serve: cache entry {digest:#018x} not persistable ({e}); skipped")
            }
        }
    }
    if let Err(e) = builder.write(path) {
        eprintln!("pacga serve: corpus write to {} failed ({e})", path.display());
        return 0;
    }
    persisted
}

/// Binds the listener and spawns the daemon threads.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers =
        if config.workers == 0 { resolve_workers(None, usize::MAX) } else { config.workers };
    // Opening the job manager runs the recovery pass: every job left
    // `queued`/`running`/`checkpointed` on disk is re-queued before the
    // listener answers its first request.
    let jobs = match &config.data_dir {
        Some(dir) => Some(JobManager::open(
            std::path::Path::new(dir),
            workers,
            config.checkpoint_gens,
            config.archive_keep_days,
        )?),
        None => None,
    };
    // Corpus warm-load: every persisted best-schedule record becomes a
    // live cache entry before the listener answers its first request, so
    // a previously-seen digest is a hit with zero engine evaluations. A
    // corrupt corpus fails the boot loudly; a missing file is a cold
    // start (the drain will create it).
    let mut cache = ScheduleCache::new(config.cache_cap);
    let mut cache_persisted = 0u64;
    if let Some(path) = config.corpus.as_ref().map(std::path::Path::new) {
        if path.exists() {
            let bests = StoreReader::open_path(path)
                .and_then(|mut r| r.bests())
                .map_err(|e| std::io::Error::other(format!("corpus {}: {e}", path.display())))?;
            for (digest, run) in bests {
                cache.insert(digest, run);
                cache_persisted += 1;
            }
        }
    }
    let shared = Arc::new(Shared {
        addr,
        workers,
        queue_cap: config.queue_cap,
        slots: Semaphore::new(workers),
        intake: Mutex::new(Intake { admitted: 0, waiting: 0, in_flight: HashMap::new() }),
        answered: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Metrics::default(),
        cache: Mutex::new(cache),
        conns: Mutex::new(0),
        conn_streams: Mutex::new(std::collections::HashMap::new()),
        next_conn: AtomicU64::new(0),
        conns_cv: Condvar::new(),
        jobs,
        data_dir: config.data_dir.as_ref().map(std::path::PathBuf::from),
        stream_names: Mutex::new(std::collections::HashSet::new()),
        corpus: config.corpus.as_ref().map(std::path::PathBuf::from),
        cache_persisted,
        start: Instant::now(),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pacga-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))?
    };
    Ok(ServerHandle { addr, shared, acceptor })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // ord: Acquire — pairs with the AcqRel drain swap; seeing
                // the flag means the read-shutdown sweep is underway.
                if shared.shutdown.load(Ordering::Acquire) {
                    break; // the shutdown poke, or a late client
                }
                *shared.conns.lock() += 1;
                // ord: Relaxed — connection ids only need uniqueness.
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(read_half) = stream.try_clone() {
                    shared.conn_streams.lock().insert(conn_id, read_half);
                }
                // Registration raced a concurrent drain trigger: apply
                // the read-side shutdown this connection just missed.
                // ord: Relaxed — the conn_streams mutex (held by both the
                // insert above and the drain sweep) supplies the
                // ordering; the flag is a mere re-check.
                if shared.shutdown.load(Ordering::Relaxed) {
                    let _ = stream.shutdown(std::net::Shutdown::Read);
                }
                let conn_shared = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new().name("pacga-conn".into()).spawn(move || {
                        handle_connection(&conn_shared, stream);
                        conn_shared.conn_streams.lock().remove(&conn_id);
                        *conn_shared.conns.lock() -= 1;
                        conn_shared.conns_cv.notify_all();
                    });
                if spawned.is_err() {
                    // Thread exhaustion: undo the bookkeeping and drop
                    // the connection rather than wedge the acceptor.
                    shared.conn_streams.lock().remove(&conn_id);
                    *shared.conns.lock() -= 1;
                    shared.conns_cv.notify_all();
                }
            }
            Err(_) => {
                // ord: Relaxed — only the flag's own value matters here.
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    // The connection's schedule-stream session, if one is open. Sessions
    // are connection-local: the engine runs inline on this thread, like a
    // schedule miss, but takes no engine slot.
    let mut session: Option<StreamSession> = None;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(&line) {
            Err(message) => {
                Metrics::bump(&shared.metrics.errors);
                Response::Error { id: None, message }
            }
            Ok(Request::Ping) => Response::Ok { message: "pong".into() },
            Ok(Request::Stats) => Response::Stats(Box::new(shared.snapshot())),
            Ok(Request::Shutdown) => {
                shared.trigger_shutdown();
                Response::Ok { message: "draining".into() }
            }
            Ok(Request::Schedule(request)) => shared.schedule(*request),
            Ok(Request::JobStart(request)) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => match jobs.start(*request) {
                    Ok(body) => Response::Job(Box::new(body)),
                    Err(reason) if reason == "draining" => {
                        Metrics::bump(&shared.metrics.busy);
                        Response::Busy { reason }
                    }
                    Err(message) => job_error(shared, message),
                },
            },
            Ok(Request::JobStatus { job }) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => match jobs.status(&job) {
                    Ok(body) => Response::Job(Box::new(body)),
                    Err(message) => job_error(shared, message),
                },
            },
            Ok(Request::JobLog { job, tail }) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => match jobs.log(&job, tail) {
                    Ok(lines) => Response::JobLog { job, lines },
                    Err(message) => job_error(shared, message),
                },
            },
            Ok(Request::JobStop { job }) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => match jobs.stop(&job) {
                    Ok(body) => Response::Job(Box::new(body)),
                    Err(message) => job_error(shared, message),
                },
            },
            Ok(Request::JobArchive { job }) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => match jobs.archive(&job) {
                    Ok(body) => Response::Job(Box::new(body)),
                    Err(message) => job_error(shared, message),
                },
            },
            Ok(Request::JobList) => match &shared.jobs {
                None => job_support_missing(shared),
                Some(jobs) => Response::JobList { jobs: jobs.list() },
            },
            Ok(Request::StreamOpen(request)) => handle_stream_open(shared, *request, &mut session),
            Ok(Request::StreamEvent(request)) => match session.as_mut() {
                None => stream_error(shared, "no_session", "no open stream session", None),
                Some(s) => match s.handle_event(*request) {
                    Ok(body) => Response::StreamResult(body),
                    Err((code, message)) => {
                        let expected = Some(s.expected_seq());
                        stream_error(shared, &code, message, expected)
                    }
                },
            },
            Ok(Request::StreamClose) => match session.take() {
                None => stream_error(shared, "no_session", "no open stream session", None),
                Some(s) => {
                    release_stream_name(shared, &s);
                    Response::StreamClosed(s.close())
                }
            },
        };
        if writeln!(writer, "{}", response.encode()).and_then(|_| writer.flush()).is_err() {
            break;
        }
    }
    // Disconnect without a `stream.close`: suspend the session. Durable
    // sessions persist and stay resumable; anonymous ones are gone.
    if let Some(s) = session.take() {
        release_stream_name(shared, &s);
        s.suspend();
    }
}

/// Opens a stream session for this connection, enforcing the one-session
/// -per-connection and one-connection-per-named-session rules.
fn handle_stream_open(
    shared: &Arc<Shared>,
    request: StreamOpenRequest,
    session: &mut Option<StreamSession>,
) -> Response {
    if session.is_some() {
        return stream_error(
            shared,
            "session_exists",
            "this connection already has an open session; stream.close it first",
            None,
        );
    }
    // ord: Relaxed — advisory intake gate, unlike the schedule admission
    // it takes no lock; a session that slips past a concurrent drain just
    // finishes its open and is torn down when the socket sees EOF.
    if shared.shutdown.load(Ordering::Relaxed) {
        Metrics::bump(&shared.metrics.busy);
        return Response::Busy { reason: "draining".into() };
    }
    // Reserve the durable name before touching disk so two connections
    // racing on one session cannot interleave writes.
    let reserved = match &request.session {
        None => None,
        Some(name) => {
            if !shared.stream_names.lock().insert(name.clone()) {
                return stream_error(
                    shared,
                    "session_busy",
                    format!("session {name:?} is open on another connection"),
                    None,
                );
            }
            Some(name.clone())
        }
    };
    match StreamSession::open(request, shared.data_dir.as_deref()) {
        Ok((s, body)) => {
            *session = Some(s);
            Response::StreamOpened(Box::new(body))
        }
        Err((code, message)) => {
            if let Some(name) = reserved {
                shared.stream_names.lock().remove(&name);
            }
            stream_error(shared, &code, message, None)
        }
    }
}

fn release_stream_name(shared: &Arc<Shared>, session: &StreamSession) {
    if let Some(name) = session.name() {
        shared.stream_names.lock().remove(name);
    }
}

fn stream_error(
    shared: &Arc<Shared>,
    code: &str,
    message: impl Into<String>,
    expected_seq: Option<u64>,
) -> Response {
    Metrics::bump(&shared.metrics.errors);
    Response::StreamError { code: code.into(), message: message.into(), expected_seq }
}

/// `job.*` request against a daemon started without `--data-dir`.
fn job_support_missing(shared: &Arc<Shared>) -> Response {
    job_error(shared, "durable jobs are disabled; start the daemon with --data-dir".into())
}

fn job_error(shared: &Arc<Shared>, message: String) -> Response {
    Metrics::bump(&shared.metrics.errors);
    Response::Error { id: None, message }
}

fn cached_run(instance: &etc_model::EtcInstance, outcome: &RunOutcome) -> CachedRun {
    CachedRun {
        instance: instance.name().to_string(),
        n_tasks: instance.n_tasks(),
        n_machines: instance.n_machines(),
        makespan: outcome.best.makespan(),
        evaluations: outcome.evaluations,
        engine_ms: outcome.elapsed.as_secs_f64() * 1e3,
        assignment: outcome.best.schedule.assignment().to_vec(),
    }
}

/// `instance_name` is the REQUESTING request's resolved name, not the
/// cached run's: the digest ignores labels, so a cache/coalesce answer
/// may have been computed under a different name than this client used.
fn result_response(
    request: &ScheduleRequest,
    instance_name: &str,
    run: &CachedRun,
    cached: bool,
    coalesced: bool,
) -> Response {
    Response::Result {
        id: request.id.clone(),
        instance: instance_name.to_string(),
        n_tasks: run.n_tasks,
        n_machines: run.n_machines,
        makespan: run.makespan,
        evaluations: run.evaluations,
        engine_ms: run.engine_ms,
        cached,
        coalesced,
        assignment: request.include_assignment.then(|| run.assignment.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(config: ServeConfig) -> ServerHandle {
        serve(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).expect("bind loopback")
    }

    #[test]
    fn binds_ephemeral_port_and_drains() {
        let handle = local(ServeConfig::default());
        assert_ne!(handle.addr().port(), 0);
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.completed, 0);
        assert!(summary.to_string().contains("drained cleanly"));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let handle = local(ServeConfig::default());
        handle.shutdown();
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn zero_queue_cap_rejects_everything() {
        let handle = local(ServeConfig { queue_cap: 0, ..ServeConfig::default() });
        let request = match Request::decode(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":50}"#)
            .unwrap()
        {
            Request::Schedule(r) => *r,
            _ => unreachable!(),
        };
        assert_eq!(handle.shared.schedule(request), Response::Busy { reason: "queue full".into() });
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn corpus_round_trips_cache_across_restarts() {
        let dir = std::env::temp_dir().join(format!("pacga-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("t.pacst");
        let config = ServeConfig {
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };

        // Daemon 1: cold start (no file yet), one cache entry, drain.
        let handle = local(config.clone());
        let run = CachedRun {
            instance: "toy_4x2".into(),
            n_tasks: 4,
            n_machines: 2,
            makespan: 9.5,
            evaluations: 123,
            engine_ms: 1.5,
            assignment: vec![0, 1, 1, 0],
        };
        handle.shared.cache.lock().insert(42, run.clone());
        assert_eq!(handle.shared.snapshot().cache_persisted, 0, "cold start");
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.persisted, 1);
        assert!(summary.to_string().contains("1 persisted"));

        // Daemon 2: warm-loads the record before serving.
        let handle = local(config);
        assert_eq!(handle.shared.snapshot().cache_persisted, 1);
        assert_eq!(handle.shared.cache.lock().get(42).as_ref(), Some(&run));
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_corpus_fails_boot_loudly() {
        let dir = std::env::temp_dir().join(format!("pacga-badcorpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("bad.pacst");
        std::fs::write(&corpus, b"not a pacst file at all").unwrap();
        let err = match serve(ServeConfig {
            addr: "127.0.0.1:0".into(),
            corpus: Some(corpus.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("corrupt corpus must fail the boot"),
        };
        assert!(err.to_string().contains("bad.pacst"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enqueue_after_shutdown_reports_draining() {
        let handle = local(ServeConfig::default());
        handle.shutdown();
        let request = match Request::decode(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":50}"#)
            .unwrap()
        {
            Request::Schedule(r) => *r,
            _ => unreachable!(),
        };
        assert_eq!(handle.shared.schedule(request), Response::Busy { reason: "draining".into() });
        handle.join();
    }
}
