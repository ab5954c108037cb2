//! `serve_cold` and `serve_hot`: `pacga serve` on loopback, driven by the
//! benchmark's own closed-loop clients (each waits for its reply before
//! sending the next request).
//!
//! * cold — the daemon boots with `--corpus` on a store of the 12 Braun
//!   instances without answers; `schedule` calls by Braun name cycle
//!   over them, each with a distinct engine seed: every digest misses
//!   the cache and nothing coalesces.
//! * hot — the daemon boots with `--corpus` on a `.pacst` store primed
//!   in set-up (12 Braun + 3 large 4096×64 instances, best records for
//!   exactly the request set); every answer must come from the cache.

use crate::layers::{self, Inputs};
use crate::measure::{closed_loop_rate, median, quantile};
use crate::{Ctx, BLOCKS};
use etc_model::{
    braun_instance, braun_instance_names, Consistency, EtcGenerator, EtcInstance, GeneratorParams,
    Heterogeneity,
};
use pa_cga_core::rng::splitmix64;
use pa_cga_service::protocol::Response;
use pa_cga_service::store::{StoreBuilder, StoreReader};
use pa_cga_service::{serve, Client, Json, ServeConfig, ServerHandle};
use scheduling::{check_schedule, Schedule};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Hot,
}

/// Engine evaluations per request.
const REQUEST_EVALS: u64 = 4_096;
/// H2LL iterations per request.
const REQUEST_LS: u64 = 2;
/// Distinct engine seeds per instance in the hot request set.
const HOT_SEEDS: usize = 4;
/// Daemon boots per run timed for `setup_s` and `drain_s`.
fn boots(mode: Mode) -> usize {
    match mode {
        Mode::Cold => 41,
        Mode::Hot => 15,
    }
}
/// Client socket timeout: a request slower than this fails.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The request stream and everything needed to check its answers.
struct Fixture {
    mode: Mode,
    base_seed: u64,
    instances: Vec<EtcInstance>,
    min_min: Vec<f64>,
    /// The store the daemon boots from and persists to on drain.
    corpus: Option<PathBuf>,
    /// Cold mode: the instance-only store `corpus` is reset to before
    /// every boot, so every boot starts without cached answers.
    pristine: Option<PathBuf>,
}

impl Fixture {
    fn new(mode: Mode, seed: u64) -> Fixture {
        let instances: Vec<EtcInstance> =
            braun_instance_names().into_iter().map(braun_instance).collect();
        let min_min = instances.iter().map(|i| heuristics::min_min(i).makespan()).collect();
        // Masked to 32 bits: seeds ride the wire as JSON numbers.
        let base_seed = splitmix64(seed ^ 0x5E12E) & 0xFFFF_FFFF;
        Fixture { mode, base_seed, instances, min_min, corpus: None, pristine: None }
    }

    /// Distinct requests in one pass over the request set.
    fn cycle(&self) -> u64 {
        match self.mode {
            Mode::Cold => self.instances.len() as u64,
            Mode::Hot => (self.instances.len() * HOT_SEEDS) as u64,
        }
    }

    /// The `k`-th request: instance index and wire line. Cold requests
    /// never repeat a seed; hot requests cycle over the primed set.
    fn request(&self, k: u64) -> (usize, String) {
        let n = self.instances.len() as u64;
        let k = if self.mode == Mode::Hot { k % self.cycle() } else { k };
        let idx = (k % n) as usize;
        let line = format!(
            "{{\"type\":\"schedule\",\"id\":\"r{k}\",\"braun\":\"{}\",\"evals\":{REQUEST_EVALS},\"seed\":{},\"ls\":{REQUEST_LS},\"assignment\":true}}",
            self.instances[idx].name(),
            self.base_seed + k
        );
        (idx, line)
    }

    /// Checks one reply: a `result`, cached exactly when the mode says,
    /// whose assignment re-prices to the reported makespan on the
    /// resolved instance and is no worse than that instance's Min-min.
    /// Returns the makespan relative to Min-min.
    fn check(&self, idx: usize, reply: &str) -> Result<f64, String> {
        self.check_cached(idx, reply, self.mode == Mode::Hot)
    }

    fn check_cached(&self, idx: usize, reply: &str, expect_cached: bool) -> Result<f64, String> {
        let v = Json::parse(reply.trim_end()).map_err(|e| format!("unparseable reply: {e}"))?;
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("?");
        if ty != "result" {
            return Err(format!("{ty} response: {}", reply.trim_end()));
        }
        let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
        if cached != expect_cached {
            return Err(format!("cached={cached}, expected {expect_cached}"));
        }
        let inst = &self.instances[idx];
        let makespan = v.get("makespan").and_then(Json::as_f64).ok_or("no makespan")?;
        let assignment: Vec<u32> = v
            .get("assignment")
            .and_then(Json::as_arr)
            .ok_or("no assignment")?
            .iter()
            .map(|g| g.as_u64().map(|g| g as u32).ok_or("non-integer gene"))
            .collect::<Result<_, _>>()?;
        if assignment.len() != inst.n_tasks()
            || assignment.iter().any(|&g| g as usize >= inst.n_machines())
        {
            return Err(format!("assignment does not fit {}", inst.name()));
        }
        let priced = Schedule::from_assignment(inst, assignment);
        check_schedule(inst, &priced).map_err(|e| format!("invalid schedule: {e:?}"))?;
        let tol = 1e-9 * makespan.abs().max(1.0);
        if (priced.makespan() - makespan).abs() > tol {
            return Err(format!("makespan {makespan} re-prices to {}", priced.makespan()));
        }
        if makespan > self.min_min[idx] + tol {
            return Err(format!("makespan {makespan} worse than Min-min {}", self.min_min[idx]));
        }
        Ok(makespan / self.min_min[idx])
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            corpus: self.corpus.as_ref().map(|p| p.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        }
    }
}

/// Ticket of the first request a set-up boot answers: outside the load's
/// ticket range, so a cold daemon's load never hits it in the cache.
const SETUP_TICKET: u64 = 1 << 32;

/// Boots a daemon and waits for its first answer: a `ping`, then one
/// `schedule` request (checked).
fn boot(fixture: &Fixture, rep: u64) -> Result<(ServerHandle, f64, Result<(), String>), String> {
    if let (Some(pristine), Some(path)) = (&fixture.pristine, &fixture.corpus) {
        std::fs::copy(pristine, path).map_err(|e| format!("reset cold corpus: {e}"))?;
    }
    let k = if fixture.mode == Mode::Cold { SETUP_TICKET + rep } else { rep };
    let (idx, line) = fixture.request(k);
    let t = Instant::now();
    let handle = serve(fixture.config()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect_with_timeout(handle.addr(), Some(TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let reply = client.send_line(&line).map_err(|e| format!("first request: {e}"))?;
    let dt = t.elapsed().as_secs_f64();
    Ok((handle, dt, fixture.check(idx, &reply).map(|_| ())))
}

/// One set-up sample: boot to first answer, inside a `setup` span.
fn timed_boot(
    ctx: &mut Ctx,
    fixture: &Fixture,
    rep: u64,
    setups: &mut Vec<f64>,
) -> Result<ServerHandle, String> {
    let span = ctx.tracer.open("setup", rep);
    let (handle, dt, first) = boot(fixture, rep)?;
    ctx.tracer.close(span);
    setups.push(dt);
    ctx.report.op(first);
    Ok(handle)
}

/// Shutdown until `join` returns: the scheduler finishes what is queued,
/// connections close (open stream sessions are parked on disk) and the
/// corpus, if any, is merged and rewritten.
pub fn drain(handle: ServerHandle) -> f64 {
    let t = Instant::now();
    handle.shutdown();
    handle.join();
    t.elapsed().as_secs_f64()
}

/// One completed (or failed) request as a client saw it.
struct Sample {
    client: usize,
    k: u64,
    start: Instant,
    end: Instant,
    outcome: Result<f64, String>,
}

impl Sample {
    /// Round trip in ms; a failed request misses every latency limit.
    fn latency_ms(&self) -> f64 {
        match self.outcome {
            Ok(_) => (self.end - self.start).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        }
    }
}

/// Closed loop over `clients` connections for `window` (and at least
/// `min_requests` requests), drawing request numbers from `next`.
fn load(
    fixture: &Fixture,
    addr: std::net::SocketAddr,
    clients: usize,
    window: Duration,
    min_requests: u64,
    next: &AtomicU64,
) -> Result<Vec<Sample>, String> {
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let floor = next.load(Ordering::Relaxed) + min_requests;
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let samples = &samples;
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect_with_timeout(addr, Some(TIMEOUT))
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut mine = Vec::new();
                    loop {
                        // ord: Relaxed — a ticket counter; no data rides on it.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if start.elapsed() >= window && k >= floor {
                            break;
                        }
                        let (idx, line) = fixture.request(k);
                        let t0 = Instant::now();
                        let reply = client.send_line(&line);
                        let t1 = Instant::now();
                        let outcome = match reply {
                            Ok(r) => fixture.check(idx, &r),
                            Err(e) => Err(format!("request r{k}: {e}")),
                        };
                        let broken = outcome.is_err();
                        mine.push(Sample { client: id, k, start: t0, end: t1, outcome });
                        if broken {
                            // Reconnect: a timed-out connection is out of step.
                            client = Client::connect_with_timeout(addr, Some(TIMEOUT))
                                .map_err(|e| format!("reconnect: {e}"))?;
                        }
                    }
                    samples.lock().expect("sample lock poisoned").extend(mine);
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let mut samples = samples.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|s| s.k);
    Ok(samples)
}

/// A store of the 12 Braun instances and no answers: what `pacga corpus
/// build --braun` writes.
fn braun_store(fixture: &Fixture) -> Result<StoreBuilder, String> {
    let mut builder = StoreBuilder::new();
    for inst in &fixture.instances {
        builder.add_instance(inst).map_err(|e| e.to_string())?;
    }
    Ok(builder)
}

/// Builds the hot corpus: instance records, then best records written
/// by a priming daemon that answers the request set once and persists
/// its cache on drain.
fn prime_corpus(ctx: &mut Ctx, fixture: &mut Fixture) -> Result<(), String> {
    let path = ctx.tmp.join("corpus.pacst");
    let mut builder = braun_store(fixture)?;
    for (k, consistency) in
        [Consistency::Inconsistent, Consistency::Consistent, Consistency::SemiConsistent]
            .into_iter()
            .enumerate()
    {
        let large = EtcGenerator::new(GeneratorParams {
            n_tasks: 4096,
            n_machines: 64,
            task_heterogeneity: Heterogeneity::High,
            machine_heterogeneity: Heterogeneity::High,
            consistency,
            seed: splitmix64(ctx.seed ^ (0x1A46E + k as u64)),
        })
        .generate_named(format!("large_4096x64.{k}"));
        builder.add_instance(&large).map_err(|e| e.to_string())?;
    }
    builder.write(&path).map_err(|e| e.to_string())?;
    fixture.corpus = Some(path.clone());

    // Prime through the daemon itself.
    let handle = serve(fixture.config()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect_with_timeout(handle.addr(), Some(TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    for k in 0..fixture.cycle() {
        let (idx, line) = fixture.request(k);
        let reply = client.send_line(&line).map_err(|e| format!("priming r{k}: {e}"))?;
        ctx.report.op(fixture.check_cached(idx, &reply, false).map(|_| ()));
    }
    drop(client);
    drain(handle);
    let reader = StoreReader::open_path(&path).map_err(|e| e.to_string())?;
    if reader.best_count() != fixture.cycle() || reader.instance_count() != 15 {
        return Err(format!(
            "primed corpus holds {} bests / {} instances",
            reader.best_count(),
            reader.instance_count()
        ));
    }
    ctx.report.note(format!("corpus {} bytes", reader.file_len()));
    Ok(())
}

fn stat(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

pub fn run(ctx: &mut Ctx, mode: Mode) -> Result<(), String> {
    let mut fixture = Fixture::new(mode, ctx.seed);
    match mode {
        Mode::Hot => prime_corpus(ctx, &mut fixture)?,
        // Each boot starts from the Braun store, so the cache starts
        // empty, and each drain merges its answers into it.
        Mode::Cold => {
            let pristine = ctx.tmp.join("braun.pacst");
            braun_store(&fixture)?.write(&pristine).map_err(|e| e.to_string())?;
            fixture.pristine = Some(pristine);
            fixture.corpus = Some(ctx.tmp.join("cold.pacst"));
        }
    }

    // Set-up and drain, `boots` times: half before the load, the rest
    // after it, so the medians span the run. The middle boot serves the
    // load.
    let (mut setups, mut drains) = (Vec::new(), Vec::new());
    let boots = boots(mode) as u64;
    for rep in 0..boots / 2 {
        let handle = timed_boot(ctx, &fixture, rep, &mut setups)?;
        drains.push(ctx.tracer.span("drain", rep, || drain(handle)));
    }
    let handle = timed_boot(ctx, &fixture, boots / 2, &mut setups)?;
    let addr = handle.addr();
    let next = AtomicU64::new(0);
    let cycle = fixture.cycle();
    let (mut c1, mut c2) = (Vec::new(), Vec::new());
    for block in 0..BLOCKS {
        // The first block answers every distinct request at least once.
        let floor = if block == 0 { cycle } else { 1 };
        c1.extend(load(&fixture, addr, 1, ctx.block(), floor, &next)?);
        c2.extend(load(&fixture, addr, 2, ctx.block(), 1, &next)?);
    }

    let mut stats_client =
        Client::connect_with_timeout(addr, Some(TIMEOUT)).map_err(|e| format!("connect: {e}"))?;
    let stats = stats_client.stats().map_err(|e| format!("stats: {e}"))?;
    // One more answer, kept whole for the encode replay (not counted).
    let sample_reply = if ctx.tracer.enabled() {
        let (_, line) = fixture.request(next.fetch_add(1, Ordering::Relaxed));
        Some(stats_client.send_line(&line).map_err(|e| format!("sample request: {e}"))?)
    } else {
        None
    };
    drop(stats_client);
    drains.push(ctx.tracer.span("drain", boots / 2, || drain(handle)));
    for rep in boots / 2 + 1..boots {
        let handle = timed_boot(ctx, &fixture, rep, &mut setups)?;
        drains.push(ctx.tracer.span("drain", rep, || drain(handle)));
    }

    // Accounting and checks.
    let mut ratios = std::collections::BTreeMap::new();
    for s in c1.iter().chain(&c2) {
        if let Ok(r) = &s.outcome {
            ratios.entry(s.k % cycle).or_insert(*r);
        }
        ctx.report.op(s.outcome.as_ref().map(|_| ()).map_err(|e| format!("r{}: {e}", s.k)));
    }
    let (hits, misses) = (stat(&stats, "cache_hits"), stat(&stats, "cache_misses"));
    let evaluations = stat(&stats, "evaluations");
    let server_ok = match mode {
        Mode::Hot if evaluations != 0 || misses != 0 => {
            Err(format!("hot daemon ran the engine: {evaluations} evals, {misses} misses"))
        }
        Mode::Cold if hits != 0 => Err(format!("cold daemon answered {hits} requests from cache")),
        _ if stat(&stats, "errors") + stat(&stats, "busy") != 0 => {
            Err(format!("daemon counted errors/busy: {stats}"))
        }
        _ => Ok(()),
    };
    ctx.report.op(server_ok);
    if (ratios.len() as u64) < cycle {
        ctx.report.op(Err(format!("only {} of {cycle} distinct requests answered", ratios.len())));
    }

    let lat_c2: Vec<f64> = c2.iter().map(Sample::latency_ms).collect();
    ctx.report.metric("setup_s", median(&setups), "s");
    ctx.report.metric("drain_s", median(&drains), "s");
    let rate = |samples: &[Sample]| {
        closed_loop_rate(&samples.iter().map(|s| (s.client, s.end)).collect::<Vec<_>>())
    };
    ctx.report.metric("ops_per_s_c1", rate(&c1), "1/s");
    ctx.report.metric("ops_per_s_c2", rate(&c2), "1/s");
    ctx.report.metric("latency_p50_ms", median(&lat_c2), "ms");
    ctx.report.metric("trace.latency_p90_ms", quantile(&lat_c2, 0.9), "ms");
    let first_cycle: Vec<f64> = ratios.values().copied().collect();
    ctx.report.metric(
        "makespan_ratio",
        first_cycle.iter().sum::<f64>() / first_cycle.len().max(1) as f64,
        "ratio",
    );
    ctx.report.note(format!(
        "op = one schedule request (closed loop); c1 = 1 connection ({} requests), c2 = 2 connections ({} requests, latency samples); makespan_ratio = mean makespan/Min-min over the {cycle} distinct requests",
        c1.len(),
        c2.len()
    ));
    ctx.report.count("requests", (c1.len() + c2.len()) as u64);
    ctx.report.count("server.evaluations", evaluations);
    ctx.report.count("server.cache_hits", hits);
    ctx.report.count("server.cache_misses", misses);
    ctx.report.count("server.batches", stat(&stats, "batches"));
    ctx.report.count("server.coalesced", stat(&stats, "coalesced"));

    if ctx.tracer.enabled() {
        for s in c1.iter().chain(&c2) {
            ctx.tracer.record("request", s.k, s.start, s.end);
        }
        let lines: Vec<String> = (0..cycle).map(|k| fixture.request(k).1).collect();
        let sample_answer = decode_result(sample_reply.as_deref().unwrap_or(""))?;
        let inputs = Inputs::for_daemon(
            &fixture.instances,
            lines,
            sample_answer,
            fixture.corpus.clone(),
            mode == Mode::Hot,
            median(&lat_c2),
            &stats,
        )?;
        layers::replay(ctx, inputs)?;
    }
    Ok(())
}

/// Decodes a `result` reply back into the daemon's `Response`, so the
/// encode replay serializes exactly what the daemon sent.
fn decode_result(reply: &str) -> Result<Response, String> {
    let v = Json::parse(reply.trim_end()).map_err(|e| format!("unparseable reply: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("reply lacks {k}"));
    Ok(Response::Result {
        id: v.get("id").and_then(Json::as_str).map(str::to_string),
        instance: v.get("instance").and_then(Json::as_str).unwrap_or("").to_string(),
        n_tasks: num("n_tasks")? as usize,
        n_machines: num("n_machines")? as usize,
        makespan: num("makespan")?,
        evaluations: num("evaluations")? as u64,
        engine_ms: num("engine_ms")?,
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        coalesced: v.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
        assignment: v
            .get("assignment")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(|g| g.as_u64().map(|g| g as u32)).collect()),
    })
}
