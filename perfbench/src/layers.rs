//! The traced run's per-layer metrics.
//!
//! After a workload's load phases, the traced run replays the calls its
//! operations make into each module's public functions, on the same
//! inputs (the workload's instance, engine configuration, wire lines,
//! store and storm script), each inside a span named after its layer.
//! A layer metric is the median duration of its spans; counts and ratios
//! come from the replayed outcomes and the daemon's `stats`. Every
//! workload reports every layer: one whose operations do not touch a
//! layer replays it on the workload's own instance (a Braun
//! schedule line, a store of its instances, a short storm over it).

use crate::engine::build_population;
use crate::measure::median;
use crate::measure::Report;
use crate::storm::{event_line, Script};
use crate::stream::{EVENT_EVALS, GRID_SIDE, SESSION_LS};
use crate::Ctx;
use etc_model::EtcInstance;
use grid_sim::{DynamicGrid, MctRescheduler};
use heuristics::Heuristic;
use pa_cga_core::checkpoint::{self, CheckpointMeta, Crc32};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::{warm_population, PaCga};
use pa_cga_core::fsx;
use pa_cga_core::individual::Individual;
use pa_cga_core::rng::{stream_rng, INIT_STREAM};
use pa_cga_core::trace::RunOutcome;
use pa_cga_service::cache::{CachedRun, ScheduleCache};
use pa_cga_service::protocol::{Request, Response, ScheduleRequest};
use pa_cga_service::store::{StoreBuilder, StoreReader};
use pa_cga_service::{Json, StreamSession};
use scheduling::Schedule;
use std::path::PathBuf;

/// Every per-layer metric, in print order, with its unit.
pub const NAMES: [(&str, &str); 47] = [
    ("engine.init_ms", "ms"),
    ("heuristics.min_min_ms", "ms"),
    ("engine.random_pop_ms", "ms"),
    ("engine.sweep_s", "s"),
    ("engine.evals", "count"),
    ("engine.generations", "count"),
    ("engine.replacements", "count"),
    ("engine.accept_ratio", "ratio"),
    ("engine.gen_skew", "ratio"),
    ("engine.evals_per_s_t1", "evals/s"),
    ("engine.evals_per_s_t2", "evals/s"),
    ("engine.scaling_eff", "ratio"),
    ("engine.run_ms", "ms"),
    ("local_search.h2ll_us", "us"),
    ("protocol.decode_us", "us"),
    ("etc_model.resolve_us", "us"),
    ("protocol.digest_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("protocol.encode_us", "us"),
    ("server.batches", "count"),
    ("server.batch_mean", "count"),
    ("server.coalesced", "count"),
    ("server.unattributed_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.bests_ms", "ms"),
    ("store.merge_ms", "ms"),
    ("store.write_ms", "ms"),
    ("checkpoint.crc_ms", "ms"),
    ("checkpoint.crc_bytes", "bytes"),
    ("stream.event_ms", "ms"),
    ("grid_sim.apply_us", "us"),
    ("grid_sim.repair_ms", "ms"),
    ("heuristics.immigrants_ms", "ms"),
    ("stream.cold_ms", "ms"),
    ("stream.warm_ms", "ms"),
    ("etc_model.write_text_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("fsx.write_ms", "ms"),
    ("fsx.fsyncs", "count"),
    ("fsx.bytes", "bytes"),
    ("stream.warm_win_ratio", "ratio"),
    ("stream.rejected", "count"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.latency_p90_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("process.peak_rss_mb", "MB"),
];

/// Repetitions of millisecond-scale replays.
const REPS: usize = 7;
/// Repetitions of microsecond-scale replays.
const MICRO_REPS: usize = 256;
/// Instance resolutions replayed (each one builds a 512×16 matrix).
const RESOLVE_REPS: usize = 64;
/// Store rewrites replayed (each one fsyncs the whole store).
const WRITE_REPS: usize = 3;
/// Storm events replayed in-process.
const STREAM_EVENTS: usize = 8;
/// Warm-start chunks per event, as the stream session runs them.
const WARM_CHUNKS: u64 = 8;

/// Which workload the inputs come from: decides the blocking path that
/// `server.unattributed_ms` subtracts and where the counters come from.
pub enum Kind {
    /// Measured evaluation rates at one and two engine threads.
    Engine {
        evals_per_s: (f64, f64),
    },
    Serve {
        hot: bool,
        stats: Json,
    },
    Stream {
        warm_win_ratio: f64,
        rejected: u64,
    },
}

pub struct Inputs {
    kind: Kind,
    /// The instance one operation schedules.
    instance: EtcInstance,
    /// One operation's engine configuration, at one thread.
    config: PaCgaConfig,
    /// Instances a store of this workload holds (when it has no corpus).
    store_instances: Vec<EtcInstance>,
    /// Wire lines the workload sends.
    lines: Vec<String>,
    /// A response as the daemon encodes it (none: built from the replay).
    response: Option<Response>,
    corpus: Option<PathBuf>,
    /// `stream.open` + `stream.event` lines replayed in-process.
    stream_lines: Vec<String>,
    /// The traced run's median operation latency.
    op_p50_ms: f64,
}

fn schedule_line(name: &str, evals: u64, ls: usize, seed: u64) -> String {
    format!(
        "{{\"type\":\"schedule\",\"braun\":\"{name}\",\"evals\":{evals},\"seed\":{seed},\"ls\":{ls},\"assignment\":true}}"
    )
}

/// A short storm over a Braun instance, for workloads without streams.
fn braun_storm(name: &str, instance: &EtcInstance, seed: u64) -> Vec<String> {
    let mut lines = vec![format!(
        "{{\"type\":\"stream.open\",\"session\":\"replay\",\"braun\":\"{name}\",\"evals\":{EVENT_EVALS},\"seed\":{seed},\"grid\":{GRID_SIDE},\"ls\":{SESSION_LS},\"assignment\":true}}"
    )];
    let mut world = DynamicGrid::new(instance.clone());
    let mut script = Script::new(seed);
    for seq in 0..STREAM_EVENTS as u64 {
        let event = script.next(&world);
        lines.push(event_line(seq, &event));
        if world.apply(&event).is_err() {
            break;
        }
    }
    lines
}

fn first_schedule(lines: &[String]) -> Result<ScheduleRequest, String> {
    for line in lines {
        match Request::decode(line)? {
            Request::Schedule(r) => return Ok(*r),
            Request::StreamOpen(o) => {
                if let Some(spec) = o.spec {
                    return Ok(spec);
                }
            }
            _ => {}
        }
    }
    Err("no schedule spec among the workload's lines".into())
}

impl Inputs {
    pub fn for_engine(
        instance: &EtcInstance,
        config: PaCgaConfig,
        evals_per_s: (f64, f64),
        op_p50_ms: f64,
    ) -> Inputs {
        let evals = config.termination.evaluation_budget().unwrap_or(0);
        let ls = config.local_search.map(|h| h.iterations).unwrap_or(0);
        Inputs {
            kind: Kind::Engine { evals_per_s },
            lines: vec![schedule_line(instance.name(), evals, ls, config.seed)],
            stream_lines: braun_storm(instance.name(), instance, config.seed),
            instance: instance.clone(),
            config,
            store_instances: vec![instance.clone()],
            response: None,
            corpus: None,
            op_p50_ms,
        }
    }

    pub fn for_daemon(
        instances: &[EtcInstance],
        lines: Vec<String>,
        response: Response,
        corpus: Option<PathBuf>,
        hot: bool,
        op_p50_ms: f64,
        stats: &Json,
    ) -> Result<Inputs, String> {
        let spec = first_schedule(&lines)?;
        let instance = spec.resolve_instance()?;
        Ok(Inputs {
            kind: Kind::Serve { hot, stats: stats.clone() },
            config: spec.build_config(),
            stream_lines: braun_storm(instance.name(), &instance, spec.seed),
            instance,
            store_instances: instances.to_vec(),
            lines,
            response: Some(response),
            corpus,
            op_p50_ms,
        })
    }

    pub fn for_stream(
        world: EtcInstance,
        lines: Vec<String>,
        op_p50_ms: f64,
        warm_win_ratio: f64,
        rejected: u64,
    ) -> Result<Inputs, String> {
        let spec = first_schedule(&lines)?;
        let config = session_config(&spec, spec.seed);
        let stream_lines = lines.iter().take(STREAM_EVENTS + 1).cloned().collect();
        Ok(Inputs {
            kind: Kind::Stream { warm_win_ratio, rejected },
            instance: world.clone(),
            config,
            store_instances: vec![world],
            lines,
            response: None,
            corpus: None,
            stream_lines,
            op_p50_ms,
        })
    }
}

/// The engine configuration a stream session runs per event.
fn session_config(spec: &ScheduleRequest, seed: u64) -> PaCgaConfig {
    PaCgaConfig::builder()
        .grid(GRID_SIDE, GRID_SIDE)
        .threads(1)
        .local_search_iterations(spec.ls)
        .crossover(spec.crossover)
        .termination(spec.termination)
        .seed(seed)
        .build()
}

/// Reports per-layer metric `name` with its unit from [`NAMES`].
fn put(report: &mut Report, name: &'static str, value: f64) {
    let (_, unit) = NAMES.iter().find(|(n, _)| *n == name).expect("metric listed in NAMES");
    report.metric(name, value, unit);
}

/// `REPS` steady-state runs from `pop`, each inside a span named
/// `name`: their evaluation rates and outcomes with final populations.
fn sweeps(
    ctx: &mut Ctx,
    inst: &EtcInstance,
    cfg: &PaCgaConfig,
    pop: &[Individual],
    name: &'static str,
) -> (Vec<f64>, Vec<(RunOutcome, Vec<Individual>)>) {
    let engine = PaCga::new(inst, cfg.clone());
    let mut rates = Vec::new();
    let mut runs = Vec::new();
    for rep in 0..REPS as u64 {
        let initial = pop.to_vec();
        let t = std::time::Instant::now();
        let (outcome, final_pop) = ctx.tracer.span(name, rep, || engine.run_seeded(initial));
        rates.push(outcome.evaluations as f64 / t.elapsed().as_secs_f64());
        runs.push((outcome, final_pop));
    }
    (rates, runs)
}

/// Engine layers: init and its parts, whole runs, steady-state sweeps at
/// one and two threads, H2LL on the final population.
fn engine_layers(ctx: &mut Ctx, inp: &Inputs) -> Result<(Vec<Individual>, RunOutcome), String> {
    let inst = &inp.instance;
    let cfg = &inp.config;
    let size = cfg.population_size();
    for rep in 0..REPS as u64 {
        let init = ctx.tracer.open("engine.init", rep);
        let seed = ctx.tracer.span("heuristics.min_min", rep, || heuristics::min_min(inst));
        let mut pop = ctx.tracer.span("engine.random_pop", rep, || {
            let mut rng = stream_rng(cfg.seed, INIT_STREAM);
            (1..size).map(|_| Schedule::random(inst, &mut rng)).collect::<Vec<_>>()
        });
        pop.insert(0, seed);
        let pop: Vec<Individual> = pop.into_iter().map(Individual::new).collect();
        std::hint::black_box(pop);
        ctx.tracer.close(init);
    }
    for rep in 0..REPS as u64 {
        let outcome = ctx.tracer.span("engine.run", rep, || PaCga::new(inst, cfg.clone()).run());
        std::hint::black_box(outcome.evaluations);
    }

    let pop = build_population(inst, cfg);
    let (t1, one) = sweeps(ctx, inst, cfg, &pop, "engine.sweep");
    let mut cfg2 = cfg.clone();
    cfg2.threads = 2;
    let (t2, two) = sweeps(ctx, inst, &cfg2, &pop, "engine.sweep_t2");
    let skew: Vec<f64> = two
        .iter()
        .filter_map(|(o, _)| {
            let (lo, hi) = (o.generations.iter().min()?, o.generations.iter().max()?);
            Some(*hi as f64 / (*lo).max(1) as f64)
        })
        .collect();
    let (outcome, final_pop) = one.into_iter().last().expect("REPS >= 1");
    let (e1, e2) = match inp.kind {
        Kind::Engine { evals_per_s } => evals_per_s,
        _ => (median(&t1), median(&t2)),
    };
    let evals = outcome.evaluations;
    let replacements: u64 = outcome.replacements.iter().sum();
    put(&mut ctx.report, "engine.evals", evals as f64);
    put(&mut ctx.report, "engine.generations", outcome.generations.iter().sum::<u64>() as f64);
    put(&mut ctx.report, "engine.replacements", replacements as f64);
    put(&mut ctx.report, "engine.accept_ratio", replacements as f64 / evals.max(1) as f64);
    put(&mut ctx.report, "engine.gen_skew", median(&skew));
    put(&mut ctx.report, "engine.evals_per_s_t1", e1);
    put(&mut ctx.report, "engine.evals_per_s_t2", e2);
    put(&mut ctx.report, "engine.scaling_eff", e2 / (2.0 * e1));
    ctx.report.count("layer.engine.evals_t1", evals);

    let ls = cfg.local_search.ok_or("configuration has no local search")?;
    let mut rng = stream_rng(cfg.seed, 0x4211);
    for (i, ind) in final_pop.iter().take(64).enumerate() {
        let mut schedule = ind.schedule.clone();
        ctx.tracer.span("local_search.h2ll", i as u64, || ls.apply(inst, &mut schedule, &mut rng));
    }
    Ok((final_pop, outcome))
}

/// Protocol and cache layers on the workload's own lines.
fn protocol_layers(ctx: &mut Ctx, inp: &Inputs) -> Result<Vec<u64>, String> {
    for i in 0..MICRO_REPS.max(inp.lines.len()) {
        let line = &inp.lines[i % inp.lines.len()];
        ctx.tracer.span("protocol.decode", i as u64, || Request::decode(line))?;
    }
    let mut specs = Vec::new();
    for line in &inp.lines {
        match Request::decode(line)? {
            Request::Schedule(r) => specs.push(*r),
            Request::StreamOpen(o) => specs.extend(o.spec),
            _ => {}
        }
    }
    let mut digests = Vec::new();
    for i in 0..RESOLVE_REPS.max(specs.len()) {
        let spec = &specs[i % specs.len()];
        let inst = ctx.tracer.span("etc_model.resolve", i as u64, || spec.resolve_instance())?;
        let d = ctx.tracer.span("protocol.digest", i as u64, || spec.digest(&inst));
        if i < specs.len() {
            digests.push(d);
        }
    }
    let mut cache = ScheduleCache::new(128);
    if let (Some(path), Kind::Serve { hot: true, .. }) = (&inp.corpus, &inp.kind) {
        let mut reader = StoreReader::open_path(path).map_err(|e| e.to_string())?;
        for (d, run) in reader.bests().map_err(|e| e.to_string())? {
            cache.insert(d, run);
        }
    }
    for i in 0..MICRO_REPS {
        let d = digests[i % digests.len()];
        ctx.tracer.span("cache.lookup", i as u64, || cache.get(d));
    }
    let hit_ratio = match &inp.kind {
        Kind::Serve { stats, .. } => {
            let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
            n("cache_hits") / (n("cache_hits") + n("cache_misses")).max(1.0)
        }
        _ => cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
    };
    put(&mut ctx.report, "cache.hit_ratio", hit_ratio);
    let (batches, completed, coalesced) = match &inp.kind {
        Kind::Serve { stats, .. } => {
            let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
            (n("batches"), n("completed"), n("coalesced"))
        }
        _ => (0, 0, 0),
    };
    put(&mut ctx.report, "server.batches", batches as f64);
    put(&mut ctx.report, "server.batch_mean", completed as f64 / batches.max(1) as f64);
    put(&mut ctx.report, "server.coalesced", coalesced as f64);
    Ok(digests)
}

/// Store layers: open, bests, merge and rewrite of the workload's store,
/// and the CRC over the bytes the store and a checkpoint frame.
fn store_layers(
    ctx: &mut Ctx,
    inp: &Inputs,
    digest: u64,
    final_pop: &[Individual],
) -> Result<(), String> {
    let path = match &inp.corpus {
        Some(p) => p.clone(),
        None => {
            let mut b = StoreBuilder::new();
            for inst in &inp.store_instances {
                b.add_instance(inst).map_err(|e| e.to_string())?;
            }
            let best = &final_pop[0].schedule;
            b.add_best(
                digest,
                &CachedRun {
                    instance: inp.instance.name().to_string(),
                    n_tasks: best.n_tasks(),
                    n_machines: best.n_machines(),
                    makespan: best.makespan(),
                    evaluations: 0,
                    engine_ms: 0.0,
                    assignment: best.assignment().to_vec(),
                },
            )
            .map_err(|e| e.to_string())?;
            let p = ctx.tmp.join("layers.pacst");
            b.write(&p).map_err(|e| e.to_string())?;
            p
        }
    };
    for rep in 0..REPS as u64 {
        let mut reader = ctx
            .tracer
            .span("store.open", rep, || StoreReader::open_path(&path))
            .map_err(|e| e.to_string())?;
        ctx.tracer.span("store.bests", rep, || reader.bests()).map_err(|e| e.to_string())?;
    }
    let target = ctx.tmp.join("layers_out.pacst");
    for rep in 0..WRITE_REPS as u64 {
        let builder = ctx
            .tracer
            .span("store.merge", rep, || {
                StoreReader::open_path(&path).and_then(|mut r| r.to_builder())
            })
            .map_err(|e| e.to_string())?;
        ctx.tracer
            .span("store.write", rep, || builder.write(&target))
            .map_err(|e| e.to_string())?;
    }
    let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    checkpoint::save_population_meta(&mut bytes, final_pop, &CheckpointMeta::default())
        .map_err(|e| e.to_string())?;
    for rep in 0..REPS as u64 {
        std::hint::black_box(ctx.tracer.span("checkpoint.crc", rep, || Crc32::of(&bytes)));
    }
    put(&mut ctx.report, "checkpoint.crc_bytes", bytes.len() as f64);
    ctx.report.count("layer.crc_bytes", bytes.len() as u64);
    Ok(())
}

/// Stream layers: the workload's storm replayed through an in-process
/// `StreamSession` on a scratch data dir, and each event's steps
/// replayed on the same world transition.
fn stream_layers(ctx: &mut Ctx, inp: &Inputs) -> Result<Vec<Response>, String> {
    let open = match Request::decode(&inp.stream_lines[0])? {
        Request::StreamOpen(o) => *o,
        _ => return Err("stream replay needs a stream.open line".into()),
    };
    let spec = open.spec.clone().ok_or("stream.open without a spec")?;
    let name = open.session.clone().ok_or("stream replay needs a named session")?;
    let data = ctx.tmp.join("replay_data");
    let session_dir = data.join("sessions").join(&name);
    let (mut session, _) =
        StreamSession::open(open, Some(&data)).map_err(|(c, m)| format!("{c}: {m}"))?;
    let mut mirror = DynamicGrid::new(spec.resolve_instance()?);
    let fsx_dir = ctx.tmp.join("fsx_replay");
    std::fs::create_dir_all(&fsx_dir).map_err(|e| e.to_string())?;
    let (mut fsyncs, mut fsx_bytes, mut events) = (0u64, 0u64, 0u64);
    let mut responses = Vec::new();
    for (i, line) in inp.stream_lines.iter().enumerate().skip(1) {
        let req = match Request::decode(line)? {
            Request::StreamEvent(r) => *r,
            _ => continue,
        };
        let event = req.event.clone()?;
        let (before, _) =
            checkpoint::load_from_path(&session_dir.join("checkpoint.ckpt"), mirror.base())
                .map_err(|e| e.to_string())?;
        let req_id = i as u64;
        let body = ctx
            .tracer
            .span("stream.event", req_id, || session.handle_event(req))
            .map_err(|(c, m)| format!("replayed event {i}: {c}: {m}"))?;
        responses.push(Response::StreamResult(body));
        events += 1;

        // The same transition, step by step.
        let remap = ctx
            .tracer
            .span("grid_sim.apply", req_id, || mirror.apply(&event))
            .map_err(|e| e.to_string())?;
        let repaired: Vec<Vec<u32>> = ctx.tracer.span("grid_sim.repair", req_id, || {
            before
                .iter()
                .map(|ind| {
                    mirror.repair_assignment(ind.schedule.assignment(), remap, &MctRescheduler)
                })
                .collect()
        });
        let sub = mirror.sub_instance();
        let immigrants: Vec<Vec<u32>> = ctx.tracer.span("heuristics.immigrants", req_id, || {
            Heuristic::all().iter().map(|h| h.schedule(&sub).assignment().to_vec()).collect()
        });
        let budget = spec.termination.evaluation_budget().unwrap_or(EVENT_EVALS);
        let cfg = session_config(&spec, spec.seed ^ req_id);
        ctx.tracer.span("stream.cold", req_id, || {
            std::hint::black_box(PaCga::new(&sub, cfg.clone()).run())
        });
        ctx.tracer.span("stream.warm", req_id, || {
            let mut local: Vec<Vec<u32>> =
                repaired.iter().filter_map(|g| mirror.to_local(g)).collect();
            local.sort_by(|a, b| {
                let fa = Schedule::from_assignment(&sub, a.clone()).makespan();
                let fb = Schedule::from_assignment(&sub, b.clone()).makespan();
                fa.total_cmp(&fb)
            });
            let keep = local.len().saturating_sub(immigrants.len()).max(1);
            local.truncate(keep);
            local.extend(immigrants.iter().cloned());
            let mut pop = warm_population(&sub, &cfg, &local);
            let chunk = (budget / WARM_CHUNKS).max(1);
            for c in 0..WARM_CHUNKS {
                let mut chunk_cfg = cfg.clone();
                chunk_cfg.termination = Termination::Evaluations(chunk);
                chunk_cfg.seed = cfg.seed.wrapping_add(c + 1);
                pop = PaCga::new(&sub, chunk_cfg).run_seeded(pop).1;
            }
            std::hint::black_box(pop);
        });
        let mut text = Vec::new();
        ctx.tracer
            .span("etc_model.write_text", req_id, || {
                etc_model::io::write_instance(&mut text, mirror.base())
            })
            .map_err(|e| e.to_string())?;
        let individuals: Vec<Individual> = repaired
            .iter()
            .map(|g| Individual::new(Schedule::from_assignment(mirror.base(), g.clone())))
            .collect();
        let mut ckpt = Vec::new();
        ctx.tracer
            .span("checkpoint.save", req_id, || {
                checkpoint::save_population_meta(
                    &mut ckpt,
                    &individuals,
                    &CheckpointMeta::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let meta = std::fs::read(session_dir.join("session.json")).map_err(|e| e.to_string())?;
        ctx.tracer
            .span("fsx.write", req_id, || -> std::io::Result<()> {
                fsx::atomic_write_with(&fsx_dir.join("instance.etc"), |mut w| {
                    etc_model::io::write_instance(&mut w, mirror.base())
                })?;
                fsx::atomic_write(&fsx_dir.join("session.json"), &meta)?;
                fsx::atomic_write_with(&fsx_dir.join("checkpoint.ckpt"), |w| {
                    checkpoint::save_population_meta(w, &individuals, &CheckpointMeta::default())
                })
            })
            .map_err(|e| e.to_string())?;
        // Each atomic write syncs the file and its directory.
        fsyncs += 6;
        fsx_bytes += (text.len() + meta.len() + ckpt.len()) as u64;
    }
    let summary = session.close();
    let (warm, rejected) = match inp.kind {
        Kind::Stream { warm_win_ratio, rejected } => (warm_win_ratio, rejected),
        _ => (summary.warm_wins as f64 / summary.events.max(1) as f64, summary.rejected),
    };
    if summary.rejected != 0 {
        return Err(format!("replayed session rejected {} events", summary.rejected));
    }
    put(&mut ctx.report, "stream.warm_win_ratio", warm);
    put(&mut ctx.report, "stream.rejected", rejected as f64);
    put(&mut ctx.report, "fsx.fsyncs", (fsyncs / events.max(1)) as f64);
    put(&mut ctx.report, "fsx.bytes", (fsx_bytes / events.max(1)) as f64);
    ctx.report.count("layer.stream_events", events);
    ctx.report.count("layer.fsx_fsyncs", fsyncs);
    ctx.report.count("layer.fsx_bytes", fsx_bytes);
    Ok(responses)
}

/// Cost of one enabled span, in ns.
fn span_cost_ns() -> f64 {
    let mut t = crate::measure::Tracer::new(true);
    let n = 100_000;
    let start = std::time::Instant::now();
    for i in 0..n {
        t.span("x", i, || ());
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

pub fn replay(ctx: &mut Ctx, inp: Inputs) -> Result<(), String> {
    let root = ctx.tracer.open("replay", 0);
    let (final_pop, outcome) = engine_layers(ctx, &inp)?;
    let digests = protocol_layers(ctx, &inp)?;
    store_layers(ctx, &inp, digests[0], &final_pop)?;
    let stream_responses = stream_layers(ctx, &inp)?;
    let responses = match (&inp.response, &inp.kind) {
        (Some(r), _) => vec![r.clone()],
        (None, Kind::Stream { .. }) => stream_responses,
        (None, _) => {
            let best = &outcome.best.schedule;
            vec![Response::Result {
                id: None,
                instance: inp.instance.name().to_string(),
                n_tasks: best.n_tasks(),
                n_machines: best.n_machines(),
                makespan: best.makespan(),
                evaluations: outcome.evaluations,
                engine_ms: outcome.elapsed.as_secs_f64() * 1e3,
                cached: false,
                coalesced: false,
                assignment: Some(best.assignment().to_vec()),
            }]
        }
    };
    for i in 0..MICRO_REPS {
        let r = &responses[i % responses.len()];
        std::hint::black_box(ctx.tracer.span("protocol.encode", i as u64, || r.encode()));
    }
    ctx.tracer.close(root);

    let t = &ctx.tracer;
    let ms = |name: &str| t.median_ms(name);
    for (metric, span, scale) in [
        ("engine.init_ms", "engine.init", 1.0),
        ("heuristics.min_min_ms", "heuristics.min_min", 1.0),
        ("engine.random_pop_ms", "engine.random_pop", 1.0),
        ("engine.sweep_s", "engine.sweep", 1e-3),
        ("engine.run_ms", "engine.run", 1.0),
        ("local_search.h2ll_us", "local_search.h2ll", 1e3),
        ("protocol.decode_us", "protocol.decode", 1e3),
        ("etc_model.resolve_us", "etc_model.resolve", 1e3),
        ("protocol.digest_us", "protocol.digest", 1e3),
        ("cache.lookup_us", "cache.lookup", 1e3),
        ("protocol.encode_us", "protocol.encode", 1e3),
        ("store.open_ms", "store.open", 1.0),
        ("store.bests_ms", "store.bests", 1.0),
        ("store.merge_ms", "store.merge", 1.0),
        ("store.write_ms", "store.write", 1.0),
        ("checkpoint.crc_ms", "checkpoint.crc", 1.0),
        ("stream.event_ms", "stream.event", 1.0),
        ("grid_sim.apply_us", "grid_sim.apply", 1e3),
        ("grid_sim.repair_ms", "grid_sim.repair", 1.0),
        ("heuristics.immigrants_ms", "heuristics.immigrants", 1.0),
        ("stream.cold_ms", "stream.cold", 1.0),
        ("stream.warm_ms", "stream.warm", 1.0),
        ("etc_model.write_text_ms", "etc_model.write_text", 1.0),
        ("checkpoint.save_ms", "checkpoint.save", 1.0),
        ("fsx.write_ms", "fsx.write", 1.0),
    ] {
        put(&mut ctx.report, metric, ms(span) * scale);
    }
    // What the layers replayed on the operation's blocking path do not
    // account for: sockets, hand-offs, queue waits, contention.
    let path_ms = match &inp.kind {
        Kind::Engine { .. } => ms("engine.sweep_t2"),
        Kind::Serve { hot, .. } => {
            let front = ms("protocol.decode")
                + ms("etc_model.resolve")
                + ms("protocol.digest")
                + ms("cache.lookup")
                + ms("protocol.encode");
            if *hot {
                front
            } else {
                front + ms("engine.run")
            }
        }
        Kind::Stream { .. } => ms("protocol.decode") + ms("stream.event") + ms("protocol.encode"),
    };
    put(&mut ctx.report, "server.unattributed_ms", inp.op_p50_ms - path_ms);
    put(&mut ctx.report, "trace.latency_p50_ms", inp.op_p50_ms);
    // The load phases record one span per operation.
    put(&mut ctx.report, "trace.overhead_pct", span_cost_ns() / (inp.op_p50_ms * 1e6) * 100.0);

    Ok(())
}
