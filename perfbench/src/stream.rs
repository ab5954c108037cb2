//! `stream_durable`: named durable stream sessions on a daemon started
//! with a data directory, fed a seeded mixed storm in a closed loop over
//! a generated 512×16 world. Every answer is re-priced on a client-side
//! mirror of the world.

use crate::daemon::drain;
use crate::layers::{self, Inputs};
use crate::measure::{closed_loop_rate, median, quantile};
use crate::storm::{event_line, Script};
use crate::{Ctx, BLOCKS};
use etc_model::{Consistency, EtcGenerator, GeneratorParams, Heterogeneity};
use grid_sim::DynamicGrid;
use pa_cga_core::checkpoint;
use pa_cga_core::rng::splitmix64;
use pa_cga_service::{serve, Client, Json, ServeConfig, ServerHandle};
use scheduling::Schedule;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-event reschedule budget (evaluations, warm and cold each).
pub const EVENT_EVALS: u64 = 2_048;
/// Population side of the session engine.
pub const GRID_SIDE: usize = 8;
/// H2LL iterations of the session engine.
pub const SESSION_LS: u64 = 2;
/// Session A's first events, whose answers set `makespan_ratio`.
const QUALITY_EVENTS: usize = 16;
/// Daemon boots per run timed for `setup_s` and `drain_s`.
const BOOTS: usize = 41;
const TIMEOUT: Duration = Duration::from_secs(60);

/// The generated world of this seed.
fn world_params(seed: u64) -> GeneratorParams {
    GeneratorParams {
        n_tasks: 512,
        n_machines: 16,
        task_heterogeneity: Heterogeneity::High,
        machine_heterogeneity: Heterogeneity::High,
        consistency: Consistency::Inconsistent,
        // Masked to 32 bits: the seed rides the wire as a JSON number.
        seed: splitmix64(seed ^ 0xE7C) & 0xFFFF_FFFF,
    }
}

/// The `stream.open` line of a durable session over the generated world.
fn open_line(session: &str, params: &GeneratorParams, engine_seed: u64) -> String {
    format!(
        "{{\"type\":\"stream.open\",\"session\":\"{session}\",\"etc_model\":{{\"tasks\":{},\"machines\":{},\"consistency\":\"i\",\"task_het\":\"hi\",\"machine_het\":\"hi\",\"seed\":{}}},\"evals\":{EVENT_EVALS},\"seed\":{engine_seed},\"grid\":{GRID_SIDE},\"ls\":{SESSION_LS},\"assignment\":true}}",
        params.n_tasks, params.n_machines, params.seed
    )
}

/// One connection driving one named session.
struct Session {
    name: String,
    client: Client,
    mirror: DynamicGrid,
    script: Script,
    seq: u64,
    lines: Vec<String>,
}

/// One event round trip as the client saw it.
struct Sample {
    session: usize,
    seq: u64,
    latency_ms: f64,
    start: Instant,
    end: Instant,
    outcome: Result<f64, String>,
}

impl Session {
    /// Connects and opens `name`; `seed` drives both the session's
    /// engine and its storm script.
    fn open(
        addr: std::net::SocketAddr,
        name: &str,
        params: &GeneratorParams,
        seed: u64,
    ) -> Result<Session, String> {
        let mut client = Client::connect_with_timeout(addr, Some(TIMEOUT))
            .map_err(|e| format!("connect: {e}"))?;
        let engine_seed = splitmix64(seed ^ 0x0BE4) & 0xFFFF_FFFF;
        let line = open_line(name, params, engine_seed);
        let reply = client.send_line(&line).map_err(|e| format!("stream.open: {e}"))?;
        if !reply.contains("\"stream_opened\"") {
            return Err(format!("stream.open rejected: {}", reply.trim_end()));
        }
        Ok(Session {
            name: name.to_string(),
            client,
            mirror: DynamicGrid::new(EtcGenerator::new(*params).generate()),
            script: Script::new(seed),
            seq: 0,
            lines: vec![line],
        })
    }

    /// Sends the next scripted event and checks the answer against the
    /// mirror: seq echo, the down set, and the reported makespan
    /// re-priced from the returned assignment on the mirror's world.
    fn step(&mut self, index: usize) -> Sample {
        let event = self.script.next(&self.mirror);
        let line = event_line(self.seq, &event);
        let start = Instant::now();
        let reply = self.client.send_line(&line);
        let end = Instant::now();
        let seq = self.seq;
        self.seq += 1;
        self.lines.push(line);
        let outcome = reply
            .map_err(|e| format!("event seq {seq}: {e}"))
            .and_then(|r| check_event(&mut self.mirror, &event, seq, &r));
        let latency_ms = match outcome {
            Ok(_) => (end - start).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        };
        Sample { session: index, seq, latency_ms, start, end, outcome }
    }

    fn close(&mut self) -> Result<Json, String> {
        let reply = self
            .client
            .request(&Json::obj(vec![("type", Json::str("stream.close"))]))
            .map_err(|e| format!("stream.close: {e}"))?;
        if reply.get("type").and_then(Json::as_str) != Some("stream_closed") {
            return Err(format!("stream.close rejected: {reply}"));
        }
        Ok(reply)
    }
}

/// Applies `event` to the mirror and grades the daemon's answer; returns
/// the reported makespan.
fn check_event(
    mirror: &mut DynamicGrid,
    event: &grid_sim::GridEvent,
    seq: u64,
    reply: &str,
) -> Result<f64, String> {
    let v = Json::parse(reply.trim_end()).map_err(|e| format!("seq {seq}: bad reply: {e}"))?;
    if v.get("type").and_then(Json::as_str) != Some("stream_result") {
        return Err(format!("seq {seq}: {}", reply.trim_end()));
    }
    if v.get("seq").and_then(Json::as_u64) != Some(seq) {
        return Err(format!("seq {seq}: seq echo mismatch"));
    }
    mirror.apply(event).map_err(|e| format!("seq {seq}: mirror rejected the event: {e}"))?;
    let down: Vec<usize> = v
        .get("down")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|j| j.as_u64().map(|m| m as usize)).collect())
        .unwrap_or_default();
    if down != mirror.down_machines() {
        return Err(format!("seq {seq}: down set {down:?} != mirror {:?}", mirror.down_machines()));
    }
    let makespan = v.get("makespan").and_then(Json::as_f64).ok_or("no makespan")?;
    let assignment: Vec<u32> = v
        .get("assignment")
        .and_then(Json::as_arr)
        .ok_or(format!("seq {seq}: no assignment"))?
        .iter()
        .filter_map(|g| g.as_u64().map(|g| g as u32))
        .collect();
    if assignment.len() != mirror.base().n_tasks() {
        return Err(format!("seq {seq}: assignment length {}", assignment.len()));
    }
    let local =
        mirror.to_local(&assignment).ok_or(format!("seq {seq}: assignment uses a down machine"))?;
    let sub = mirror.sub_instance();
    let priced = Schedule::from_assignment(&sub, local).makespan();
    if (priced - makespan).abs() > 1e-9 * priced.abs().max(1.0) {
        return Err(format!("seq {seq}: makespan {makespan} re-prices to {priced}"));
    }
    Ok(makespan)
}

fn boot(data_dir: &Path) -> Result<ServerHandle, String> {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        data_dir: Some(data_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve: {e}"))
}

/// One set-up sample: boot until `stream.open` of session `a<rep>` is
/// answered, inside a `setup` span.
fn timed_boot(
    ctx: &mut Ctx,
    data: &Path,
    params: &GeneratorParams,
    rep: u64,
    setups: &mut Vec<f64>,
) -> Result<(ServerHandle, Session), String> {
    let span = ctx.tracer.open("setup", rep);
    let t = Instant::now();
    let handle = boot(data)?;
    let session = Session::open(handle.addr(), &format!("a{rep}"), params, ctx.seed)?;
    setups.push(t.elapsed().as_secs_f64());
    ctx.tracer.close(span);
    Ok((handle, session))
}

/// Closed loop: each session sends its next event as soon as the last is
/// answered, for `window` and at least `min_events` events each.
fn load(sessions: &mut [Session], window: Duration, min_events: usize) -> Vec<Sample> {
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, s) in sessions.iter_mut().enumerate() {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::new();
                while start.elapsed() < window || mine.len() < min_events {
                    let sample = s.step(i);
                    let broken = sample.outcome.is_err();
                    mine.push(sample);
                    if broken {
                        // The session is out of step with its mirror.
                        break;
                    }
                }
                samples.lock().expect("sample lock poisoned").extend(mine);
            });
        }
    });
    samples.into_inner().expect("sample lock poisoned")
}

/// The persisted checkpoint of `name` must reload against the mirror's
/// base world with a valid CRC.
fn reload(data: &Path, session: &Session) -> Result<usize, String> {
    let path = data.join("sessions").join(&session.name).join("checkpoint.ckpt");
    let (pop, _) = checkpoint::load_from_path(&path, session.mirror.base())
        .map_err(|e| format!("{}: checkpoint does not reload: {e}", session.name))?;
    if pop.len() != GRID_SIDE * GRID_SIDE {
        return Err(format!("{}: checkpoint holds {} individuals", session.name, pop.len()));
    }
    Ok(std::fs::metadata(&path).map(|m| m.len() as usize).unwrap_or(0))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let params = world_params(ctx.seed);
    let data: PathBuf = ctx.tmp.join("data");

    // Set-up: boot + one named session opened, BOOTS times: half before
    // the load, the rest after it, so the medians span the run. Each
    // drain parks the open session on disk; the middle boot serves the
    // load.
    let (mut setups, mut drains) = (Vec::new(), Vec::new());
    let half = BOOTS as u64 / 2;
    for rep in 0..half {
        let (handle, session) = timed_boot(ctx, &data, &params, rep, &mut setups)?;
        drains.push(ctx.tracer.span("drain", rep, || drain(handle)));
        ctx.report.op(reload(&data, &session).map(|_| ()));
    }
    let (handle, first) = timed_boot(ctx, &data, &params, half, &mut setups)?;
    let second = Session::open(handle.addr(), "b", &params, ctx.seed ^ 0xB)?;
    let mut sessions = vec![first, second];

    let (mut c1, mut c2) = (Vec::new(), Vec::new());
    for block in 0..BLOCKS {
        let floor = if block == 0 { QUALITY_EVENTS } else { 1 };
        c1.extend(load(&mut sessions[..1], ctx.block(), floor));
        c2.extend(load(&mut sessions, ctx.block(), 1));
    }

    // Session B closes (its summary is checked); session A stays open so
    // the final drain parks it, like the set-up drains.
    let summary = sessions[1].close();
    drains.push(ctx.tracer.span("drain", half, || drain(handle)));
    for rep in half + 1..BOOTS as u64 {
        let (handle, session) = timed_boot(ctx, &data, &params, rep, &mut setups)?;
        drains.push(ctx.tracer.span("drain", rep, || drain(handle)));
        ctx.report.op(reload(&data, &session).map(|_| ()));
    }

    let mut quality = vec![f64::NAN; QUALITY_EVENTS];
    for s in c1.iter().chain(&c2) {
        if let (0, Ok(makespan)) = (s.session, &s.outcome) {
            if let Some(q) = quality.get_mut(s.seq as usize) {
                *q = *makespan;
            }
        }
        ctx.report.op(s.outcome.as_ref().map(|_| ()).map_err(|e| e.clone()));
    }
    let mut persisted = 0;
    for s in &sessions {
        match reload(&data, s) {
            Ok(bytes) => persisted += bytes,
            Err(e) => ctx.report.op(Err(e)),
        }
    }
    let (warm_wins, rejected) = match &summary {
        Ok(v) => {
            let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
            (n("warm_wins") as f64 / n("events").max(1) as f64, n("rejected"))
        }
        Err(_) => (f64::NAN, 0),
    };
    let sent_b = c2.iter().filter(|s| s.session == 1).count() as u64;
    ctx.report.op(match &summary {
        Err(e) => Err(e.clone()),
        Ok(_) if rejected != 0 => Err(format!("session b rejected {rejected} scripted events")),
        Ok(v) if v.get("events").and_then(Json::as_u64) != Some(sent_b) => {
            Err(format!("session b closed with {v}, {sent_b} events sent"))
        }
        Ok(_) => Ok(()),
    });

    // makespan_ratio: session A's answers to its first QUALITY_EVENTS
    // events over Min-min on each event's world, averaged
    // (deterministic at threads=1).
    let mut world = DynamicGrid::new(EtcGenerator::new(params).generate());
    let mut script = Script::new(ctx.seed);
    let mut ratio = 0.0;
    for makespan in &quality {
        let event = script.next(&world);
        world.apply(&event).map_err(|e| format!("quality replay: {e}"))?;
        ratio += makespan / heuristics::min_min(&world.sub_instance()).makespan();
    }
    let ratio = ratio / QUALITY_EVENTS as f64;

    let lat_c2: Vec<f64> = c2.iter().map(|s| s.latency_ms).collect();
    let rate = |samples: &[Sample]| {
        closed_loop_rate(&samples.iter().map(|s| (s.session, s.end)).collect::<Vec<_>>())
    };
    ctx.report.metric("setup_s", median(&setups), "s");
    ctx.report.metric("drain_s", median(&drains), "s");
    ctx.report.metric("ops_per_s_c1", rate(&c1), "1/s");
    ctx.report.metric("ops_per_s_c2", rate(&c2), "1/s");
    ctx.report.metric("latency_p50_ms", median(&lat_c2), "ms");
    ctx.report.metric("trace.latency_p90_ms", quantile(&lat_c2, 0.9), "ms");
    ctx.report.metric("makespan_ratio", ratio, "ratio");
    ctx.report.note(format!(
        "op = one stream.event round trip (closed loop, {EVENT_EVALS} evals per event); c1 = 1 session ({} events), c2 = 2 sessions on 2 connections ({} events, latency samples); makespan_ratio over session A's first {QUALITY_EVENTS} events",
        c1.len(),
        c2.len()
    ));
    ctx.report.count("events", (c1.len() + c2.len()) as u64);
    ctx.report.count("checkpoint_bytes_at_close", persisted as u64);

    if ctx.tracer.enabled() {
        for s in c1.iter().chain(&c2) {
            ctx.tracer.record("request", (s.session as u64) << 32 | s.seq, s.start, s.end);
        }
        let inputs = Inputs::for_stream(
            EtcGenerator::new(params).generate(),
            sessions[0].lines.clone(),
            median(&lat_c2),
            warm_wins,
            rejected,
        )?;
        layers::replay(ctx, inputs)?;
    }
    Ok(())
}
