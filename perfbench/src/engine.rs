//! `engine_steady`: the paper's Table 1 configuration on Braun
//! `u_c_hihi.0`, driven in-process through `PaCga::run_seeded` from a
//! population built in set-up, at one and at two engine threads.

use crate::layers::{self, Inputs};
use crate::measure::{median, quantile};
use crate::{Ctx, BLOCKS};
use etc_model::{braun_instance, EtcInstance};
use pa_cga_core::checkpoint::{self, CheckpointMeta};
use pa_cga_core::config::{PaCgaConfig, Termination};
use pa_cga_core::engine::{warm_population, PaCga};
use pa_cga_core::hooks::RunHooks;
use pa_cga_core::individual::Individual;
use pa_cga_core::rng::splitmix64;
use pa_cga_core::trace::RunOutcome;
use scheduling::{check_schedule, Schedule};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Evaluations per steady-state engine run (one operation). From a
/// prebuilt population there is no init cost to amortize; 16 384
/// evaluations is 64 generations of the 256-cell grid.
const RUN_EVALS: u64 = 16_384;
/// Set-up (population build) and drain (cancel + park) samples per run.
const REPS: u64 = 61;

const INSTANCE: &str = "u_c_hihi.0";

/// The paper's Table 1 configuration at `threads` engine threads.
fn table1(threads: usize, evals: u64, seed: u64) -> PaCgaConfig {
    PaCgaConfig::builder()
        .threads(threads)
        .local_search_iterations(10)
        .termination(Termination::Evaluations(evals))
        .seed(seed)
        .build()
}

/// The engine's initial population: Min-min in cell 0, uniformly random
/// schedules (on the configured init stream) everywhere else, evaluated.
pub fn build_population(instance: &EtcInstance, config: &PaCgaConfig) -> Vec<Individual> {
    let min_min = heuristics::min_min(instance);
    warm_population(instance, config, &[min_min.assignment().to_vec()])
}

/// Re-prices `best` from its assignment and checks the schedule
/// invariants and the reported fitness.
fn check_best(instance: &EtcInstance, best: &Individual) -> Result<(), String> {
    let priced = Schedule::from_assignment(instance, best.schedule.assignment().to_vec());
    check_schedule(instance, &priced).map_err(|e| format!("best schedule invalid: {e:?}"))?;
    let tol = 1e-9 * priced.makespan().abs().max(1.0);
    if (priced.makespan() - best.fitness).abs() > tol {
        return Err(format!(
            "best fitness {} does not re-price ({})",
            best.fitness,
            priced.makespan()
        ));
    }
    Ok(())
}

#[derive(Default)]
struct Phase {
    latencies_s: Vec<f64>,
    outcomes: Vec<RunOutcome>,
}

/// Closed loop of fixed-budget runs from the set-up population for
/// `window` (at least one run), appended to `out`.
fn phase(
    ctx: &mut Ctx,
    instance: &EtcInstance,
    config: &PaCgaConfig,
    pop: &[Individual],
    window: Duration,
    out: &mut Phase,
) {
    let engine = PaCga::new(instance, config.clone());
    let start = Instant::now();
    let floor = out.outcomes.len() + 1;
    while start.elapsed() < window || out.outcomes.len() < floor {
        let initial = pop.to_vec();
        let req = out.outcomes.len() as u64;
        let t = Instant::now();
        let (outcome, _) = ctx.tracer.span("engine.run_seeded", req, || engine.run_seeded(initial));
        out.latencies_s.push(t.elapsed().as_secs_f64());
        out.outcomes.push(outcome);
    }
}

/// The engine's share of a daemon drain, as the durable job manager
/// pays it: raise the running engine's cancel flag, join its threads,
/// then park the final population as a rotated checkpoint.
fn drain_once(
    instance: &EtcInstance,
    pop: &[Individual],
    seed: u64,
    dir: &Path,
) -> Result<f64, String> {
    let config = table1(2, u64::MAX / 4, seed);
    let engine = PaCga::new(instance, config);
    let flag = AtomicBool::new(false);
    let initial = pop.to_vec();
    let (ckpt, prev) = (dir.join("checkpoint.ckpt"), dir.join("checkpoint.prev"));
    std::thread::scope(|scope| {
        let hooks = RunHooks { cancel: Some(&flag), ..RunHooks::none() };
        let engine = &engine;
        let handle = scope.spawn(move || engine.run_hooked(Some(initial), &hooks));
        std::thread::sleep(Duration::from_millis(4));
        let t = Instant::now();
        // ord: Release — pairs with the engine's Acquire load of the flag.
        flag.store(true, Ordering::Release);
        let (outcome, population) = handle.join().expect("engine thread panicked");
        let meta = CheckpointMeta {
            generations: outcome.generations.iter().sum(),
            evaluations: outcome.evaluations,
            elapsed_ms: outcome.elapsed.as_millis() as u64,
        };
        checkpoint::save_to_path(&ckpt, Some(&prev), &population, &meta)
            .map_err(|e| format!("drain checkpoint: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let instance = braun_instance(INSTANCE);
    let seed = splitmix64(ctx.seed) & 0xFFFF_FFFF;
    let t1 = table1(1, RUN_EVALS, seed);
    let t2 = table1(2, RUN_EVALS, seed);
    let min_min = heuristics::min_min(&instance).makespan();

    // Set-up and drain samples, half before the load levels and the
    // rest after them, so the medians span the run.
    let mut setup = Vec::new();
    let mut drains = Vec::new();
    let mut pop = Vec::new();
    let mut sample = |ctx: &mut Ctx, rep: u64, pop: &mut Vec<Individual>| -> Result<(), String> {
        let t = Instant::now();
        *pop = ctx.tracer.span("setup", rep, || build_population(&instance, &t1));
        setup.push(t.elapsed().as_secs_f64());
        let dir = ctx.tmp.clone();
        drains.push(ctx.tracer.span("drain", rep, || drain_once(&instance, pop, seed, &dir))?);
        Ok(())
    };
    for rep in 0..REPS / 2 {
        sample(ctx, rep, &mut pop)?;
    }
    let (mut c1, mut c2) = (Phase::default(), Phase::default());
    for _ in 0..BLOCKS {
        phase(ctx, &instance, &t1, &pop, ctx.block(), &mut c1);
        phase(ctx, &instance, &t2, &pop, ctx.block(), &mut c2);
    }
    for rep in REPS / 2..REPS {
        sample(ctx, rep, &mut pop)?;
    }
    // The last parked checkpoint must reload with a valid CRC.
    ctx.report.op(checkpoint::load_from_path(&ctx.tmp.join("checkpoint.ckpt"), &instance)
        .map(|_| ())
        .map_err(|e| format!("drain checkpoint does not reload: {e}")));
    ctx.report.metric("setup_s", median(&setup), "s");
    ctx.report.metric("drain_s", median(&drains), "s");

    // Checks: every best re-prices and passes the invariants; at one
    // thread every run repeats the first bit for bit.
    let reference = &c1.outcomes[0];
    for outcome in &c1.outcomes {
        let mut ok = check_best(&instance, &outcome.best);
        if ok.is_ok()
            && (outcome.evaluations != reference.evaluations
                || outcome.best.fitness.to_bits() != reference.best.fitness.to_bits())
        {
            ok = Err(format!(
                "threads=1 run not deterministic: {} evals / {} vs {} / {}",
                outcome.evaluations,
                outcome.best.fitness,
                reference.evaluations,
                reference.best.fitness
            ));
        }
        ctx.report.op(ok);
    }
    for outcome in &c2.outcomes {
        ctx.report.op(check_best(&instance, &outcome.best));
    }

    // One run is in flight at a time: throughput is the inverse of the
    // median run time, which a stray host stall does not move.
    let rate = |p: &Phase| 1.0 / median(&p.latencies_s);
    let evals_rate = |p: &Phase| {
        p.outcomes.iter().map(|o| o.evaluations).sum::<u64>() as f64
            / p.latencies_s.iter().sum::<f64>()
    };
    ctx.report.metric("ops_per_s_c1", rate(&c1), "1/s");
    ctx.report.metric("ops_per_s_c2", rate(&c2), "1/s");
    ctx.report.metric("latency_p50_ms", median(&c2.latencies_s) * 1e3, "ms");
    ctx.report.metric("trace.latency_p90_ms", quantile(&c2.latencies_s, 0.9) * 1e3, "ms");
    ctx.report.metric("makespan_ratio", reference.best.fitness / min_min, "ratio");
    ctx.report.note(format!(
        "op = one {RUN_EVALS}-eval run_seeded from the set-up population; c1 = 1 engine thread ({} runs, {:.0} evals/s), c2 = 2 engine threads ({} runs, {:.0} evals/s); latency over the c2 runs",
        c1.outcomes.len(),
        evals_rate(&c1),
        c2.outcomes.len(),
        evals_rate(&c2)
    ));
    ctx.report.note(format!("makespan {} (threads=1, Min-min {min_min})", reference.best.fitness));
    ctx.report.count("evals", c1.outcomes.iter().chain(&c2.outcomes).map(|o| o.evaluations).sum());
    ctx.report.count("evals_t1_per_run", reference.evaluations);
    ctx.report.count("generations_t1_per_run", reference.generations.iter().sum());
    ctx.report.count("replacements_t1_per_run", reference.replacements.iter().sum());

    if ctx.tracer.enabled() {
        let rates = (evals_rate(&c1), evals_rate(&c2));
        let inputs = Inputs::for_engine(&instance, t1, rates, median(&c2.latencies_s) * 1e3);
        layers::replay(ctx, inputs)?;
    }
    Ok(())
}
