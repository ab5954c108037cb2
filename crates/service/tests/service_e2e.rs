//! End-to-end daemon tests: a real `serve()` on an ephemeral loopback
//! port, real TCP clients, full request→engine→response round trips,
//! cache semantics, in-flight coalescing, the `--workers` bound,
//! backpressure, and graceful drain.

use pa_cga_service::json::Json;
use pa_cga_service::{
    run_load, serve, Client, LoadConfig, Request, ServeConfig, ServerHandle, StoreReader,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn spawn(config: ServeConfig) -> ServerHandle {
    serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..config }).expect("bind loopback")
}

fn schedule_line(seed: u64, evals: u64) -> String {
    format!(
        r#"{{"type":"schedule","id":"t{seed}","etc_model":{{"tasks":24,"machines":3,"seed":{seed}}},"evals":{evals},"assignment":true}}"#
    )
}

/// A Braun 512×16 request of 20 000 evaluations: on a 2-core x86-64
/// host about 0.14 s of engine time in a release build and 2 s in a
/// debug build, long next to a 2×2 request.
fn long_line(seed: u64) -> String {
    format!(
        r#"{{"type":"schedule","id":"long{seed}","braun":"u_c_hihi.0","evals":20000,"seed":{seed}}}"#
    )
}

/// Sends one request line on a fresh connection and parses the answer.
fn send(addr: SocketAddr, line: &str) -> Json {
    let mut client = Client::connect(addr).unwrap();
    Json::parse(client.send_line(line).unwrap().trim()).unwrap()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v}"))
}

/// Polls `stats` until the daemon has started `n` engine runs.
fn wait_for_runs(addr: SocketAddr, n: u64) {
    let mut client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while field(&client.stats().unwrap(), "batches").as_u64().unwrap() < n {
        assert!(Instant::now() < deadline, "no engine run started");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn schedule_round_trip_and_cache_hit() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let first = Json::parse(client.send_line(&schedule_line(1, 600)).unwrap().trim()).unwrap();
    assert_eq!(first.get("type").unwrap().as_str(), Some("result"), "{first}");
    assert_eq!(first.get("id").unwrap().as_str(), Some("t1"));
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(first.get("n_tasks").unwrap().as_u64(), Some(24));
    let makespan = first.get("makespan").unwrap().as_f64().unwrap();
    assert!(makespan > 0.0);
    let assignment = first.get("assignment").unwrap().as_arr().unwrap();
    assert_eq!(assignment.len(), 24);
    assert!(assignment.iter().all(|m| m.as_u64().unwrap() < 3));
    let evals = first.get("evaluations").unwrap().as_u64().unwrap();
    assert!(evals >= 600, "budget is a lower bound, got {evals}");

    // Identical request: served from cache, identical answer.
    let second = Json::parse(client.send_line(&schedule_line(1, 600)).unwrap().trim()).unwrap();
    assert_eq!(second.get("cached").unwrap().as_bool(), Some(true), "{second}");
    assert_eq!(second.get("makespan").unwrap().as_f64(), Some(makespan));

    // Different seed: a different computation, not a cache hit.
    let third = Json::parse(client.send_line(&schedule_line(2, 600)).unwrap().trim()).unwrap();
    assert_eq!(third.get("cached").unwrap().as_bool(), Some(false));

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1), "{stats}");
    assert_eq!(stats.get("completed").unwrap().as_u64(), Some(3));
    assert!(stats.get("req_per_sec").unwrap().as_f64().unwrap() > 0.0);

    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.cache_hits, 1);
}

#[test]
fn inline_and_braun_sources_work_over_the_wire() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let inline = Json::parse(
        client
            .send_line(
                r#"{"type":"schedule","name":"mini","etc":[[1,10],[10,1],[5,5]],"evals":200,"ls":0}"#,
            )
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(inline.get("type").unwrap().as_str(), Some("result"), "{inline}");
    assert_eq!(inline.get("instance").unwrap().as_str(), Some("mini"));
    assert_eq!(inline.get("n_machines").unwrap().as_u64(), Some(2));

    let braun = Json::parse(
        client
            .send_line(r#"{"type":"schedule","braun":"u_c_lolo.0","evals":600,"ls":2}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(braun.get("type").unwrap().as_str(), Some("result"), "{braun}");
    assert_eq!(braun.get("n_tasks").unwrap().as_u64(), Some(512));
    assert!(braun.get("assignment").is_none(), "not requested");

    handle.shutdown();
    handle.join();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    for (line, needle) in [
        ("this is not json", "malformed"),
        (r#"{"type":"launch-missiles"}"#, "unknown request type"),
        (r#"{"type":"schedule"}"#, "exactly one"),
        (r#"{"type":"schedule","braun":"u_q_nope.7"}"#, "unknown Braun instance"),
        (r#"{"type":"schedule","etc":[[1,-1]],"id":"bad"}"#, "finite and > 0"),
    ] {
        let v = Json::parse(client.send_line(line).unwrap().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{line} -> {v}");
        let message = v.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(needle), "{line}: {message}");
    }
    // The id survives into resolve-stage errors.
    // (the last case above decoded fine, so its id echoes back)
    let v = Json::parse(
        client.send_line(r#"{"type":"schedule","etc":[[1,-1]],"id":"bad"}"#).unwrap().trim(),
    )
    .unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some("bad"));

    // Connection still healthy after five errors.
    client.ping().unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn threads_beyond_worker_pool_rejected() {
    // workers = 2 (see spawn()): a 3-thread request would oversubscribe
    // the pool — the weight clamps but the engine would still spawn all
    // three threads, so the server refuses instead.
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let v = Json::parse(
        client
            .send_line(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":100,"threads":3}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("error"), "{v}");
    assert!(v.get("message").unwrap().as_str().unwrap().contains("worker pool"), "{v}");
    // At the pool bound is fine.
    let v = Json::parse(
        client
            .send_line(r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":100,"threads":2}"#)
            .unwrap()
            .trim(),
    )
    .unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("result"), "{v}");
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_connections_do_not_stall_the_drain() {
    // A client that never closes its socket must not pin join() until
    // the grace deadline: the drain shuts connection read sides down.
    let handle = spawn(ServeConfig::default());
    let mut idle = Client::connect(handle.addr()).unwrap();
    idle.ping().unwrap();
    let started = std::time::Instant::now();
    handle.shutdown();
    handle.join();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "join stalled {:?} behind an idle connection",
        started.elapsed()
    );
}

#[test]
fn coalesced_requests_echo_their_own_instance_name() {
    // Same matrix, different names: one engine run (or cache entry)
    // answers both, but each response must carry ITS request's name.
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let line = |name: &str| {
        format!(r#"{{"type":"schedule","name":"{name}","etc":[[1,9],[9,1]],"evals":120}}"#)
    };
    let a = Json::parse(client.send_line(&line("jobA")).unwrap().trim()).unwrap();
    let b = Json::parse(client.send_line(&line("jobB")).unwrap().trim()).unwrap();
    assert_eq!(a.get("instance").unwrap().as_str(), Some("jobA"), "{a}");
    assert_eq!(b.get("instance").unwrap().as_str(), Some("jobB"), "{b}");
    assert_eq!(b.get("cached").unwrap().as_bool(), Some(true), "same matrix, same digest: {b}");
    handle.shutdown();
    handle.join();
}

#[test]
fn zero_capacity_queue_answers_busy() {
    let handle = spawn(ServeConfig { queue_cap: 0, ..ServeConfig::default() });
    let mut client = Client::connect(handle.addr()).unwrap();
    let v = Json::parse(client.send_line(&schedule_line(1, 100)).unwrap().trim()).unwrap();
    assert_eq!(v.get("type").unwrap().as_str(), Some("busy"), "{v}");
    assert_eq!(v.get("reason").unwrap().as_str(), Some("queue full"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("busy").unwrap().as_u64(), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_identical_requests_coalesce_or_hit_cache() {
    // 6 connections fire the SAME request at once. However the batches
    // land, exactly one engine run should answer all six: the rest are
    // in-batch coalesces or cross-batch cache hits.
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();
    let line = schedule_line(9, 800);
    let results: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let line = line.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    Json::parse(client.send_line(&line).unwrap().trim()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let makespans: Vec<f64> =
        results.iter().map(|v| v.get("makespan").unwrap().as_f64().unwrap()).collect();
    assert!(makespans.windows(2).all(|w| w[0] == w[1]), "all six identical: {makespans:?}");
    let fresh = results
        .iter()
        .filter(|v| {
            v.get("cached").unwrap().as_bool() == Some(false)
                && v.get("coalesced").unwrap().as_bool() == Some(false)
        })
        .count();
    assert_eq!(fresh, 1, "exactly one engine run: {results:?}");

    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.evaluations, {
        let v = results[0].get("evaluations").unwrap().as_u64().unwrap();
        v
    });
    assert_eq!(summary.coalesced + summary.cache_hits, 5);
}

#[test]
fn load_generator_end_to_end_with_shutdown() {
    let handle = spawn(ServeConfig::default());
    let config = LoadConfig {
        addr: handle.addr().to_string(),
        clients: 3,
        requests: 8,
        evals: 400,
        seed: 42,
        distinct: 2,
        shutdown_after: true,
        ..LoadConfig::default()
    };
    let report = run_load(&config).unwrap();
    assert_eq!(report.ok, 24, "{report}");
    assert_eq!(report.errors, 0);
    assert_eq!(report.busy, 0);
    assert!(report.req_per_sec > 0.0);
    assert!(report.cached + report.coalesced > 0, "repeats must be deduplicated: {report}");
    assert_eq!(report.latency.expect("24 samples").count as u64, report.ok);
    let stats = report.server_stats.as_ref().expect("stats snapshot");
    assert!(stats.get("cache_hits").unwrap().as_u64().unwrap() > 0, "{stats}");

    // shutdown_after drained the server; join returns promptly.
    let summary = handle.join();
    assert_eq!(summary.completed, 24);
    let text = report.to_string();
    assert!(text.contains("req/s"), "{text}");
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn queued_requests_survive_shutdown_drain() {
    // Fill the queue with slow-ish requests from parallel clients, then
    // shut down mid-flight: every accepted request still gets a result.
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();
    let results: Vec<Json> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let line = schedule_line(100 + i, 3_000);
                    Json::parse(client.send_line(&line).unwrap().trim()).unwrap()
                })
            })
            .collect();
        // Give the requests a moment to enqueue, then start the drain
        // from a separate control connection.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut control = Client::connect(addr).unwrap();
        let ack = control.shutdown().unwrap();
        assert_eq!(ack.get("message").unwrap().as_str(), Some("draining"));
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // A request that raced in after the shutdown flag may legitimately
    // get `busy (draining)`; everything accepted before it MUST get a
    // full result — none may hang or be dropped.
    let mut completed = 0;
    for v in &results {
        match v.get("type").unwrap().as_str() {
            Some("result") => completed += 1,
            Some("busy") => {
                assert_eq!(v.get("reason").unwrap().as_str(), Some("draining"), "{v}");
            }
            other => panic!("unexpected response {other:?}: {v}"),
        }
    }
    let summary = handle.join();
    assert_eq!(summary.completed, completed);
    assert!(completed >= 1, "at least the in-flight batch completes");
}

#[test]
fn short_request_is_not_blocked_by_a_long_one() {
    // The engine evolves without generation barriers; the daemon must not
    // add one. A small request that arrives while a long run holds one of
    // the two engine slots is answered at once, not after that run.
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();
    let (long, long_done, short_done) = std::thread::scope(|scope| {
        let long = scope.spawn(move || {
            let v = send(addr, &long_line(1));
            (v, Instant::now())
        });
        wait_for_runs(addr, 1);
        let short = send(addr, r#"{"type":"schedule","etc":[[1,2],[2,1]],"evals":120}"#);
        let short_done = Instant::now();
        assert_eq!(field(&short, "type").as_str(), Some("result"), "{short}");
        let (long, long_done) = long.join().unwrap();
        (long, long_done, short_done)
    });
    assert_eq!(field(&long, "type").as_str(), Some("result"), "{long}");
    assert!(
        short_done < long_done,
        "the short request was answered {:?} after the long run",
        short_done - long_done
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn duplicate_arriving_mid_run_rides_along() {
    // A twin that arrives while its digest is being computed waits for
    // that run and shares its answer: one engine run for both.
    let handle = spawn(ServeConfig::default());
    let addr = handle.addr();
    let line = long_line(2);
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(|| send(addr, &line));
        wait_for_runs(addr, 1);
        let second = send(addr, &line);
        (first.join().unwrap(), second)
    });
    assert_eq!(field(&first, "cached").as_bool(), Some(false), "{first}");
    assert_eq!(field(&first, "coalesced").as_bool(), Some(false), "{first}");
    assert_eq!(field(&second, "cached").as_bool(), Some(false), "{second}");
    assert_eq!(field(&second, "coalesced").as_bool(), Some(true), "{second}");
    assert_eq!(field(&first, "makespan").as_f64(), field(&second, "makespan").as_f64());
    assert_eq!(field(&second, "id").as_str(), Some("long2"));
    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.runs, 1);
    assert_eq!(summary.coalesced, 1);
    assert_eq!(Some(summary.evaluations), field(&first, "evaluations").as_u64());
}

#[test]
fn workers_bound_holds_for_concurrent_misses() {
    // One engine slot: two distinct misses on two connections must run
    // one after the other, so the wall time covers both engine times.
    let handle =
        serve(ServeConfig { addr: "127.0.0.1:0".into(), workers: 1, ..ServeConfig::default() })
            .expect("bind loopback");
    let addr = handle.addr();
    let started = Instant::now();
    let answers: Vec<Json> = std::thread::scope(|scope| {
        let clients: Vec<_> =
            [3, 4].map(|seed| scope.spawn(move || send(addr, &long_line(seed)))).into();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut engine_ms = 0.0;
    for v in &answers {
        assert_eq!(field(v, "type").as_str(), Some("result"), "{v}");
        assert_eq!(field(v, "cached").as_bool(), Some(false), "{v}");
        engine_ms += field(v, "engine_ms").as_f64().unwrap();
    }
    assert!(
        wall_ms >= engine_ms,
        "runs overlapped: wall {wall_ms:.1} ms < engine {engine_ms:.1} ms"
    );
    handle.shutdown();
    assert_eq!(handle.join().runs, 2);
}

#[test]
fn drain_persists_runs_admitted_before_shutdown() {
    // A shutdown that lands mid-run still answers the request, and the
    // drain persists its result to the corpus only after the run is done.
    let dir = std::env::temp_dir().join(format!("pacga-e2e-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("drain.pacst");
    let _ = std::fs::remove_file(&corpus);
    let handle = spawn(ServeConfig {
        corpus: Some(corpus.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let line = long_line(5);
    let answer = std::thread::scope(|scope| {
        let client = scope.spawn(|| send(addr, &line));
        wait_for_runs(addr, 1);
        handle.shutdown();
        client.join().unwrap()
    });
    assert_eq!(field(&answer, "type").as_str(), Some("result"), "{answer}");
    let summary = handle.join();
    assert_eq!(summary.persisted, 1);

    let Ok(Request::Schedule(request)) = Request::decode(&line) else { panic!("decodes") };
    let digest = request.digest(&request.resolve_instance().unwrap());
    let bests = StoreReader::open_path(&corpus).unwrap().bests().unwrap();
    let run = bests.iter().find(|(d, _)| *d == digest).map(|(_, run)| run);
    assert_eq!(run.map(|r| r.makespan), field(&answer, "makespan").as_f64(), "{bests:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
