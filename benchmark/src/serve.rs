//! The two live-serving workloads. Neither is `cpu_bound`: the HTTP path
//! is dominated by sleeps and the in-process path by two threads waking
//! each other, and the speed factor measurably does not help either, so
//! it is recorded but never applied to their latencies.
//!
//! - `serve_http_warm`: open loop, [`HTTP_RATE`] req/s over
//!   [`HTTP_CONNS`] keep-alive connections against a live `HttpServer`;
//!   two tiny CNNs that stay warm. Latency is timed from the due time.
//! - `serve_gateway_churn`: closed loop, one caller of `Gateway::infer`
//!   over 16 sibling CNNs on 1 node × 2 slots, so almost every request
//!   transforms a container.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_model::infer;
use optimus_model::tensor::Tensor;
use optimus_model::ModelGraph;
use optimus_serve::{
    Gateway, GatewayConfig, HttpConfig, HttpServer, MetricsRegistry, ServedStart, ServingConfig,
    StoreConfig,
};

use crate::harness::{
    check, end_to_end, enough_samples, measure_setup, metric, run_rounds, Args, Report,
};
use crate::inputs::{
    nasbench_sample, seeded_tensor, sibling_cnns, stream, sub_seed, tiny_cnn, Rng, SIBLING_INPUT,
    TINY_INPUT,
};
use crate::layers::{self, Rows};
use crate::norm::{p50, p99, RefKernel, RoundSamples};
use crate::spans::{SpanLog, TraceSplit};

/// NASBench models registered at boot next to the served ones. Plans
/// are memory-heavy (≈20 KB each resident, ≈10 KB each in the artifact,
/// whose JSON tree costs ≈30× its size to load), so the samples are what
/// keeps the resident set under ≈150 MB: 72 models planned cold for
/// `serve_gateway_churn`, 22 loaded warm for `serve_http_warm`.
pub const CHURN_BOOT_SAMPLE: usize = 56;
pub const HTTP_BOOT_SAMPLE: usize = 20;
const QUICK_BOOT_SAMPLE: usize = 8;

/// Offered load of `serve_http_warm`.
pub const HTTP_RATE: f64 = 600.0;
pub const HTTP_CONNS: usize = 2;
/// `serve.http.max_rate_within_limit`: the ladder and its p99 limit.
const LADDER: [f64; 4] = [300.0, 600.0, 1200.0, 2400.0];
const LADDER_P99_LIMIT_S: f64 = 0.005;

/// Start-kind shares of `serve_gateway_churn` (warm, transformed, cold);
/// the check allows ±2 points. With `idle_threshold` 0 the first
/// container is always a willing donor, so the second slot is never
/// filled: a request is warm only when it repeats the previous model
/// (1 in 16) and every other one transforms.
const CHURN_SHARES: [f64; 3] = [0.0625, 0.9375, 0.0];
const SHARE_TOLERANCE: f64 = 0.02;

fn boot_catalog(served: &[ModelGraph], sample: usize, args: &Args) -> Vec<ModelGraph> {
    let sample = if args.quick {
        QUICK_BOOT_SAMPLE
    } else {
        sample
    };
    let mut models = served.to_vec();
    models.extend(nasbench_sample(args.seed, sample));
    models
}

/// The two always-warm models behind `serve_http_warm`.
pub fn tiny_models() -> [ModelGraph; 2] {
    [tiny_cnn("tiny-a", 4), tiny_cnn("tiny-b", 6)]
}

/// What `serve_http_warm` registers at boot.
pub fn http_boot_catalog(args: &Args) -> Vec<ModelGraph> {
    boot_catalog(&tiny_models(), HTTP_BOOT_SAMPLE, args)
}

fn start_index(start: ServedStart) -> usize {
    match start {
        ServedStart::Warm => 0,
        ServedStart::Transformed => 1,
        ServedStart::Cold => 2,
    }
}

const START_LABELS: [&str; 3] = ["warm", "transformed", "cold"];

/// Phase sums over every good response, by start kind where it matters.
#[derive(Default)]
struct Phases {
    starts: [u64; 3],
    startup_s: [f64; 3],
    wait_s: f64,
    compute_s: f64,
    batch: f64,
}

impl Phases {
    fn add(&mut self, start: usize, wait: f64, startup: f64, compute: f64, batch: f64) {
        self.starts[start] += 1;
        self.startup_s[start] += startup;
        self.wait_s += wait;
        self.compute_s += compute;
        self.batch += batch;
    }

    fn total(&self) -> f64 {
        self.starts.iter().sum::<u64>().max(1) as f64
    }

    fn shares(&self) -> [f64; 3] {
        self.starts.map(|n| n as f64 / self.total())
    }

    /// `serve.worker.*` and `serve.gateway.wait_ms`.
    fn rows(&self, rows: &mut Rows) {
        for (i, label) in START_LABELS.iter().enumerate() {
            rows.insert(
                format!("serve.worker.startup_ms.{label}"),
                self.startup_s[i] / self.starts[i].max(1) as f64 * 1e3,
            );
            rows.insert(
                format!("serve.worker.start_share.{label}"),
                self.shares()[i],
            );
        }
        rows.insert(
            "serve.worker.compute_ms".into(),
            self.compute_s / self.total() * 1e3,
        );
        rows.insert(
            "serve.worker.batch_size_mean".into(),
            self.batch / self.total(),
        );
        rows.insert(
            "serve.gateway.wait_ms".into(),
            self.wait_s / self.total() * 1e3,
        );
    }

    fn info(&self) -> Vec<crate::harness::Metric> {
        START_LABELS
            .iter()
            .zip(self.shares())
            .map(|(label, share)| metric(format!("start_share.{label}"), share, "ratio"))
            .collect()
    }
}

/// `harness.trace_overhead_share`, and `harness.unexplained_share` as the
/// share of the `op` spans that the phases a response reports leave
/// uncovered.
fn harness_rows(rows: &mut Rows, spans: &SpanLog, op: &str, split: &mut TraceSplit) {
    rows.insert(
        "harness.trace_overhead_share".into(),
        split.overhead_share(),
    );
    let op = spans.layers().get(op).copied().unwrap_or_default();
    rows.insert(
        "harness.unexplained_share".into(),
        op.self_s / op.total_s.max(1e-12),
    );
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// serve_gateway_churn
// ---------------------------------------------------------------------

pub fn run_churn(args: &Args) -> Report {
    let kernel = RefKernel::default();
    let served = sibling_cnns();
    let catalog = boot_catalog(&served, CHURN_BOOT_SAMPLE, args);
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: 2,
        idle_threshold: 0.0,
        keep_alive: 1e9,
        store: Some(StoreConfig::default()),
        faults: None,
        serving: ServingConfig::default(),
        predict: None,
    };

    // Cold boot: full pairwise planning of the boot catalog, no artifact.
    let (setup, gateway) = measure_setup(&kernel, args.boots(), || {
        Gateway::builder(config)
            .metrics(Arc::new(MetricsRegistry::new()))
            // The default guard demotes a plan whose measured wall-clock
            // overruns the destination's measured scratch load; in-process
            // a load is a graph clone, so whether it fires depends on
            // scheduling luck and flips the workload between a one- and a
            // two-container regime. Judge plans by modelled cost only.
            .overrun_policy(1e9, u32::MAX)
            .register_all(catalog.clone())
            .spawn()
    });

    let input = seeded_tensor(SIBLING_INPUT, sub_seed(args.seed, stream::TENSOR, 0));
    let mut sequence = Rng::new(sub_seed(args.seed, stream::MODEL_SEQUENCE, 0));
    let mut first_output_checked = vec![false; served.len()];
    let mut outputs_match = true;

    let mut samples = RoundSamples::new(false);
    let mut spans = SpanLog::new();
    let mut phases = Phases::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut self_s = 0.0;
    let mut split = TraceSplit::default();

    let mut one_op = |measure: Option<(&mut RoundSamples, bool)>| {
        let m = sequence.below(served.len());
        let t0 = Instant::now();
        let result = gateway.infer(served[m].name(), input.clone());
        let t1 = Instant::now();
        let seconds = (t1 - t0).as_secs_f64();
        let Some((samples, tracing)) = measure else {
            return;
        };
        attempted += 1;
        let resp = match result {
            Ok(resp) => resp,
            Err(_) => {
                failed += 1;
                return;
            }
        };
        if !first_output_checked[m] {
            first_output_checked[m] = true;
            let expected = infer::run(&served[m], input.clone()).expect("reference forward pass");
            if bits(resp.output.data()) != bits(expected.data()) {
                outputs_match = false;
                failed += 1;
                return;
            }
        }
        samples.push(seconds);
        split.push(tracing, seconds);
        let (wait, startup, compute) = (
            resp.wait_seconds,
            resp.startup_seconds,
            resp.compute_seconds,
        );
        phases.add(
            start_index(resp.start),
            wait,
            startup,
            compute,
            resp.batch_size as f64,
        );
        self_s += seconds - wait - startup - compute;
        if tracing {
            let op = spans.op("serve.gateway.infer", attempted, t0, t1);
            spans.child(op, "serve.gateway.wait", 0.0, wait);
            spans.child(op, "serve.worker.startup", wait, startup);
            spans.child(op, "serve.worker.compute", wait + startup, compute);
        }
    };

    // Warm-up: create the container and let lazy set-up finish.
    for _ in 0..if args.quick { 20 } else { 200 } {
        one_op(None);
    }
    run_rounds(
        &kernel,
        args.rounds(),
        &mut samples,
        |round, deadline, samples| {
            let tracing = args.trace && round % 2 == 1;
            let (t0, before) = (Instant::now(), samples.len());
            while Instant::now() < deadline {
                one_op(Some((samples, tracing)));
            }
            ((samples.len() - before) as f64, t0.elapsed().as_secs_f64())
        },
    );
    let rejected = gateway
        .metrics()
        .counter("optimus_serve_rejected_total", &[])
        .get();
    gateway.shutdown();

    let shares = phases.shares();
    let within = shares
        .iter()
        .zip(CHURN_SHARES)
        .all(|(got, want)| (got - want).abs() <= SHARE_TOLERANCE);
    let checks = vec![
        check(
            "every_response_ok",
            failed == 0,
            format!("{failed} of {attempted} requests failed"),
        ),
        check(
            "first_output_per_model_bit_identical",
            outputs_match && (args.quick || first_output_checked.iter().all(|&c| c)),
            format!(
                "{} of {} models compared with an in-process forward pass",
                first_output_checked.iter().filter(|&&c| c).count(),
                served.len()
            ),
        ),
        check(
            "start_shares_as_calibrated",
            (within || args.quick) && shares[1] >= 0.75,
            format!(
                "warm {:.3} transformed {:.3} cold {:.3}; expected {CHURN_SHARES:?} ± {SHARE_TOLERANCE}",
                shares[0], shares[1], shares[2]
            ),
        ),
        enough_samples(args, samples.len()),
    ];

    let ok = samples.len() as f64;
    let (metrics, mut info) = end_to_end(&samples, &setup);
    info.extend(phases.info());
    info.push(metric("boot_catalog_models", catalog.len() as f64, "count"));
    let mut report = Report {
        attempted,
        failed,
        checks,
        metrics,
        info,
    };
    if !args.trace {
        return report;
    }

    let mut rows = Rows::new();
    phases.rows(&mut rows);
    rows.insert("serve.gateway.self_ms".into(), self_s / ok.max(1.0) * 1e3);
    rows.insert("serve.gateway.rejected_429".into(), rejected as f64);
    harness_rows(&mut rows, &spans, "serve.gateway.infer", &mut split);
    report.metrics = layers::ledger(args, &kernel, &spans, samples.factors(), |_| rows);
    report
}

// ---------------------------------------------------------------------
// serve_http_warm
// ---------------------------------------------------------------------

/// One keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Send `raw`, read one response; `(status, body)`. A failed
    /// exchange drops the connection so the next one reconnects.
    fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.stream = Some((stream, reader));
        }
        let (stream, reader) = self.stream.as_mut().expect("connected above");
        let result = stream.write_all(raw).and_then(|()| read_response(reader));
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    let invalid = || std::io::Error::from(std::io::ErrorKind::InvalidData);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| invalid())?;
            }
        }
    }
    // The server caps bodies well below this; a larger claim is garbage.
    if content_length > 1 << 20 {
        return Err(invalid());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// `POST /infer` carrying the whole seeded tensor.
pub fn infer_request(model: &str, input: &Tensor) -> Vec<u8> {
    let data: Vec<String> = input.data().iter().map(|v| v.to_string()).collect();
    let body = format!(
        r#"{{"model":"{model}","shape":{:?},"data":[{}]}}"#,
        input.shape().dims(),
        data.join(",")
    );
    format!(
        "POST /infer HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What the client saw of one scheduled request.
struct Exchange {
    model: usize,
    /// Completion minus due time: the open-loop latency.
    latency_s: f64,
    /// Actual send minus due time: how late the generator ran.
    lateness_s: f64,
    sent: Instant,
    done: Instant,
    /// `None` on a transport error.
    reply: Option<(u16, Vec<u8>)>,
}

/// One open-loop burst: `rate` req/s for `duration`, split evenly over
/// the connections (one generator thread each, phases staggered).
/// Returns the exchanges and the wall-clock from first due time to last
/// completion.
fn drive(
    conns: &mut [Conn],
    requests: &[Vec<u8>; 2],
    rate: f64,
    duration: Duration,
) -> (Vec<Exchange>, f64) {
    let n_conns = conns.len();
    let interval = Duration::from_secs_f64(n_conns as f64 / rate);
    let per_conn = ((duration.as_secs_f64() * rate / n_conns as f64).round() as usize).max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let mut all = Vec::with_capacity(per_conn * n_conns);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let phase = interval.mul_f64(id as f64 / n_conns as f64);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(per_conn);
                    for k in 0..per_conn {
                        let due = start + phase + interval.mul_f64(k as f64);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let model = (id + k) % 2;
                        let sent = Instant::now();
                        let reply = conn.exchange(&requests[model]).ok();
                        let done = Instant::now();
                        out.push(Exchange {
                            model,
                            latency_s: (done - due).as_secs_f64(),
                            lateness_s: (sent - due).as_secs_f64(),
                            sent,
                            done,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("generator thread"));
        }
    });
    let end = all.iter().map(|e| e.done).max().unwrap_or(start);
    (all, (end - start).as_secs_f64())
}

/// The fields of a `200` body this benchmark reads.
struct Body {
    start: usize,
    wait: f64,
    startup: f64,
    compute: f64,
    batch: f64,
    output: Vec<f32>,
}

fn parse_body(body: &[u8]) -> Option<Body> {
    let v: serde_json::Value = serde_json::from_slice(body).ok()?;
    let start = START_LABELS
        .iter()
        .position(|l| v["start"].as_str() == Some(l))?;
    Some(Body {
        start,
        wait: v["wait_seconds"].as_f64()?,
        startup: v["startup_seconds"].as_f64()?,
        compute: v["compute_seconds"].as_f64()?,
        batch: v["batch_size"].as_f64()?,
        output: v["output"]
            .as_array()?
            .iter()
            .map(|x| x.as_f64().map(|f| f as f32))
            .collect::<Option<Vec<f32>>>()?,
    })
}

pub fn plan_cache_path() -> PathBuf {
    layers::out_dir().join("plan_cache.json")
}

pub fn run_http(args: &Args) -> Report {
    let kernel = RefKernel::default();
    let served = tiny_models();
    let catalog = http_boot_catalog(args);
    let config = GatewayConfig {
        nodes: 2,
        capacity_per_node: 4,
        idle_threshold: 1e9,
        keep_alive: 1e9,
        store: Some(StoreConfig::default()),
        faults: None,
        serving: ServingConfig::default(),
        predict: None,
    };
    let cache = plan_cache_path();
    std::fs::create_dir_all(layers::out_dir()).expect("benchmark/out is writable");
    let _ = std::fs::remove_file(&cache);
    let boot = || {
        let gateway = Arc::new(
            Gateway::builder(config)
                .metrics(Arc::new(MetricsRegistry::new()))
                .plan_cache_path(&cache)
                .register_all(catalog.clone())
                .spawn(),
        );
        let server = HttpServer::serve_with(gateway.clone(), 0, HttpConfig::default())
            .expect("binds an ephemeral loopback port");
        (server, gateway)
    };
    // Unmeasured cold boot writes the artifact the measured boots load.
    drop(boot());
    let artifact_bytes = std::fs::metadata(&cache).map_or(0, |m| m.len());
    let (setup, (server, gateway)) = measure_setup(&kernel, args.boots(), boot);
    let warm_hits = gateway
        .metrics()
        .counter("optimus_plan_cache_warm_total", &[("result", "hit")])
        .get();
    let planner_calls = gateway
        .metrics()
        .histogram("optimus_planning_seconds", &[])
        .count();

    let input = seeded_tensor(TINY_INPUT, sub_seed(args.seed, stream::TENSOR, 0));
    let requests = [
        infer_request(served[0].name(), &input),
        infer_request(served[1].name(), &input),
    ];
    let expected: Vec<Vec<u32>> = served
        .iter()
        .map(|m| {
            bits(
                infer::run(m, input.clone())
                    .expect("reference forward pass")
                    .data(),
            )
        })
        .collect();
    let mut conns: Vec<Conn> = (0..HTTP_CONNS).map(|_| Conn::new(server.addr())).collect();

    // Warm-up: both models become resident, and the first output of each
    // is compared with the in-process forward pass.
    let (warmup, _) = drive(&mut conns, &requests, HTTP_RATE, Duration::from_millis(300));
    let outputs_match = expected.iter().enumerate().all(|(model, expected)| {
        warmup
            .iter()
            .filter(|e| e.model == model)
            .min_by_key(|e| e.sent)
            .and_then(|e| e.reply.as_ref())
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| parse_body(body))
            .is_some_and(|b| bits(&b.output) == *expected)
    });

    let mut samples = RoundSamples::new(false);
    let mut spans = SpanLog::new();
    let mut phases = Phases::default();
    let mut lateness = Vec::new();
    let (mut attempted, mut failed, mut rejected) = (0u64, 0u64, 0u64);
    let (mut roundtrip_s, mut overhead_s) = (0.0, 0.0);
    let mut split = TraceSplit::default();
    let (rounds, round_len) = args.rounds();
    run_rounds(
        &kernel,
        (rounds, round_len),
        &mut samples,
        |round, _, samples| {
            let tracing = args.trace && round % 2 == 1;
            let (exchanges, wall) = drive(&mut conns, &requests, HTTP_RATE, round_len);
            let before = samples.len();
            for e in exchanges {
                attempted += 1;
                lateness.push(e.lateness_s);
                let body = match &e.reply {
                    Some((200, body)) => parse_body(body),
                    Some((429, _)) => {
                        rejected += 1;
                        None
                    }
                    _ => None,
                };
                let Some(body) = body.filter(|b| bits(&b.output) == expected[e.model]) else {
                    failed += 1;
                    continue;
                };
                samples.push(e.latency_s);
                split.push(tracing, e.latency_s);
                phases.add(
                    body.start,
                    body.wait,
                    body.startup,
                    body.compute,
                    body.batch,
                );
                let rtt = (e.done - e.sent).as_secs_f64();
                roundtrip_s += rtt;
                overhead_s += rtt - body.wait - body.startup - body.compute;
                if tracing {
                    let op = spans.op("serve.http.roundtrip", attempted, e.sent, e.done);
                    spans.child(op, "serve.gateway.wait", 0.0, body.wait);
                    spans.child(op, "serve.worker.startup", body.wait, body.startup);
                    spans.child(
                        op,
                        "serve.worker.compute",
                        body.wait + body.startup,
                        body.compute,
                    );
                }
            }
            ((samples.len() - before) as f64, wall)
        },
    );

    let ladder_top = if args.trace && !args.quick {
        max_rate_within_limit(&mut conns, &requests)
    } else {
        0.0
    };
    drop(conns);
    server.shutdown();
    drop(gateway);
    let _ = std::fs::remove_file(&cache);

    let late_p99 = p99(&lateness);
    let late_p50 = p50(&mut lateness);
    let shares = phases.shares();
    let pairs = (catalog.len() * (catalog.len() - 1)) as u64;
    let checks = vec![
        check(
            "every_response_200_and_correct",
            failed == 0,
            format!("{failed} of {attempted} requests failed ({rejected} were 429)"),
        ),
        check(
            "first_output_per_model_bit_identical",
            outputs_match,
            "both models compared with an in-process forward pass",
        ),
        check(
            "all_warm_after_warm_up",
            phases.starts[1] == 0 && phases.starts[2] == 0,
            format!(
                "warm {:.3} transformed {:.3} cold {:.3}",
                shares[0], shares[1], shares[2]
            ),
        ),
        check(
            "measured_boots_were_warm",
            warm_hits == pairs && planner_calls == 0,
            format!(
                "{warm_hits} of {pairs} plans from the artifact, {planner_calls} planner calls"
            ),
        ),
        enough_samples(args, samples.len()),
    ];

    let ok = samples.len() as f64;
    let (metrics, mut info) = end_to_end(&samples, &setup);
    info.extend(phases.info());
    info.push(metric("offered_rate_per_s", HTTP_RATE, "1/s"));
    info.push(metric("generator_lateness_p50_ms", late_p50 * 1e3, "ms"));
    info.push(metric("generator_lateness_p99_ms", late_p99 * 1e3, "ms"));
    info.push(metric("boot_catalog_models", catalog.len() as f64, "count"));
    info.push(metric("plan_artifact_bytes", artifact_bytes as f64, "B"));
    let mut report = Report {
        attempted,
        failed,
        checks,
        metrics,
        info,
    };
    if !args.trace {
        return report;
    }

    let mut rows = Rows::new();
    phases.rows(&mut rows);
    rows.insert("serve.gateway.rejected_429".into(), rejected as f64);
    rows.insert(
        "serve.http.roundtrip_ms".into(),
        roundtrip_s / ok.max(1.0) * 1e3,
    );
    rows.insert(
        "serve.http.overhead_ms".into(),
        overhead_s / ok.max(1.0) * 1e3,
    );
    rows.insert("serve.http.lateness_ms".into(), late_p50 * 1e3);
    rows.insert("serve.http.max_rate_within_limit".into(), ladder_top);
    harness_rows(&mut rows, &spans, "serve.http.roundtrip", &mut split);
    report.metrics = layers::ledger(args, &kernel, &spans, samples.factors(), |_| rows);
    report
}

/// The highest ladder rate whose p99 (from the due time) stays within
/// the limit with no failed request; 0 when even the lowest does not.
fn max_rate_within_limit(conns: &mut [Conn], requests: &[Vec<u8>; 2]) -> f64 {
    let mut best = 0.0;
    for rate in LADDER {
        let (exchanges, _) = drive(conns, requests, rate, Duration::from_secs(1));
        let all_ok = exchanges.iter().all(|e| matches!(&e.reply, Some((200, _))));
        let latencies: Vec<f64> = exchanges.iter().map(|e| e.latency_s).collect();
        if !all_ok || p99(&latencies) > LADDER_P99_LIMIT_S {
            break;
        }
        best = rate;
    }
    best
}
