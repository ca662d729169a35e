//! Serving-front-end scaling over real TCP.
//!
//! An open-loop load generator drives a live `HttpServer` (real sockets,
//! real HTTP/1.1: persistent keep-alive connections, sharded accept
//! loops, a fixed HTTP worker pool that never blocks on inference,
//! per-model batching at the serving workers, and bounded admission
//! queues that shed overload with 429) along a trajectory of increasing
//! connection counts and offered rates. The thread-per-connection front
//! end this one replaced was measured on the same trajectory before it
//! was retired; EXPERIMENTS.md quotes those numbers.
//!
//! Every client schedules arrivals on a fixed clock (open loop): latency
//! is measured from the *scheduled* send time, so a front end that falls
//! behind accumulates backlog into its tail instead of silently slowing
//! the generator down. Per point the harness records goodput (200s per
//! second of wall clock), p50/p99/p999 latency over successful requests,
//! and the 429 count.
//!
//! Claimed:
//! * bookkeeping — every scheduled request is accounted for
//!   (`sent == ok + rejected + errors`), and no connection is ever
//!   dropped (`errors == 0`);
//! * (full run only) backpressure — at the top of the trajectory the
//!   front end sheds load with 429s while the p99 of *admitted* requests
//!   stays bounded (no unbounded queue growth);
//! * (full run only) repeatability — a repeat of the peak point
//!   reproduces its goodput within noise bounds.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_bench::print_table;
use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_serve::{Gateway, GatewayConfig, HttpServer, MetricsRegistry, ServingConfig};
use serde::Serialize;

use crate::{Args, Claims, Outcome};

/// Tiny CNN with a 4-logit head: the pooled head keeps the response
/// JSON small so the experiment measures the front end, not float
/// serialization.
fn tiny(name: &str, out_ch: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input([1, 3, 8, 8]);
    let x = b.conv2d_after(x, 3, out_ch, (3, 3), (1, 1), 1);
    let x = b.activation_after(x, Activation::Relu);
    let x = b.global_avg_pool_after(x);
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, out_ch, 4);
    b.finish().unwrap()
}

/// One measured point; serializes as one `trajectory` entry.
#[derive(Clone, Serialize)]
struct PointResult {
    conns: usize,
    offered_rps: f64,
    sent: usize,
    ok: usize,
    rejected_429: usize,
    errors: usize,
    elapsed_s: f64,
    goodput_rps: f64,
    // Latency from the *scheduled* send time (open loop, corrected for
    // coordinated omission): a front end that falls behind accumulates
    // its backlog into this tail.
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    // On-wire round trip from the actual send: what a single admitted
    // request experiences at the server, independent of generator debt.
    rtt_p50_ms: f64,
    rtt_p99_ms: f64,
}

/// Read one HTTP response off a persistent connection (status line,
/// headers for `Content-Length`, body). Returns the status code.
fn read_keep_alive_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let mut status = String::new();
    if reader.read_line(&mut status)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let code = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(code)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Status code of a `Connection: close` exchange on a fresh connection.
fn oneshot_request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(raw)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::ErrorKind::InvalidData.into())
}

fn infer_request(model: &str, keep_alive: bool) -> Vec<u8> {
    let body = format!(r#"{{"model":"{model}","shape":[1,3,8,8]}}"#);
    format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    )
    .into_bytes()
}

/// Drive one trajectory point: `conns` client threads offering `offered`
/// requests per second in aggregate, each sending its share on a fixed
/// open-loop schedule. Requests alternate between the two registered
/// models so both serving nodes see traffic and the batching window has
/// same-model runs to group.
fn run_point(addr: SocketAddr, conns: usize, offered: f64, duration: f64) -> PointResult {
    let per_conn = offered / conns as f64;
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let requests_per_conn = ((duration * per_conn).round() as usize).max(1);
    // Pre-rendered request bytes (one per model) shared by every client.
    let raw: Arc<[Vec<u8>; 2]> = Arc::new([infer_request("ma", true), infer_request("mb", true)]);

    let start = Instant::now() + Duration::from_millis(50);
    let mut clients = Vec::new();
    for conn_id in 0..conns {
        let raw = raw.clone();
        // Stagger connection phases so aggregate arrivals are even.
        let phase = interval.mul_f64(conn_id as f64 / conns as f64);
        clients.push(std::thread::spawn(move || {
            let mut samples: Vec<(u16, f64, f64)> = Vec::with_capacity(requests_per_conn);
            let mut errors = 0usize;
            let mut persistent = connect(addr).ok();
            for k in 0..requests_per_conn {
                let scheduled = start + phase + interval.mul_f64(k as f64);
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let raw = &raw[(conn_id + k) % 2];
                let sent_at = Instant::now();
                if persistent.is_none() {
                    persistent = connect(addr).ok();
                }
                let outcome = match persistent.as_mut() {
                    Some((stream, reader)) => stream
                        .write_all(raw)
                        .and_then(|()| read_keep_alive_response(reader))
                        .inspect_err(|_| persistent = None),
                    None => Err(std::io::ErrorKind::ConnectionRefused.into()),
                };
                match outcome {
                    Ok(code) => {
                        let done = Instant::now();
                        samples.push((
                            code,
                            (done - scheduled).as_secs_f64(),
                            (done - sent_at).as_secs_f64(),
                        ));
                    }
                    Err(_) => errors += 1,
                }
            }
            (samples, errors, Instant::now())
        }));
    }

    let mut samples = Vec::new();
    let mut errors = 0usize;
    let mut end = start;
    for c in clients {
        let (s, e, finished) = c.join().expect("client thread");
        samples.extend(s);
        errors += e;
        end = end.max(finished);
    }
    let elapsed = (end - start).as_secs_f64().max(1e-9);
    let ok = samples.iter().filter(|(c, _, _)| *c == 200).count();
    let rejected = samples.iter().filter(|(c, _, _)| *c == 429).count();
    let other = samples.len() - ok - rejected;
    let sorted = |pick: fn(&(u16, f64, f64)) -> f64| -> Vec<f64> {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|(c, _, _)| *c == 200)
            .map(pick)
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        lat
    };
    let sched = sorted(|s| s.1);
    let rtt = sorted(|s| s.2);
    let pct = |lat: &[f64], p: f64| -> f64 {
        if lat.is_empty() {
            return f64::NAN;
        }
        let idx = ((lat.len() as f64 * p).ceil() as usize).clamp(1, lat.len()) - 1;
        lat[idx] * 1e3
    };
    PointResult {
        conns,
        offered_rps: offered,
        sent: conns * requests_per_conn,
        ok,
        rejected_429: rejected,
        errors: errors + other,
        elapsed_s: elapsed,
        goodput_rps: ok as f64 / elapsed,
        p50_ms: pct(&sched, 0.50),
        p99_ms: pct(&sched, 0.99),
        p999_ms: pct(&sched, 0.999),
        rtt_p50_ms: pct(&rtt, 0.50),
        rtt_p99_ms: pct(&rtt, 0.99),
    }
}

/// Fresh gateway + server per run so metrics and container state never
/// bleed from the trajectory into its repeat.
fn start_server(serving: ServingConfig) -> (Arc<Gateway>, HttpServer) {
    let gw = Arc::new(
        Gateway::builder(GatewayConfig {
            nodes: 2,
            capacity_per_node: 4,
            idle_threshold: 0.0,
            // The paper's 10-minute window: effectively "never evict"
            // at this benchmark's seconds-long timescale.
            keep_alive: optimus_sim::DEFAULT_KEEP_ALIVE_S,
            store: None,
            faults: None,
            serving,
            predict: None,
        })
        .metrics(Arc::new(MetricsRegistry::new()))
        .register(tiny("ma", 4))
        .register(tiny("mb", 4))
        .spawn(),
    );
    let server = HttpServer::serve(gw.clone(), 0).expect("binds an ephemeral port");
    (gw, server)
}

pub fn run(args: &Args) -> Outcome {
    let small = args.small;
    let duration = args.duration.unwrap_or(if small { 0.5 } else { 1.0 });
    // The trajectory ramps connections and offered rate together; the
    // final point offers more than the front end can serve, which is
    // where admission control must take over.
    let trajectory: Vec<(usize, f64)> = if small {
        vec![(2, 200.0), (4, 800.0), (8, 2_400.0)]
    } else {
        vec![
            (4, 400.0),
            (8, 800.0),
            (16, 2_400.0),
            (48, 6_400.0),
            (160, 9_600.0),
        ]
    };
    // A shallow queue makes the backpressure visible at the overload
    // point: concurrent requests at the top of the trajectory far exceed
    // 2 nodes × (queue depth + batch in service), so the excess must
    // come back as 429 instead of queueing into the tail.
    let serving = ServingConfig {
        queue_depth: 4,
        max_batch: 8,
        max_batch_wait_us: 100,
    };

    let mut claims = Claims::default();
    let mut results: Vec<PointResult> = Vec::new();
    {
        let (gw, server) = start_server(serving);
        let addr = server.addr();
        // One warmup request per model: container cold starts happen
        // here, not inside a measured point.
        for model in ["ma", "mb"] {
            let code = oneshot_request(addr, &infer_request(model, false)).expect("warmup");
            claims.eq(format!("warmup request for {model} succeeds"), code, 200);
        }
        for &(conns, offered) in &trajectory {
            results.push(run_point(addr, conns, offered, duration));
            // Let queues drain between points.
            std::thread::sleep(Duration::from_millis(200));
        }
        server.shutdown();
        drop(gw);
    }

    let fmt_ms = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.2}")
        }
    };
    print_table(
        &[
            "conns",
            "offered/s",
            "sent",
            "ok",
            "429",
            "err",
            "goodput/s",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "rtt p99 ms",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.conns.to_string(),
                    format!("{:.0}", r.offered_rps),
                    r.sent.to_string(),
                    r.ok.to_string(),
                    r.rejected_429.to_string(),
                    r.errors.to_string(),
                    format!("{:.0}", r.goodput_rps),
                    fmt_ms(r.p50_ms),
                    fmt_ms(r.p99_ms),
                    fmt_ms(r.p999_ms),
                    fmt_ms(r.rtt_p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ── Claims ──────────────────────────────────────────────────────────
    for r in &results {
        let at = format!("{} conns / {:.0} rps", r.conns, r.offered_rps);
        claims.eq(
            format!("{at}: every scheduled request is accounted for"),
            r.sent,
            r.ok + r.rejected_429 + r.errors,
        );
        claims.lt(format!("{at}: serves something"), 0, r.ok);
        claims.eq(
            format!("{at}: persistent connections are never dropped"),
            r.errors,
            0,
        );
    }

    // The top of the trajectory offers more than the front end can
    // serve, so goodput there is its sustained capacity under overload.
    let overload = results.last().expect("trajectory is non-empty").clone();
    println!(
        "\nat overload ({} conns, {:.0} offered/s): {:.0} req/s, p99 {:.0} ms, \
         rtt p99 {:.0} ms, {} rejected",
        overload.conns,
        overload.offered_rps,
        overload.goodput_rps,
        overload.p99_ms,
        overload.rtt_p99_ms,
        overload.rejected_429
    );
    if !small {
        // Backpressure: the excess must be shed with 429 and the on-wire
        // tail of admitted requests stay bounded — the queues cannot
        // grow without bound. (The scheduled-time p99 grows at overload
        // for *any* front end: that is the open-loop generator's own
        // debt, not server queueing.)
        claims.lt(
            "the overload point trips admission control",
            0,
            overload.rejected_429,
        );
        claims.lt(
            "bounded queues keep the admitted on-wire p99 under 500 ms at overload",
            overload.rtt_p99_ms,
            500.0,
        );
    }

    // Repeatability (full run): rerun the overload point once on
    // a fresh server; wall-clock percentiles are noisy, but goodput at a
    // fixed open-loop schedule must reproduce within a generous noise
    // bound.
    let repeat = if small {
        None
    } else {
        let (gw, server) = start_server(serving);
        for model in ["ma", "mb"] {
            let _ = oneshot_request(server.addr(), &infer_request(model, false));
        }
        let r = run_point(
            server.addr(),
            overload.conns,
            overload.offered_rps,
            duration,
        );
        server.shutdown();
        drop(gw);
        let lo = overload.goodput_rps.min(r.goodput_rps);
        let hi = overload.goodput_rps.max(r.goodput_rps);
        claims.lt(
            "overload goodput reproduces on a fresh server within 2x",
            hi / lo,
            2.0,
        );
        println!(
            "repeat of the overload point: {:.0} req/s, rtt p99 {:.2} ms",
            r.goodput_rps, r.rtt_p99_ms
        );
        Some(r)
    };

    if claims.all_hold() {
        println!("\nall serve-scale checks passed");
    }
    Outcome {
        results: serde_json::json!({
            "config": if small { "small" } else { "full" },
            "duration_s": duration,
            "serving": {
                "queue_depth": serving.queue_depth,
                "max_batch": serving.max_batch,
                "max_batch_wait_us": serving.max_batch_wait_us,
            },
            "trajectory": results,
            "repeat": repeat,
        }),
        claims,
    }
}
