//! `serve-mix`: an in-process daemon on a Unix socket, driven by closed-loop
//! clients over tagged mibench sources. Each source is sent 4 times by the
//! client that owns it, so exactly one request in four misses the result
//! cache (cold: full pipeline plus a cache write) and three hit it.

use crate::batch::{layer_metrics, traced_pass, untraced_pass, BatchSpec, SetupTimer};
use crate::compose::CellOut;
use crate::stats::{median, mix, quantile, shuffle};
use crate::trace::Trace;
use crate::{calib, oracle, peak_rss_mib, Params, RunResult};
use dra_core::serve::{
    request_compile_source, result_json, serve, Response, ServeAddr, ServeClient, ServeConfig,
    ServerHandle,
};
use dra_core::telemetry::{parse_json, Json};
use dra_core::{result_key, Approach, CompileSession, LowEndSetup};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Requests per source: one cold, then cache hits.
pub const REPEATS: usize = 4;

/// Cold requests a run makes at least (so that at least 10 lie beyond
/// the 90th percentile).
pub const MIN_COLD: usize = 100;

/// Directory (relative to the working directory) for the daemon's socket.
pub const SOCKET_DIR: &str = ".perfbench";

/// The fixed inputs: one rendering per mibench benchmark.
struct Bench {
    text: String,
    funcs: usize,
}

/// A tagged copy of one benchmark: distinct text, identical program.
struct Source {
    bench: usize,
    client: usize,
    text: String,
}

/// What the benchmark keeps of a response: the verbatim result object
/// and the fields the checks and metrics read.
struct Reply {
    ok: bool,
    cached: bool,
    micros: u64,
    /// The `"result":{…}` object, byte for byte.
    fragment: String,
    error: Option<(String, String)>,
}

impl Reply {
    fn new(r: Response) -> Reply {
        Reply {
            ok: r.ok,
            cached: r.cached,
            micros: r.micros,
            fragment: r.result_fragment().unwrap_or("").to_string(),
            error: r.error,
        }
    }

    /// A numeric field of the result object.
    fn num(&self, key: &str) -> Option<f64> {
        match parse_json(&self.fragment).ok()?.as_obj()?.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// One request as the client saw it.
struct Sample {
    source: usize,
    cold: bool,
    start_ns: u64,
    lat_ns: u64,
    resp: Result<Reply, String>,
}

struct Daemon {
    handle: ServerHandle,
    clients: Vec<ServeClient>,
    path: PathBuf,
}

impl Daemon {
    fn start(setup: &LowEndSetup, workers: usize) -> Result<Daemon, String> {
        std::fs::create_dir_all(SOCKET_DIR).map_err(|e| format!("{SOCKET_DIR}: {e}"))?;
        // Unique per process and per daemon, so concurrent runs (the
        // package's tests) never share a socket.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(format!(
            "{SOCKET_DIR}/serve-{}-{n}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = ServeConfig::new(ServeAddr::Unix(path.clone()));
        cfg.workers = workers;
        cfg.setup = setup.clone();
        let handle = serve(cfg).map_err(|e| format!("serve: {e}"))?;
        let clients = (0..workers)
            .map(|_| ServeClient::connect(handle.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon {
            handle,
            clients,
            path,
        })
    }

    /// Stop the daemon and return its `(result_cache.hits,
    /// result_cache.lookups, serve.overload.shed + serve.errors)`.
    fn stop(self) -> Result<(u64, u64, u64), String> {
        drop(self.clients);
        self.handle.shutdown();
        let t = self.handle.join().map_err(|e| format!("serve: {e}"))?;
        let _ = std::fs::remove_file(&self.path);
        Ok((
            t.counter("result_cache.hits"),
            t.counter("result_cache.lookups"),
            t.counter("serve.overload.shed")
                + t.counter("serve.errors")
                + t.counter("serve.panics"),
        ))
    }
}

fn benches() -> Vec<Bench> {
    dra_workloads::benchmark_names()
        .iter()
        .map(|n| {
            let prog = dra_workloads::benchmark(n);
            Bench {
                text: prog.to_string(),
                funcs: prog.funcs.len(),
            }
        })
        .collect()
}

/// The sources of one round: one copy of every benchmark per client, each
/// tagged with a comment that makes its text — and so its cache key —
/// unique to this seed, round and copy.
///
/// The daemon routes a request to shard `result_key[0] % workers`. The tag
/// carries a counter, raised until the copy lands on its client's own
/// shard; so the clients never queue behind each other, and the seed does
/// not decide how much of the work the two workers share.
fn sources(p: &Params, benches: &[Bench], round: u64) -> Vec<Source> {
    let clients = p.threads.max(1);
    let mut out = Vec::new();
    for (b, bench) in benches.iter().enumerate() {
        for client in 0..clients {
            let text = (0u64..)
                .map(|n| {
                    format!(
                        "{}\n; serve-mix seed {} round {round} copy {b}.{client} tag {n}\n",
                        bench.text, p.seed
                    )
                })
                .find(|t| {
                    result_key("src", t, Approach::Select)[0] % clients as u64 == client as u64
                })
                .expect("some tag routes to every shard");
            out.push(Source {
                bench: b,
                client,
                text,
            });
        }
    }
    out
}

/// Each client's request order for a round: its sources × [`REPEATS`],
/// shuffled by seed. The first request for a source is its cold one.
fn plans(p: &Params, srcs: &[Source], round: u64) -> Vec<Vec<usize>> {
    let clients = p.threads.max(1);
    (0..clients)
        .map(|c| {
            let mut plan: Vec<usize> = srcs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.client == c)
                .flat_map(|(i, _)| [i; REPEATS])
                .collect();
            shuffle(&mut plan, mix(p.seed, round * clients as u64 + c as u64));
            plan
        })
        .collect()
}

/// Run one round: every client works through its plan, one request at a
/// time, taking calibration slices between requests. Returns the samples,
/// the round's wall time without the slices (ns) and the host's
/// [`calib::slowdown`] during the round.
fn round(
    daemon: &mut Daemon,
    srcs: &[Source],
    plans: &[Vec<usize>],
    origin: Instant,
) -> (Vec<Sample>, u64, f64) {
    let t0 = Instant::now();
    let (samples, slices): (Vec<Vec<Sample>>, Vec<Vec<u64>>) = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                s.spawn(move || {
                    let mut seen = vec![false; srcs.len()];
                    let mut out = Vec::with_capacity(plan.len());
                    let mut slices = Vec::new();
                    for (k, &si) in plan.iter().enumerate() {
                        let line = request_compile_source(
                            &format!("c{c}-{k}"),
                            &srcs[si].text,
                            Approach::Select,
                        );
                        let start = Instant::now();
                        let resp = client
                            .request(&line)
                            .map(Reply::new)
                            .map_err(|e| e.to_string());
                        let lat_ns = start.elapsed().as_nanos() as u64;
                        out.push(Sample {
                            source: si,
                            cold: !std::mem::replace(&mut seen[si], true),
                            start_ns: start.duration_since(origin).as_nanos() as u64,
                            lat_ns,
                            resp,
                        });
                        slices.extend(calib::maybe_slice());
                    }
                    (out, slices)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let wall = t0.elapsed().as_nanos() as u64;
    let slices: Vec<u64> = slices.concat();
    let clients = plans.len().max(1) as u64;
    let net = wall.saturating_sub(slices.iter().sum::<u64>() / clients);
    let samples = samples.into_iter().flatten().collect();
    (samples, net, calib::slowdown(&slices))
}

/// Check one round's responses: every request succeeded, exactly the
/// first request per source was computed, every response for a source
/// (and every source of one benchmark) carries the same result, no
/// function degraded, and the returned value matches the reference
/// interpreter.
fn check_round(srcs: &[Source], samples: &[Sample], want: &[Option<i64>], res: &mut RunResult) {
    let mut by_bench: HashMap<usize, String> = HashMap::new();
    for s in samples {
        res.attempted += 1;
        let src = &srcs[s.source];
        let r = match &s.resp {
            Ok(r) if r.ok => r,
            Ok(r) => {
                res.fail(format!("source {}: error response {:?}", s.source, r.error));
                continue;
            }
            Err(e) => {
                res.fail(format!("source {}: transport error {e}", s.source));
                continue;
            }
        };
        if r.cached == s.cold {
            res.fail(format!(
                "source {}: cold={} but cached={}",
                s.source, s.cold, r.cached
            ));
            continue;
        }
        let frag = &r.fragment;
        if by_bench.entry(src.bench).or_insert_with(|| frag.clone()) != frag {
            res.fail(format!(
                "source {}: result differs from another copy of its benchmark",
                s.source
            ));
            continue;
        }
        if r.num("degraded_funcs") != Some(0.0) {
            res.fail(format!("source {}: degraded functions", s.source));
            continue;
        }
        let ret = ret_value(frag);
        if ret != want[src.bench] {
            res.fail(format!(
                "source {}: returned {ret:?}, the reference interpreter {:?}",
                s.source, want[src.bench]
            ));
        }
    }
}

/// The exact `ret` of a result fragment. (The protocol's JSON numbers
/// parse to `f64`, which cannot hold every 64-bit return value.)
fn ret_value(fragment: &str) -> Option<i64> {
    let rest = &fragment[fragment.find("\"ret\":")? + "\"ret\":".len()..];
    rest.trim_end_matches('}').parse().ok()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the workload (see the module docs).
pub fn run(p: &Params) -> RunResult {
    let mut res = RunResult::default();
    match run_inner(p, &mut res) {
        Ok(()) => {}
        Err(e) => res.fail(e),
    }
    res
}

fn run_inner(p: &Params, res: &mut RunResult) -> Result<(), String> {
    let workers = p.threads.max(1);
    let setup = ServeConfig::new(ServeAddr::Unix(PathBuf::new())).setup;
    let (mut setup_timer, (benches_v, first, mut daemon)) = SetupTimer::start(
        || {
            let benches_v = benches();
            let first = sources(p, &benches_v, 0);
            Ok((benches_v, first, Daemon::start(&setup, workers)?))
        },
        |(_, _, d)| d.stop().map(|_| ()),
    )?;

    // The reference interpreter's return values, for the checks after
    // each round; outside every timed region.
    let want: Vec<Option<i64>> = benches_v
        .iter()
        .map(|b| {
            let prog = dra_ir::parse::parse_program(&b.text).map_err(|e| e.to_string())?;
            oracle::interpret(&prog, &setup.args, setup.machine.max_steps)
        })
        .collect::<Result<_, _>>()?;

    let origin = Instant::now();
    let mut measured = 0.0;
    // Per round: its sources, samples, wall time (ns) and host slowdown.
    let mut rounds: Vec<(Vec<Source>, Vec<Sample>, u64, f64)> = Vec::new();
    let mut daemon_totals = Vec::new();
    let mut srcs = first;
    loop {
        let r = rounds.len() as u64;
        let plan = plans(p, &srcs, r);
        let (mut samples, wall, slowdown) = round(&mut daemon, &srcs, &plan, origin);
        measured += wall as f64 / 1e9;
        eprintln!(
            "perfbench: round {r}: {:.3} s, host slowdown {slowdown:.3}",
            wall as f64 / 1e9
        );
        check_round(&srcs, &samples, &want, res);
        if r > 0 {
            // Only the first round's texts and results are used after
            // their round (by the composition of the traced run). Dropping
            // the others keeps the benchmark's own memory from growing with
            // the number of rounds a host fits into `--seconds`.
            srcs.iter_mut().for_each(|s| s.text = String::new());
            for s in samples.iter_mut() {
                if let Ok(reply) = &mut s.resp {
                    reply.fragment = String::new();
                }
            }
        }
        rounds.push((srcs, samples, wall, slowdown));
        if !p.trace {
            setup_timer.sample(slowdown)?;
        }
        let cold: usize = rounds.iter().map(|r| r.0.len()).sum();
        if measured >= p.seconds && cold >= MIN_COLD {
            break;
        }
        // A fresh daemon for every round, started outside the timed
        // region: its result cache then only ever holds one round's
        // sources, so memory and eviction work do not grow with the number
        // of rounds a host fits into `--seconds`.
        let old = daemon;
        daemon_totals.push(old.stop()?);
        daemon = Daemon::start(&setup, workers)?;
        srcs = sources(p, &benches_v, r + 1);
    }
    daemon_totals.push(daemon.stop()?);
    let hits: u64 = daemon_totals.iter().map(|t| t.0).sum();
    let lookups: u64 = daemon_totals.iter().map(|t| t.1).sum();
    let server_failures: u64 = daemon_totals.iter().map(|t| t.2).sum();
    if server_failures > 0 {
        res.fail(format!(
            "the daemon shed or failed {server_failures} requests"
        ));
    }

    let cold_ok = |s: &&Sample| s.cold && s.resp.as_ref().is_ok_and(|r| r.ok);
    // Client latencies of cold requests, divided by their round's host
    // slowdown.
    let cold_lats: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.1.iter().filter(cold_ok).map(|s| ms(s.lat_ns) / r.3))
        .collect();
    let slowdowns: Vec<f64> = rounds.iter().map(|r| r.3).collect();
    // One cold response per benchmark (its first copy in the first round):
    // the quality totals and the reference for the composition below.
    let (first_srcs, first_samples, _, _) = &rounds[0];
    let mut per_bench: Vec<Option<(usize, &Reply)>> = vec![None; benches_v.len()];
    for s in first_samples.iter().filter(cold_ok) {
        let b = first_srcs[s.source].bench;
        if let (None, Ok(r)) = (&per_bench[b], &s.resp) {
            per_bench[b] = Some((s.source, r));
        }
    }
    let total = |key: &str| {
        per_bench
            .iter()
            .flatten()
            .filter_map(|(_, r)| r.num(key))
            .sum::<f64>()
    };
    let m = &mut res.metrics;
    if !p.trace {
        // The median over rounds of a round's work over its wall time
        // divided by its host slowdown, so that a few slow seconds of a
        // busy host do not move the run's figure.
        let per_round: Vec<f64> = rounds
            .iter()
            .map(|(srcs, samples, wall, slowdown)| {
                let funcs: usize = samples
                    .iter()
                    .map(|s| benches_v[srcs[s.source].bench].funcs)
                    .sum();
                funcs as f64 / (*wall as f64 / 1e9 / slowdown)
            })
            .collect();
        m.insert("setup_s", setup_timer.finish(median(&slowdowns))?);
        m.insert("functions_per_s", median(&per_round));
        m.insert("cold_p50_ms", quantile(&cold_lats, 0.5));
        m.insert("cold_p90_ms", quantile(&cold_lats, 0.9));
        m.insert("peak_rss_mib", peak_rss_mib());
        m.insert("gen_code_bits", total("code_bits"));
        return Ok(());
    }

    // Traced run: client-side spans of every request, split by the
    // server-reported service time.
    let mut trace = Trace::default();
    let mut service = Vec::new();
    let mut wait = Vec::new();
    let mut hit = Vec::new();
    for (_, samples, _, _) in &rounds {
        for (k, s) in samples.iter().enumerate() {
            let Ok(r) = &s.resp else { continue };
            let micros_ns = r.micros * 1000;
            if s.cold {
                service.push(ms(micros_ns));
                wait.push(ms(s.lat_ns.saturating_sub(micros_ns)));
            } else {
                hit.push(ms(s.lat_ns));
            }
            let end = s.start_ns + s.lat_ns;
            let root = trace.push_root("request", s.start_ns, end, k as u64);
            let child = trace.push_root(
                "serve.service",
                end.saturating_sub(micros_ns),
                end,
                k as u64,
            );
            trace.spans[child].parent = Some(root);
        }
    }

    // The layer composition over one source per benchmark: the work of a
    // cold request, with spans. Its results must match the daemon's
    // responses byte for byte, and CompileSession::compile_source exactly.
    // The same spec through the untraced pipeline gives `trace.overhead`.
    let refs: Vec<(usize, &Reply)> = per_bench.iter().flatten().copied().collect();
    if refs.len() != benches_v.len() {
        res.fail("a benchmark has no successful cold response".into());
    }
    let spec = BatchSpec {
        texts: refs
            .iter()
            .map(|(si, _)| first_srcs[*si].text.clone())
            .collect(),
        funcs: refs
            .iter()
            .map(|(si, _)| benches_v[first_srcs[*si].bench].funcs)
            .collect(),
        cells: (0..refs.len()).map(|i| (i, Approach::Select)).collect(),
        setup: setup.clone(),
        simulate: true,
    };
    res.trace = trace;
    let (plain, _, untraced_wall, _) = untraced_pass(&spec, workers, p.seed);
    let (outs, counts, traced_wall) = traced_pass(&spec, workers, origin, 0, &mut res.trace);
    let overhead = traced_wall as f64 / untraced_wall as f64 - 1.0;
    let session = CompileSession::new(setup.clone());
    for (((out, plain), (si, resp)), text) in outs.iter().zip(&plain).zip(&refs).zip(&spec.texts) {
        res.attempted += 1;
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                res.fail(format!("composition of source {si}: {e}"));
                continue;
            }
        };
        if !plain.as_ref().is_ok_and(|p| p.same_output(out)) {
            res.fail(format!(
                "composition of source {si}: differs from compile_and_run_source"
            ));
        }
        if resp.fragment != result_json(&out.to_run()) {
            res.fail(format!(
                "composition of source {si}: result differs from the daemon's"
            ));
        }
        match session.compile_source(text, Approach::Select) {
            Ok((run, _)) if CellOut::from_run((*run).clone()).same_output(out) => {}
            Ok(_) => res.fail(format!(
                "composition of source {si}: differs from CompileSession::compile_source"
            )),
            Err(e) => res.fail(format!("session compile of source {si}: {e}")),
        }
    }
    layer_metrics(res, &counts, 1.0);
    let m = &mut res.metrics;
    m.insert("batch.utilization", 0.0);
    m.insert("batch.slowest_cell_ms", 0.0);
    m.insert(
        "session.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    m.insert("session.hit_ms", median(&hit));
    m.insert("serve.service_ms", median(&service));
    m.insert("serve.wait_ms", median(&wait));
    m.insert("trace.overhead", overhead);
    m.insert("gen_cycles", total("cycles"));
    m.insert("gen_dyn_slr", total("dynamic_set_last_regs"));
    m.insert("calib.slowdown", median(&slowdowns));
    Ok(())
}
