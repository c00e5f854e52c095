//! `serve_mix`: a closed loop of `nproc` client connections against an
//! in-process `Server` on a fresh spool. Each pass is one block of 64
//! requests: half repeat a small parameter pool (cache hits), half are
//! unique cache misses across estimate, budget, montecarlo, sweep and
//! optimize; every 16th block also submits and polls one durable
//! montecarlo job; and `/metrics` is read.

use crate::measure::Tally;
use crate::{Ctx, PassOut, Workload};
use ssn_numeric::rng::Rng;
use ssn_server::api::{ApiRequest, Endpoint};
use ssn_server::client::{self, Response};
use ssn_server::{http, Server, ServerConfig};
use ssn_telemetry::json;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between job status polls.
const POLL: Duration = Duration::from_millis(2);
/// Unique requests per class in one block.
const MISSES_PER_CLASS: usize = 6;
/// Cache-hit requests in one block (the pool, cycled).
const HITS: usize = 32;
/// Samples of the durable job: above the server's `sync_max_items`.
const JOB_SAMPLES: usize = 4096;
/// Every this many blocks, one block also submits a durable job. Jobs are
/// a few per run, not a share of the traffic: each commits its journal
/// with fsync 16 times.
const JOB_EVERY: u64 = 16;
/// Misses per class whose bytes are recomputed in-process at the end.
const RECOMPUTED_PER_CLASS: usize = 2;
/// The nominal estimate: the `lc_max_rel_err` reference scenario.
const NOMINAL: &str = "/v1/estimate?process=p018&drivers=8&rise-time=0.5n";

/// The unique-request classes, in block order.
pub const CLASSES: [Endpoint; 5] = [
    Endpoint::Estimate,
    Endpoint::Budget,
    Endpoint::MonteCarlo,
    Endpoint::Sweep,
    Endpoint::Optimize,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// The first request of a pool entry: a miss whose bytes its hits must
    /// repeat.
    Fill,
    /// Pool entry `i`: must return the bytes its first (miss) response had.
    Hit(usize),
    /// A unique request of this class.
    Miss(Endpoint),
    /// A durable job: submit, then poll until done.
    Job,
    /// `GET /metrics`.
    Metrics,
}

/// One request of the mix: method, path and urlencoded parameters.
#[derive(Debug, Clone)]
pub struct Req {
    kind: Kind,
    /// `GET` (parameters in the query) or `POST` (parameters in the body).
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// Urlencoded parameters.
    pub params: String,
}

impl Req {
    fn new(kind: Kind, endpoint: Endpoint, params: String) -> Self {
        // Estimate and budget go as GET queries, the rest as POST bodies,
        // so both parameter paths of the server are exercised.
        let method = match endpoint {
            Endpoint::Estimate | Endpoint::Budget => "GET",
            _ => "POST",
        };
        Self {
            kind,
            method,
            path: path_of(endpoint),
            params,
        }
    }

    fn target(&self) -> String {
        match self.method {
            "GET" if !self.params.is_empty() => format!("{}?{}", self.path, self.params),
            _ => self.path.to_owned(),
        }
    }

    fn body(&self) -> Option<&[u8]> {
        (self.method == "POST").then_some(self.params.as_bytes())
    }

    /// The bytes the client puts on the wire for this request.
    pub fn wire_bytes(&self, addr: &str) -> Vec<u8> {
        let body = self.body().unwrap_or(&[]);
        let mut out = format!(
            "{} {} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.method,
            self.target(),
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    /// Parses into the server's request model, as the server would.
    pub fn api_request(&self) -> Result<ApiRequest, String> {
        let endpoint = Endpoint::from_path(self.path).ok_or("not an API path")?;
        let pairs = http::parse_params(&self.params).map_err(|e| e.to_string())?;
        ApiRequest::parse(endpoint, pairs).map_err(|e| e.detail)
    }

    fn send(&self, addr: SocketAddr) -> std::io::Result<Response> {
        client::request(addr, self.method, &self.target(), self.body(), TIMEOUT)
    }
}

fn path_of(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Estimate => "/v1/estimate",
        Endpoint::Budget => "/v1/budget",
        Endpoint::MonteCarlo => "/v1/montecarlo",
        Endpoint::Sweep => "/v1/sweep",
        Endpoint::Validate => "/v1/validate",
        Endpoint::Optimize => "/v1/optimize",
    }
}

/// A unique request of `class` drawn from `rng`.
pub fn unique(class: Endpoint, rng: &mut Rng) -> Req {
    let drivers = rng.usize_in(1, 64);
    let tr = rng.uniform_in(0.3, 0.9);
    let params = match class {
        Endpoint::Estimate => format!("process=p018&drivers={drivers}&rise-time={tr:.12}n"),
        Endpoint::Budget => format!(
            "drivers={drivers}&rise-time={tr:.12}n&budget={:.9}",
            rng.uniform_in(0.5, 1.0)
        ),
        Endpoint::MonteCarlo => format!(
            "drivers={drivers}&samples=2000&seed={}",
            rng.next_u64() >> 16
        ),
        Endpoint::Sweep => format!("max-drivers={}&rise-time={tr:.12}n", rng.usize_in(8, 32)),
        _ => format!(
            "max-drivers={}&l-points=3&c-points=2&tr-points=2&rise-time={tr:.12}n",
            rng.usize_in(2, 6)
        ),
    };
    Req::new(Kind::Miss(class), class, params)
}

/// The hit pool: the nominal estimate plus seeded requests of every class.
fn pool(rng: &mut Rng) -> Vec<Req> {
    let mut out = vec![Req::new(
        Kind::Hit(0),
        Endpoint::Estimate,
        NOMINAL
            .split_once('?')
            .map(|(_, q)| q.to_owned())
            .unwrap_or_default(),
    )];
    for class in [
        Endpoint::Estimate,
        Endpoint::Budget,
        Endpoint::Budget,
        Endpoint::MonteCarlo,
        Endpoint::MonteCarlo,
        Endpoint::Sweep,
        Endpoint::Optimize,
    ] {
        let mut r = unique(class, rng);
        r.kind = Kind::Hit(out.len());
        out.push(r);
    }
    out
}

/// Block `index` of the mix generated from `seed`, shuffled.
fn block(seed: u64, index: u64, pool: &[Req]) -> Vec<Req> {
    let mut rng = Rng::from_seed_and_stream(seed, 1 + index);
    let mut reqs: Vec<Req> = (0..HITS).map(|i| pool[i % pool.len()].clone()).collect();
    for class in CLASSES {
        for _ in 0..MISSES_PER_CLASS {
            reqs.push(unique(class, &mut rng));
        }
    }
    if index.is_multiple_of(JOB_EVERY) {
        reqs.push(Req {
            kind: Kind::Job,
            method: "POST",
            path: "/v1/montecarlo",
            params: format!(
                "drivers={}&samples={JOB_SAMPLES}&seed={}",
                rng.usize_in(1, 64),
                rng.next_u64() >> 16
            ),
        });
    }
    reqs.push(Req {
        kind: Kind::Metrics,
        method: "GET",
        path: "/metrics",
        params: String::new(),
    });
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.usize_in(0, i));
    }
    reqs
}

/// The requests of the first block for `seed`, with its pool: the recorded
/// inputs the HTTP and API layer probes replay.
pub fn recorded_requests(seed: u64) -> Vec<Req> {
    let mut rng = Rng::from_seed_and_stream(seed, 0);
    let pool = pool(&mut rng);
    let mut reqs = block(seed, 0, &pool);
    reqs.extend(pool);
    reqs
}

/// What one request (or one whole job) produced.
struct Done {
    kind: Kind,
    req: Req,
    latency_ms: f64,
    body: Vec<u8>,
}

struct Serve {
    server: Option<Server>,
    addr: SocketAddr,
    seed: u64,
    pool: Vec<Req>,
    /// Pool bodies from the warm-up misses.
    pool_bodies: Vec<Option<Vec<u8>>>,
    blocks: u64,
    /// Bodies kept for the in-process recompute check.
    kept: Vec<(Req, Vec<u8>)>,
    kept_per_class: BTreeMap<&'static str, usize>,
}

pub fn setup(ctx: &Ctx, spool: &Path) -> Result<Box<dyn Workload>, String> {
    let server = Server::start(ServerConfig {
        spool: Some(spool.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut rng = Rng::from_seed_and_stream(ctx.seed, 0);
    let pool = pool(&mut rng);
    Ok(Box::new(Serve {
        addr: server.addr(),
        server: Some(server),
        seed: ctx.seed,
        pool_bodies: vec![None; pool.len()],
        pool,
        blocks: 0,
        kept: Vec::new(),
        kept_per_class: BTreeMap::new(),
    }))
}

impl Serve {
    /// Runs one request, or a whole job, checking its status (and, for a
    /// hit, its bytes) into `tally`. A job's latency is submit to done.
    fn exec(&self, req: &Req, tally: &mut Tally) -> Option<Done> {
        let started = Instant::now();
        let resp = match req.send(self.addr) {
            Ok(r) => r,
            Err(e) => {
                tally.op(false, || format!("{} {}: {e}", req.method, req.path));
                return None;
            }
        };
        let expect = if req.kind == Kind::Job { 202 } else { 200 };
        let mut ok = resp.status == expect;
        if let Kind::Hit(i) = req.kind {
            ok &= self.pool_bodies[i].as_ref() == Some(&resp.body);
        }
        let status = resp.status;
        tally.op(ok, || {
            format!(
                "{} {} -> {status} (want {expect}{})",
                req.method,
                req.path,
                match req.kind {
                    Kind::Hit(_) => " and the recorded miss bytes",
                    _ => "",
                }
            )
        });
        if !ok {
            return None;
        }
        let poll = format!(
            "/v1/jobs/{}",
            resp.header("x-ssn-digest").unwrap_or_default()
        );
        let mut body = resp.body;
        if req.kind == Kind::Job {
            let _span = ssn_telemetry::span("bench.job");
            loop {
                std::thread::sleep(POLL);
                let r = client::get(self.addr, &poll, TIMEOUT);
                let status = r.as_ref().map_or(0, |r| r.status);
                tally.op(status == 200 || status == 202, || match &r {
                    Ok(_) => format!("GET {poll} -> {status}"),
                    Err(e) => format!("GET {poll}: {e}"),
                });
                let r = r.ok()?;
                match status {
                    200 => {
                        body = r.body;
                        break;
                    }
                    202 => {}
                    _ => return None,
                }
            }
        }
        Some(Done {
            kind: req.kind,
            req: req.clone(),
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            body,
        })
    }

    /// Runs `reqs` over `clients` closed-loop connections.
    fn run_block(&self, reqs: &[Req], clients: usize, tally: &mut Tally) -> Vec<Done> {
        let next = AtomicUsize::new(0);
        let merged = Mutex::new((Vec::new(), Tally::default()));
        std::thread::scope(|scope| {
            for _ in 0..clients.max(1) {
                scope.spawn(|| {
                    let mut local = (Vec::new(), Tally::default());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        if let Some(done) = self.exec(req, &mut local.1) {
                            local.0.push(done);
                        }
                    }
                    ssn_telemetry::flush_thread();
                    let mut m = merged.lock().expect("client threads do not panic");
                    m.0.extend(local.0);
                    m.1.merge(local.1);
                });
            }
        });
        let (done, t) = merged.into_inner().expect("client threads do not panic");
        tally.merge(t);
        done
    }
}

impl Workload for Serve {
    fn items(&self) -> &'static str {
        "requests"
    }

    fn pass(&mut self, clients: usize, tally: &mut Tally) -> PassOut {
        if self.pool_bodies.iter().any(Option::is_none) {
            // First pass: every pool entry misses once; its bytes become
            // the reference its hits must repeat.
            for i in 0..self.pool.len() {
                let fill = Req {
                    kind: Kind::Fill,
                    ..self.pool[i].clone()
                };
                self.pool_bodies[i] = self.exec(&fill, tally).map(|d| d.body);
            }
        }
        let reqs = block(self.seed, self.blocks, &self.pool);
        self.blocks += 1;
        let done = self.run_block(&reqs, clients, tally);
        let mut latencies_ms = Vec::with_capacity(done.len());
        for d in done {
            // A job's submit-to-done time is `jobs.complete_s`, not a
            // request latency.
            if d.kind != Kind::Job {
                latencies_ms.push(d.latency_ms);
            }
            let class = match d.kind {
                Kind::Miss(class) => path_of(class),
                Kind::Job => "job",
                _ => continue,
            };
            let kept = self.kept_per_class.entry(class).or_insert(0);
            if *kept < RECOMPUTED_PER_CLASS {
                *kept += 1;
                self.kept.push((d.req, d.body));
            }
        }
        PassOut {
            items: latencies_ms.len() as u64,
            latencies_ms,
        }
    }

    fn final_checks(&mut self, tally: &mut Tally) {
        // Served bytes equal the in-process computation of the same request.
        for (req, body) in &self.kept {
            let same = req
                .api_request()
                .and_then(|r| r.run_sync().map_err(|e| e.detail))
                .is_ok_and(|bytes| bytes == *body);
            tally.check(
                &format!("served {} equals in-process bytes", req.path),
                same,
            );
        }
        let health = client::get(self.addr, "/healthz", TIMEOUT);
        let healthy = health.as_ref().is_ok_and(|r| {
            let doc = json::parse(&r.text()).ok();
            r.status == 200
                && doc
                    .as_ref()
                    .and_then(|d| d.get("status"))
                    .and_then(json::Json::as_str)
                    == Some("ok")
                && doc.as_ref().and_then(|d| d.get("draining")) == Some(&json::Json::Bool(false))
        });
        tally.check("/healthz is healthy at the end", healthy);
    }

    fn lc_max_rel_err(&mut self, tally: &mut Tally) -> f64 {
        let served = self.pool_bodies[0]
            .as_ref()
            .and_then(|b| json::parse(&String::from_utf8_lossy(b)).ok())
            .and_then(|d| d.get("vn_lc").and_then(json::Json::as_f64));
        tally.check("nominal estimate carries vn_lc", served.is_some());
        let mna = crate::mc::nominal_mna(tally);
        served.map_or(f64::NAN, |lc| (lc - mna).abs() / mna)
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            server.drain();
        }
    }
}
