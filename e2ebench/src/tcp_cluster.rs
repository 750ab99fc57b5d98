//! `tcp_cluster`: one master and two slaves, run in-process through
//! `run_master`/`run_slave` over localhost TCP. The benchmark is the
//! single client, in a closed loop: it submits a job of N × 16 MiB blocks
//! (implicit eviction), waits for every completion, sends `ReadNotify`
//! for every block, waits for every eviction, then submits the next job.
//! Every wait is bounded; migrations that miss their deadline count as
//! failed and end the loop.

use crate::env::{process_cpu_ns, thread_cpu_ns};
use crate::report::{median, overhead_pct, quantile, Outcome};
use crate::trace::Tracer;
use crate::{Corrupt, Opts};
use dyrs::master::{BlockRequest, JobHint};
use dyrs::EvictionMode;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_net::frame::{decode_frame, encode_frame, supported_versions};
use dyrs_net::node::{
    run_master, run_slave, MasterConfig, MasterProgress, MasterReport, SlaveConfig, SlaveReport,
};
use dyrs_net::tcp::{TcpAcceptor, TcpConfig, TcpConnector};
use dyrs_net::{Message, Peer, Role, Transport, TransportError, PROTOCOL_VERSION};
use simkit::{Rng, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SLAVES: u32 = 2;
const BLOCK_BYTES: u64 = 16 << 20;
/// Blocks per job, drawn per job from the seed. The largest job is
/// under 300 MiB per slave, well inside the slaves' 4 GiB buffers.
const MIN_BLOCKS: u64 = 14;
const MAX_BLOCKS: u64 = 18;
/// Bound on each wait (completions, evictions, handshakes).
const WAIT_LIMIT: Duration = Duration::from_secs(20);
/// Cluster bring-ups per run; `setup_s` is their median. A bring-up
/// takes ~10 ms, quantised by the acceptor's 5 ms accept poll.
const SETUPS: usize = 5;
const MIN_JOBS: usize = 4;
/// The codec replay re-encodes the run's frame mix for at least this
/// long.
const CODEC_REPLAY: Duration = Duration::from_millis(200);

/// Every message the master sent or received, with the peer at the
/// other end, in order.
type FrameLog = Arc<Mutex<Vec<(Peer, Message)>>>;

/// The master's transport, keeping a copy of every message through it
/// when `log` is set. Slaves and the client talk only to the master, so
/// this is every frame the daemons exchanged after the handshakes.
struct Recording<T> {
    inner: T,
    log: Option<FrameLog>,
}

impl<T> Recording<T> {
    fn keep(&self, peer: Peer, msg: &Message) {
        if let Some(log) = &self.log {
            log.lock()
                .expect("frame log poisoned")
                .push((peer, msg.clone()));
        }
    }
}

impl<T: Transport> Transport for Recording<T> {
    fn send(&self, to: Peer, msg: &Message) -> Result<(), TransportError> {
        self.inner.send(to, msg)?;
        self.keep(to, msg);
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<(Peer, Message)>, TransportError> {
        let got = self.inner.try_recv()?;
        if let Some((peer, msg)) = &got {
            self.keep(*peer, msg);
        }
        Ok(got)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(Peer, Message), TransportError> {
        let got = self.inner.recv_timeout(timeout)?;
        self.keep(got.0, &got.1);
        Ok(got)
    }

    fn frames_sent(&self) -> u64 {
        self.inner.frames_sent()
    }

    fn frames_received(&self) -> u64 {
        self.inner.frames_received()
    }
}

/// A running cluster: the master and slave threads, and the client.
struct Cluster {
    client: TcpConnector,
    /// The master's frames, in the traced run.
    frames: Option<FrameLog>,
    progress: MasterProgress,
    master_stop: Arc<AtomicBool>,
    slave_stop: Arc<AtomicBool>,
    master: JoinHandle<MasterReport>,
    slaves: Vec<JoinHandle<SlaveReport>>,
}

/// What the daemons reported once stopped.
struct Reports {
    master: MasterReport,
    slaves: Vec<SlaveReport>,
}

fn bring_up(record: bool) -> Result<Cluster, String> {
    let acceptor =
        TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = acceptor.local_addr().to_string();
    let slave_stop = Arc::new(AtomicBool::new(false));
    let slaves: Vec<JoinHandle<SlaveReport>> = (0..SLAVES)
        .map(|n| {
            let addr = addr.clone();
            let stop = Arc::clone(&slave_stop);
            std::thread::spawn(move || {
                match TcpConnector::connect(&addr, Role::Slave, n, TcpConfig::default()) {
                    Ok(conn) => {
                        let report = run_slave(&conn, &SlaveConfig::new(NodeId(n)), &stop);
                        conn.shutdown();
                        report
                    }
                    Err(e) => SlaveReport {
                        sent: 0,
                        received: 0,
                        advertised: None,
                        completed: 0,
                        evicted: 0,
                        errors: vec![format!("connect: {e:?}")],
                        obs: Default::default(),
                    },
                }
            })
        })
        .collect();
    let connected = acceptor.wait_for_peers(SLAVES as usize, WAIT_LIMIT);
    let master_stop = Arc::new(AtomicBool::new(false));
    let progress = MasterProgress::default();
    let frames = record.then(FrameLog::default);
    let master = {
        let stop = Arc::clone(&master_stop);
        let progress = progress.clone();
        let transport = Recording {
            inner: acceptor,
            log: frames.clone(),
        };
        std::thread::spawn(move || {
            let report = run_master(
                &transport,
                &MasterConfig::new(SLAVES as usize),
                &stop,
                &progress,
            );
            transport.inner.shutdown();
            report
        })
    };
    let client = TcpConnector::connect(&addr, Role::Client, 0, TcpConfig::default());
    match (connected, client) {
        (true, Ok(client)) => Ok(Cluster {
            client,
            frames,
            progress,
            master_stop,
            slave_stop,
            master,
            slaves,
        }),
        (connected, client) => {
            // Stop whatever did start before reporting the failure.
            master_stop.store(true, Ordering::SeqCst);
            slave_stop.store(true, Ordering::SeqCst);
            let _ = master.join();
            for s in slaves {
                let _ = s.join();
            }
            Err(format!(
                "handshakes: slaves connected = {connected}, client = {:?}",
                client.err()
            ))
        }
    }
}

impl Reports {
    /// Every error any daemon reported.
    fn errors(&self) -> Vec<&String> {
        self.master
            .errors
            .iter()
            .chain(self.slaves.iter().flat_map(|s| &s.errors))
            .collect()
    }
}

impl Cluster {
    /// Orderly shutdown through the counting barrier; joins every thread.
    fn tear_down(self) -> Result<Reports, String> {
        self.client.shutdown();
        self.master_stop.store(true, Ordering::SeqCst);
        let master = self.master.join().map_err(|_| "master thread panicked")?;
        self.slave_stop.store(true, Ordering::SeqCst);
        let mut slaves = Vec::new();
        for s in self.slaves {
            slaves.push(s.join().map_err(|_| "slave thread panicked")?);
        }
        Ok(Reports { master, slaves })
    }
}

/// Poll every millisecond until `counter` reaches `target` or the wait
/// limit passes; returns the value reached. A coarser poll would blur job
/// times, a finer one steals the two CPUs the daemons run on.
fn wait_for(counter: &AtomicU64, target: u64) -> u64 {
    let deadline = Instant::now() + WAIT_LIMIT;
    loop {
        let v = counter.load(Ordering::SeqCst);
        if v >= target || Instant::now() >= deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One job's blocks, each replicated on both slaves in a seeded order.
fn job_requests(rng: &mut Rng, first_block: u64) -> Vec<BlockRequest> {
    let n = rng.range_u64(MIN_BLOCKS, MAX_BLOCKS + 1);
    (first_block..first_block + n)
        .map(|b| {
            let lead = rng.below(u64::from(SLAVES)) as u32;
            BlockRequest {
                block: BlockId(b),
                bytes: BLOCK_BYTES,
                replicas: (0..SLAVES).map(|r| NodeId((lead + r) % SLAVES)).collect(),
            }
        })
        .collect()
}

/// What one job observed.
struct Job {
    blocks: Vec<BlockRequest>,
    /// Submit → last completion.
    time: Duration,
    /// CPU of every thread but the benchmark's own, submit → last
    /// eviction: the daemons and both ends of the transport.
    cpu_ns: u64,
    traced: bool,
    /// Migrations that did not complete, or were not evicted, in time.
    unfinished: u64,
}

fn run_job(c: &Cluster, tr: &mut Tracer, j: u64, blocks: Vec<BlockRequest>, done: u64) -> Job {
    let job = JobId(j);
    let n = blocks.len() as u64;
    let mut out = Job {
        blocks,
        time: Duration::ZERO,
        cpu_ns: 0,
        traced: tr.is_on(),
        unfinished: 0,
    };
    let span = tr.begin("bench.job", j);
    let cpu0 = process_cpu_ns() - thread_cpu_ns();
    let start = Instant::now();
    let submit = Message::RequestMigration {
        job,
        blocks: out.blocks.clone(),
        eviction: EvictionMode::Implicit,
        hint: JobHint {
            expected_launch: SimTime::ZERO,
            total_bytes: n * BLOCK_BYTES,
        },
    };
    let sent = tr.span("net.client_send", j, || {
        c.client.send(Peer::Master, &submit).is_ok()
    });
    let completed = if sent {
        tr.span("bench.wait_completions", j, || {
            wait_for(&c.progress.completed, done + n)
        })
    } else {
        done
    };
    out.time = start.elapsed();
    let reached = completed.saturating_sub(done).min(n);
    out.unfinished = n - reached;
    if out.unfinished == 0 {
        for b in &out.blocks {
            let read = Message::ReadNotify {
                block: b.block,
                job,
            };
            // A lost read shows up as a missing eviction below.
            let _ = tr.span("net.client_send", j, || c.client.send(Peer::Master, &read));
        }
        let evicted = tr.span("bench.wait_evictions", j, || {
            wait_for(&c.progress.evicted, done + n)
        });
        out.unfinished = n - evicted.saturating_sub(done).min(n);
    }
    out.cpu_ns = process_cpu_ns() - thread_cpu_ns() - cpu0;
    tr.end(span);
    out
}

/// Encode and decode the frame mix until [`CODEC_REPLAY`] has passed;
/// returns (encode ns/frame, decode ns/frame, roundtrip mismatches). The
/// replay runs after the loop, timed on its own, so it stays out of the
/// workload's spans.
fn replay_codec(mix: &[Message]) -> (f64, f64, u64) {
    let (mut enc_ns, mut dec_ns, mut frames, mut bad) = (0u128, 0u128, 0u64, 0u64);
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let bytes: Vec<Vec<u8>> = mix
            .iter()
            .map(|m| encode_frame(PROTOCOL_VERSION, m))
            .collect();
        let t_dec = Instant::now();
        let back: Vec<_> = bytes
            .iter()
            .map(|b| decode_frame(b, supported_versions()))
            .collect();
        enc_ns += (t_dec - t).as_nanos();
        dec_ns += t_dec.elapsed().as_nanos();
        frames += mix.len() as u64;
        bad += back
            .iter()
            .zip(mix)
            .filter(|(got, want)| !matches!(got, Ok((_, m)) if m == *want))
            .count() as u64;
        if started.elapsed() >= CODEC_REPLAY {
            break;
        }
    }
    let per = |ns: u128| ns as f64 / frames as f64;
    (per(enc_ns), per(dec_ns), bad)
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // --- bring-up, several times; the last cluster is kept -------------------
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    let mut unclean = Vec::new();
    for s in 0..SETUPS {
        if let Some(c) = cluster.take() {
            match Cluster::tear_down(c) {
                Ok(r) if r.errors().is_empty() => {}
                Ok(r) => unclean.push(format!("{:?}", r.errors())),
                Err(e) => unclean.push(e),
            }
        }
        tr.set_on(opts.trace);
        let t = Instant::now();
        let up = tr.span("bench.bring_up", s as u64, || bring_up(opts.trace));
        setups.push(t.elapsed().as_secs_f64());
        tr.set_on(false);
        match up {
            Ok(c) => cluster = Some(c),
            Err(e) => {
                out.check("cluster comes up", false, e);
                return out;
            }
        }
    }
    let cluster = cluster.expect("at least one bring-up ran");
    out.check(
        "every earlier bring-up tears down cleanly",
        unclean.is_empty(),
        format!("{unclean:?}"),
    );

    // --- the closed loop ------------------------------------------------------
    let mut rng = Rng::new(opts.seed);
    let budget = Duration::from_secs(opts.seconds);
    let mut jobs: Vec<Job> = Vec::new();
    let mut done = 0u64;
    let started = Instant::now();
    while jobs.len() < MIN_JOBS || started.elapsed() < budget {
        // Traced run: odd jobs are traced, even ones are not.
        tr.set_on(opts.trace && jobs.len() % 2 == 1);
        let blocks = job_requests(&mut rng, done);
        let job = run_job(&cluster, tr, jobs.len() as u64, blocks, done);
        let stalled = job.unfinished > 0;
        done += job.blocks.len() as u64;
        jobs.push(job);
        if stalled {
            break;
        }
    }
    tr.set_on(false);
    let window = started.elapsed().as_secs_f64();
    let heartbeats = cluster.progress.heartbeats.load(Ordering::SeqCst);
    let frames = cluster.frames.clone();
    let completed_live = cluster.progress.completed.load(Ordering::SeqCst);
    let evicted_live = cluster.progress.evicted.load(Ordering::SeqCst);

    let reports = match cluster.tear_down() {
        Ok(r) => r,
        Err(e) => {
            out.check("daemons shut down", false, e);
            return out;
        }
    };

    let submitted: u64 = jobs.iter().map(|j| j.blocks.len() as u64).sum();
    let unfinished: u64 = jobs.iter().map(|j| j.unfinished).sum();
    out.attempted += submitted;
    out.failed += unfinished;

    // --- correctness ----------------------------------------------------------
    out.check(
        "every migration completes and is evicted within the wait limit",
        unfinished == 0,
        format!("{unfinished} of {submitted} unfinished"),
    );
    let errors = reports.errors();
    out.check(
        "no daemon reports errors",
        errors.is_empty(),
        format!("{errors:?}"),
    );
    let mut master = reports.master;
    if opts.corrupt == Some(Corrupt::Frames) {
        if let Some(v) = master.received.values_mut().next() {
            *v = v.saturating_sub(1);
        }
    }
    let ledgers_agree = reports.slaves.iter().enumerate().all(|(n, s)| {
        master.sent.get(&(n as u32)) == s.advertised.as_ref()
            && master.received.get(&(n as u32)) == Some(&s.sent)
    });
    out.check(
        "zero_loss on the master and every slave",
        master.zero_loss() && reports.slaves.iter().all(SlaveReport::zero_loss) && ledgers_agree,
        format!(
            "master sent {:?} received {:?} byes {:?}",
            master.sent, master.received, master.byes
        ),
    );
    let mut per_block: BTreeMap<u64, u32> = BTreeMap::new();
    for &(_, b) in &master.completed {
        *per_block.entry(b).or_insert(0) += 1;
    }
    let once = per_block.len() as u64 == submitted
        && per_block.values().all(|&c| c == 1)
        && per_block.keys().copied().eq(0..submitted);
    let slave_completed: u64 = reports.slaves.iter().map(|s| s.completed).sum();
    let slave_evicted: u64 = reports.slaves.iter().map(|s| s.evicted).sum();
    out.check(
        "every block is completed and evicted exactly once",
        once && slave_completed == submitted
            && slave_evicted == submitted
            && completed_live == submitted
            && evicted_live == submitted,
        format!(
            "{submitted} submitted; master completed {} ({} distinct), slaves completed \
             {slave_completed} evicted {slave_evicted}",
            master.completed.len(),
            per_block.len()
        ),
    );

    // --- end-to-end (untraced jobs) -------------------------------------------
    let untraced: Vec<&Job> = jobs.iter().filter(|j| !j.traced).collect();
    let times_ms: Vec<f64> = untraced
        .iter()
        .map(|j| j.time.as_secs_f64() * 1e3)
        .collect();
    out.e2e("setup_s", median(&setups), "s", setups.len());
    out.e2e(
        "tcp_migrations_per_s",
        completed_live as f64 / window,
        "1/s",
        jobs.len(),
    );
    // A round is one job, submit to the last completion; an operation
    // one migration.
    out.e2e("round_ms", quantile(&times_ms, 0.5), "ms", times_ms.len());
    out.e2e(
        "tcp_job_p90_ms",
        quantile(&times_ms, 0.9),
        "ms",
        times_ms.len(),
    );
    let cpu_us: Vec<f64> = untraced
        .iter()
        .map(|j| j.cpu_ns as f64 / 1e3 / j.blocks.len() as f64)
        .collect();
    out.e2e("cpu_us_per_op", median(&cpu_us), "us", cpu_us.len());

    // --- per layer --------------------------------------------------------------
    if opts.trace {
        let master_sent: u64 = master.sent.values().sum();
        let log = frames
            .map(|log| std::mem::take(&mut *log.lock().expect("frame log poisoned")))
            .unwrap_or_default();
        let ledger = master_sent + master.received.values().sum::<u64>();
        let to_slaves = log
            .iter()
            .filter(|(peer, _)| matches!(peer, Peer::Slave(_)))
            .count() as u64;
        out.check(
            "the recorded master/slave frames match the master's ledgers",
            to_slaves == ledger,
            format!("{to_slaves} recorded, {ledger} in the ledgers"),
        );
        let mix: Vec<Message> = log.into_iter().map(|(_, m)| m).collect();
        let (enc, dec, bad) = replay_codec(&mix);
        out.check(
            "the run's frames roundtrip through the codec",
            bad == 0 && !mix.is_empty(),
            format!("{bad} mismatches over {} frames", mix.len()),
        );
        out.layer("net.encode_ns_per_frame", enc, "ns", mix.len());
        out.layer("net.decode_ns_per_frame", dec, "ns", mix.len());
        out.layer(
            "net.frames_per_migration",
            ledger as f64 / submitted.max(1) as f64,
            "count",
            submitted as usize,
        );
        out.layer(
            "net.heartbeats_per_migration",
            heartbeats as f64 / submitted.max(1) as f64,
            "count",
            submitted as usize,
        );
    }
    let sends = tr.durations("net.client_send");
    out.layer(
        "net.client_send_us",
        median(&sends) / 1e3,
        "us",
        sends.len(),
    );
    // Jobs differ in size, so the overhead compares time per block.
    let per_block = |j: &Job| j.time.as_secs_f64() / j.blocks.len() as f64;
    let traced: Vec<f64> = jobs.iter().filter(|j| j.traced).map(per_block).collect();
    let plain: Vec<f64> = untraced.iter().map(|j| per_block(j)).collect();
    out.layer(
        "trace.overhead_pct",
        overhead_pct(&traced, &plain),
        "%",
        traced.len() + plain.len(),
    );
    out
}
