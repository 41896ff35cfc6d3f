//! `ktaud_fleet`: the KTAUD monitoring service watching a fleet of
//! burst-then-steady ranks, with subscribed clients mirroring every poll.
//!
//! Chosen because the `procfs`, `codec` and `ktaud` layers do nearly all
//! of its work and none of the LU workloads' work, and because it reads
//! the profile storage the LU workloads write.  The service is driven
//! closed-loop: a refresh round is one sweep followed by every client's
//! poll and apply, and the next round starts when both mirrors are current.

use super::{
    derive_seed, emit_layers, ms_since, repeat, KtaudCounts, LayerFigures, Opts, Part, Samples,
};
use crate::layers::EngineCounts;
use crate::report::Report;
use crate::trace::Tracer;
use ktau_core::time::Ns;
use ktau_mpi::{JobHandle, Layout};
use ktau_oskern::{Cluster, ClusterSpec, FnProgram, NoiseSpec, Op, Pid, TaskSpec};
use ktau_user::ktaud::{ClientId, KtaudMirror, KtaudService, SubscriptionFilter};
use std::sync::OnceLock;
use std::time::Instant;

/// Sweep period, as in `ktaud_scale`.
pub const PERIOD_NS: Ns = 50_000_000;
/// Subscribed clients.
pub const CLIENTS: usize = 2;

/// Size of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Nodes.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Refresh rounds timed per repetition, after the full-sync round.
    pub steady_rounds: usize,
}

impl Shape {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Shape {
            nodes: 256,
            ranks_per_node: 4,
            steady_rounds: 20,
        }
    }

    /// A size for the self-test.
    pub fn tiny() -> Self {
        Shape {
            nodes: 4,
            ranks_per_node: 4,
            steady_rounds: 4,
        }
    }
}

/// Instrumented routine names: the first [`COMMON`] are entered by every
/// rank, the rest by one rank class in four (as in `ktaud_scale`).
fn routines() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let spine = [
            "MPI_Init",
            "MPI_Comm_rank",
            "MPI_Comm_size",
            "MPI_Barrier",
            "MPI_Bcast",
            "MPI_Allreduce",
            "MPI_Finalize",
            "steady_loop",
        ];
        let rest = (spine.len()..64).map(|i| &*Box::leak(format!("phase_{i:02}").into_boxed_str()));
        spine.into_iter().chain(rest).collect()
    })
}

const COMMON: usize = 8;

/// Burst-then-steady rank body: a burst touching many kernel paths fills
/// wide profiles, then a compute/sleep loop keeps a few rows moving.  A
/// quiescent rank sleeps after its burst instead.
fn rank_program(class: usize, quiescent: bool) -> FnProgram<impl FnMut() -> Op + Send + Clone> {
    let names = routines();
    let mine: Vec<usize> = (0..names.len())
        .filter(|&i| i < COMMON || i % 4 == class)
        .collect();
    let mut i = 0usize;
    FnProgram(move || {
        let k = i;
        i += 1;
        if k < mine.len() * 4 {
            let r = mine[k / 4];
            match k % 4 {
                0 => Op::UserEnter(names[r]),
                1 => match r % 4 {
                    0 => Op::SyscallNull,
                    1 => Op::PageFault,
                    2 => Op::SignalSelf,
                    _ => Op::Yield,
                },
                2 => Op::Compute(45_000),
                _ => Op::UserExit(names[r]),
            }
        } else if quiescent {
            Op::Sleep(3_600_000_000_000)
        } else {
            match k % 4 {
                0 => Op::SyscallNull,
                1 => Op::Compute(450_000),
                _ => Op::Sleep(5_000_000),
            }
        }
    })
}

fn spec(shape: &Shape, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::chiba(shape.nodes as usize);
    spec.noise = NoiseSpec::silent();
    spec.seed = derive_seed(seed, spec.seed);
    spec
}

/// Spawns the ranks; every fourth one quiesces after its burst.
fn spawn_ranks(c: &mut Cluster, shape: &Shape) -> Vec<(u32, Pid)> {
    let mut tasks = Vec::new();
    for n in 0..shape.nodes {
        for r in 0..shape.ranks_per_node {
            let global = (n * shape.ranks_per_node + r) as usize;
            let prog = rank_program(global % 4, global % 4 == 3);
            let pid = c.spawn(n, TaskSpec::app(format!("rank{r}"), Box::new(prog)));
            tasks.push((n, pid));
        }
    }
    tasks
}

/// The service with its subscribed clients and their mirrors.
pub struct Fleet {
    svc: KtaudService,
    ids: Vec<ClientId>,
    mirrors: Vec<KtaudMirror>,
}

impl Fleet {
    /// Installs the service on every node of `c` and subscribes
    /// [`CLIENTS`] clients to everything.
    pub fn install(c: &mut Cluster, t: &mut Tracer) -> Fleet {
        let nodes: Vec<u32> = (0..c.num_nodes() as u32).collect();
        let mut svc = t.span("setup.ktaud_install", |_| {
            KtaudService::install(c, &nodes, PERIOD_NS)
        });
        let ids = (0..CLIENTS)
            .map(|_| svc.subscribe(SubscriptionFilter::all()))
            .collect();
        Fleet {
            svc,
            ids,
            mirrors: (0..CLIENTS).map(|_| KtaudMirror::new()).collect(),
        }
    }

    /// The first refresh round, which full-syncs every client.
    pub fn full_sync(&mut self, c: &mut Cluster, t: &mut Tracer) -> Result<(), String> {
        t.span("ktaud.full_sync", |t| self.refresh_round(c, t))
    }

    /// One steady refresh round: a sweep, then every client polls and
    /// applies.
    pub fn refresh(&mut self, c: &mut Cluster, t: &mut Tracer) -> Result<(), String> {
        t.span("ktaud.refresh", |t| self.refresh_round(c, t))
    }

    fn refresh_round(&mut self, c: &mut Cluster, t: &mut Tracer) -> Result<(), String> {
        t.span("ktaud.sweep", |t| {
            let before = EngineCounts::of(c);
            let r = self.svc.sweep(c);
            EngineCounts::of(c).since(before).attach(t);
            r
        })
        .map_err(|e| format!("sweep failed: {e}"))?;
        for (&id, mirror) in self.ids.iter().zip(&mut self.mirrors) {
            let items = t.span("ktaud.poll", |_| self.svc.poll(id));
            t.span("ktaud.apply", |_| mirror.apply_all(&items))
                .map_err(|e| format!("mirror apply failed: {e}"))?;
        }
        Ok(())
    }

    /// Checks every mirror against the server: the same processes, and
    /// each reconstruction re-encoded byte-identical to the server's full
    /// encoding.
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (k, m) in self.mirrors.iter().enumerate() {
            if m.len() != self.svc.tracked() {
                problems.push(format!(
                    "client {k} mirrors {} processes, server tracks {}",
                    m.len(),
                    self.svc.tracked()
                ));
            }
            for ((node, pid), _) in m.iter() {
                if m.encoded(node, pid).as_deref() != self.svc.encoded_full(node, pid) {
                    problems.push(format!(
                        "client {k}: node {node} pid {pid} differs from the server's encoding"
                    ));
                    break;
                }
            }
        }
        problems
    }

    /// Service counters and bytes shipped to all clients so far.
    pub fn counts(&self, c: &Cluster) -> KtaudCounts {
        let s = self.svc.stats();
        KtaudCounts {
            sweeps: s.sweeps,
            captures: s.captures,
            gen_skips: s.gen_skips,
            unchanged_captures: s.unchanged_captures,
            events: c.events_simulated(),
            bytes: self
                .ids
                .iter()
                .map(|&id| self.svc.client_stats(id).bytes_shipped())
                .sum(),
            node_polls: s.sweeps * CLIENTS as u64 * c.num_nodes() as u64,
        }
    }
}

/// Monitors another workload's end state: installs the service on `c`,
/// takes the full-sync round, then times `rounds` steady rounds.  Returns
/// the steady-round counters; failures go to `r`.
pub fn probe(c: &mut Cluster, t: &mut Tracer, r: &mut Report, rounds: usize) -> KtaudCounts {
    let mut fleet = Fleet::install(c, t);
    let mut problems: Vec<String> = fleet.full_sync(c, t).err().into_iter().collect();
    let before = fleet.counts(c);
    for _ in 0..rounds {
        if let Err(e) = fleet.refresh(c, t) {
            problems.push(e);
            break;
        }
    }
    problems.extend(fleet.verify());
    r.outcome.op(problems);
    fleet.counts(c).since(before)
}

/// Runs the workload.
pub fn run(shape: &Shape, opts: &Opts) -> Report {
    let mut r = Report::new("ktaud_fleet", opts.seed, opts.traced);
    let mut t = Tracer::new(opts.traced);
    let mut s = Samples::default();
    let mut f = LayerFigures {
        sim_spans: vec!["ktaud.sweep"],
        ..Default::default()
    };
    let mut first: Option<(u64, usize)> = None;
    let mut last: Option<(Cluster, Vec<(u32, Pid)>)> = None;
    repeat(opts, &mut r, &mut t, 3, 64, |t, r, i| {
        last = None;
        let t0 = Instant::now();
        let mut c = t.span("setup.cluster_new", |_| {
            Cluster::new(spec(shape, opts.seed))
        });
        let tasks = t.span("setup.launch", |_| spawn_ranks(&mut c, shape));
        let mut fleet = Fleet::install(&mut c, t);
        let first_round = fleet.full_sync(&mut c, t);
        let setup_s = t0.elapsed().as_secs_f64();
        s.rss_after_setup_mb = crate::host::vm_mib("VmRSS");
        let mut problems: Vec<String> = first_round.err().into_iter().collect();
        problems.extend(fleet.verify());
        r.outcome.op(problems);

        let (k0, e0) = (fleet.counts(&c), EngineCounts::of(&c));
        let mut ops = Vec::with_capacity(shape.steady_rounds);
        for _ in 0..shape.steady_rounds {
            let tr = Instant::now();
            let res = fleet.refresh(&mut c, t);
            ops.push(Part::Op(ms_since(tr)));
            let mut problems: Vec<String> = res.err().into_iter().collect();
            problems.extend(fleet.verify());
            r.outcome.op(problems);
        }
        s.add(i, t.on(), setup_s, ops);

        let k = fleet.counts(&c).since(k0);
        let fingerprint = (k.bytes, fleet.svc.tracked());
        match first {
            None => first = Some(fingerprint),
            Some(f0) if f0 != fingerprint => r.outcome.op(vec![format!(
                "repetition shipped {fingerprint:?} (bytes, tracked), the first shipped {f0:?}"
            )]),
            Some(_) => {}
        }
        if t.on() {
            f.counts = EngineCounts::of(&c).since(e0);
            f.ktaud = k;
            drop(fleet);
            last = Some((c, tasks));
        }
    });
    r.note("shape", format!("{shape:?}"));
    if !opts.traced {
        s.emit_end_to_end(&mut r);
        return r;
    }
    if let Some((c, tasks)) = last {
        // `extract_run` reads only `tasks`; the ranks are not an MPI job.
        let job = JobHandle {
            layout: Layout::one_per_node(shape.nodes),
            tasks,
            conns: Default::default(),
        };
        t.span("harvest.extract_run", |_| {
            ktau_bench::records::extract_run(
                &c,
                "ranks",
                "fleet",
                c.now(),
                &job,
                "steady_loop",
                None,
            )
        });
        t.span("harvest.state_digest", |_| c.state_digest());
        let (copy, kib) = super::ktas_probe(c, &mut t, &mut r);
        f.image_kib = kib;
        if let Some(mut c) = copy {
            super::layer_probes(&mut c, opts.seed, PERIOD_NS, &mut f);
        }
    }
    emit_layers(&mut r, &t, &f, &s);
    r
}
