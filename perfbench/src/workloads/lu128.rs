//! `lu128`: NPB-LU class C on 128 nodes × 1 rank at HZ=100 with default
//! noise, from t=0 to a fixed virtual-time horizon.
//!
//! Chosen because the 128-rank LU runs are most of a cold `run_all`: the
//! per-node state is far larger than the host caches, the queue is deep
//! and TCP traffic is heavy, so `sim`, `net` and `measure` do most of the
//! work.  The prefix runs at the full run's events/s, so it stands in for
//! the whole run.  The run is stepped to the horizon through
//! `Cluster::run_for`, and one step is one operation: the latency a user
//! watching the run's progress sees.  Traced repetitions step in smaller
//! chunks, one span each, so equal outputs also show that the step size
//! changes nothing.
use super::{
    derive_seed, emit_layers, ktaud_fleet, ms_since, repeat, LayerFigures, Opts, Part, Samples,
};
use crate::layers::EngineCounts;
use crate::report::Report;
use crate::trace::Tracer;
use ktau_bench::records::extract_run;
use ktau_core::digest::{fnv_bytes, FNV_OFFSET};
use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch, JobHandle, Layout};
use ktau_oskern::{Cluster, ClusterSpec};
use ktau_workloads::LuParams;
use std::time::Instant;

/// Size of the run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Nodes, one rank each.
    pub nodes: u32,
    /// LU parameters (class C for the benchmark).
    pub params: LuParams,
    /// Virtual time the run stops at.
    pub horizon_ns: Ns,
    /// Virtual time per `run_for` step, one operation each.  For class C
    /// at 128 ranks, 3 s is about one SSOR iteration, so every step holds
    /// the same compute and communication phases.
    pub chunk_ns: Ns,
    /// Virtual time per `run_for` step in traced repetitions.  It differs
    /// from `chunk_ns`, so equal outputs show the step size changes nothing.
    pub traced_chunk_ns: Ns,
}

impl Shape {
    /// The benchmark's size.
    pub fn bench() -> Self {
        Shape {
            nodes: 128,
            params: LuParams::class_c_128(),
            horizon_ns: 12 * NS_PER_SEC,
            chunk_ns: 3 * NS_PER_SEC,
            traced_chunk_ns: NS_PER_SEC / 8,
        }
    }

    /// A size for the self-test.
    pub fn tiny() -> Self {
        Shape {
            nodes: 4,
            params: LuParams::tiny(2, 2),
            horizon_ns: NS_PER_SEC / 2,
            chunk_ns: NS_PER_SEC / 10,
            traced_chunk_ns: NS_PER_SEC / 20,
        }
    }
}

/// Fingerprint of the record `extract_run` harvests at the horizon of the
/// benchmark's shape at the default seed, over its JSON encoding.  The
/// record holds model outputs only (per-rank kernel/user times and
/// counts), so it must not move when only the engine's speed changes.
pub const BENCH_RECORD_FNV: u64 = 0x842a_4c38_b5e9_9d46;

/// Model outputs of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    /// FNV-1a of the harvested record's JSON.
    pub record_fnv: u64,
    /// `state_digest` at the horizon (compared within one commit only).
    pub digest: u64,
    /// Virtual time reached.
    pub now: Ns,
}

fn spec(shape: &Shape, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::chiba(shape.nodes as usize);
    spec.seed = derive_seed(seed, spec.seed);
    spec
}

fn params(shape: &Shape, seed: u64) -> LuParams {
    let mut p = shape.params;
    p.seed = derive_seed(seed, p.seed);
    p
}

fn boot(shape: &Shape, seed: u64, t: &mut Tracer) -> (Cluster, JobHandle) {
    let mut c = t.span("setup.cluster_new", |_| Cluster::new(spec(shape, seed)));
    let layout = Layout::one_per_node(shape.nodes);
    let apps = params(shape, seed).apps();
    let job = t.span("setup.launch", |_| {
        launch(&mut c, "lu.C.128", &layout, apps)
    });
    (c, job)
}

/// Runs `c` to the horizon in steps of `chunk_ns`, one span and one timed
/// operation each.
fn step_to_horizon(c: &mut Cluster, shape: &Shape, chunk_ns: Ns, t: &mut Tracer) -> Vec<Part> {
    let mut parts = Vec::new();
    while c.now() < shape.horizon_ns {
        let step = chunk_ns.min(shape.horizon_ns - c.now());
        let t0 = Instant::now();
        t.span("sim.run_for", |t| {
            let before = EngineCounts::of(c);
            c.run_for(step);
            EngineCounts::of(c).since(before).attach(t);
        });
        parts.push(Part::Op(ms_since(t0)));
    }
    parts
}

fn harvest(c: &Cluster, job: &JobHandle, t: &mut Tracer) -> Outputs {
    let rec = t.span("harvest.extract_run", |_| {
        extract_run(c, "lu", "128x1", c.now(), job, "jacld", None)
    });
    let digest = t.span("harvest.state_digest", |_| c.state_digest());
    let json = serde_json::to_string(&rec).expect("run records encode");
    let mut record_fnv = FNV_OFFSET;
    fnv_bytes(&mut record_fnv, json.as_bytes());
    Outputs {
        record_fnv,
        digest,
        now: c.now(),
    }
}

/// Runs the workload.  `reference` is the record fingerprint the run must
/// reproduce, if one is known for this shape and seed.
pub fn run(shape: &Shape, opts: &Opts, reference: Option<u64>) -> Report {
    let mut r = Report::new("lu128", opts.seed, opts.traced);
    let mut t = Tracer::new(opts.traced);
    let mut s = Samples::default();
    let mut f = LayerFigures {
        sim_spans: vec!["sim.run_for"],
        ..Default::default()
    };
    let mut first: Option<Outputs> = None;
    let mut last: Option<(Cluster, JobHandle)> = None;
    repeat(opts, &mut r, &mut t, 3, 64, |t, r, i| {
        last = None;
        let t0 = Instant::now();
        let (mut c, job) = boot(shape, opts.seed, t);
        let setup_s = t0.elapsed().as_secs_f64();
        s.rss_after_setup_mb = crate::host::vm_mib("VmRSS");
        let e0 = EngineCounts::of(&c);
        let chunk = if t.on() {
            shape.traced_chunk_ns
        } else {
            shape.chunk_ns
        };
        let mut parts = step_to_horizon(&mut c, shape, chunk, t);
        let t1 = Instant::now();
        let out = harvest(&c, &job, t);
        parts.push(Part::Other(ms_since(t1)));
        s.add(i, t.on(), setup_s, parts);

        let mut problems = Vec::new();
        if out.now != shape.horizon_ns {
            problems.push(format!(
                "stopped at {} ns, horizon {}",
                out.now, shape.horizon_ns
            ));
        }
        if let Some(want) = reference {
            if out.record_fnv != want {
                problems.push(format!(
                    "record fingerprint {:016x}, reference {want:016x}",
                    out.record_fnv
                ));
            }
        }
        match first {
            None => first = Some(out),
            Some(o) if o != out => problems.push(format!(
                "repetition {i} (traced: {}) gave {out:?}, the first gave {o:?}",
                t.on()
            )),
            Some(_) => {}
        }
        r.outcome.op(problems);
        if t.on() {
            f.counts = EngineCounts::of(&c).since(e0);
            last = Some((c, job));
        }
    });
    if let Some(o) = first {
        r.note("record_fnv", format!("{:016x}", o.record_fnv));
    }
    r.note("shape", format!("{shape:?}"));
    if !opts.traced {
        s.emit_end_to_end(&mut r);
        return r;
    }
    if let Some((c, _job)) = last {
        let (copy, kib) = super::ktas_probe(c, &mut t, &mut r);
        f.image_kib = kib;
        if let Some(mut c) = copy {
            super::layer_probes(&mut c, opts.seed, shape.traced_chunk_ns, &mut f);
            f.ktaud = ktaud_fleet::probe(&mut c, &mut t, &mut r, 10);
        }
    }
    emit_layers(&mut r, &t, &f, &s);
    r
}
