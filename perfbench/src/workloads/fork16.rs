//! `fork16`: the `fork_sweep` warm path.  LU class C on 16 nodes runs to
//! the fork point, one KTAS snapshot is taken, and each of the 8 variants
//! resumes from it, applies its mutation and runs to completion.
//!
//! Chosen because it is the only workload that exercises `ktas`
//! snapshot/resume, its 16-node state fits in the host caches (unlike
//! `lu128`), and its fault variants drive TCP retransmits.  One fork is
//! one operation.

use super::{
    derive_seed, emit_layers, ktaud_fleet, ms_since, panic_text, repeat, LayerFigures, Opts, Part,
    Samples,
};
use crate::layers::EngineCounts;
use crate::report::Report;
use crate::trace::Tracer;
use ktau_bench::forksweep::{apply_mutation, variants, ForkOutcome, Mutation, FORK_NODES};
use ktau_bench::records::extract_run;
use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch, JobHandle, Layout};
use ktau_oskern::{Cluster, ClusterSnapshot};
use ktau_workloads::LuParams;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Size of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Nodes, one rank each (the variants address nodes up to 7).
    pub nodes: u32,
    /// LU parameters.
    pub params: LuParams,
    /// Virtual time of the fork point.
    pub fork_ns: Ns,
    /// Virtual deadline of every fork.
    pub deadline_ns: Ns,
}

impl Shape {
    /// The `fork_sweep` size.
    pub fn bench() -> Self {
        Shape {
            nodes: FORK_NODES as u32,
            params: LuParams::class_c_16(),
            fork_ns: ktau_bench::T_FORK_NS,
            deadline_ns: 3_600 * NS_PER_SEC,
        }
    }

    /// A size for the self-test.
    pub fn tiny() -> Self {
        Shape {
            nodes: 8,
            params: LuParams::tiny(4, 2),
            fork_ns: NS_PER_SEC / 4,
            deadline_ns: 600 * NS_PER_SEC,
        }
    }
}

/// Model outputs of one fork.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForkOut {
    /// Virtual completion time, seconds.
    pub end_s: f64,
    /// `state_digest` at completion (compared within one commit only).
    pub digest: u64,
}

/// The engine work of a sweep: the prefix once, plus each fork's own work.
/// A resumed cluster starts from the prefix's counters, so a fork's work
/// is its end counters minus the prefix's.
pub fn sweep_work(prefix: EngineCounts, fork_ends: &[EngineCounts]) -> EngineCounts {
    fork_ends
        .iter()
        .fold(prefix, |acc, &end| acc.plus(end.since(prefix)))
}

/// The sweep's variants with their fault-plan seeds derived from `seed`.
pub fn seeded_variants(seed: u64) -> Vec<(&'static str, Mutation)> {
    variants()
        .into_iter()
        .map(|v| {
            let m = match v.mutation {
                Mutation::Faults(mut p) => {
                    p.seed = derive_seed(seed, p.seed);
                    Mutation::Faults(p)
                }
                Mutation::FaultsAndDegrade(mut p, n, d) => {
                    p.seed = derive_seed(seed, p.seed);
                    Mutation::FaultsAndDegrade(p, n, d)
                }
                m => m,
            };
            (v.name, m)
        })
        .collect()
}

/// Committed cold-twin end times, `(variant, end_virtual_s)`, read from
/// the `fork_sweep` step markers in `dir`.
pub fn committed_ends(dir: &Path) -> Result<Vec<(String, f64)>, String> {
    variants()
        .iter()
        .map(|v| {
            let path = dir.join(format!("cold_{}.done", v.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let outcome: ForkOutcome =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((v.name.to_owned(), outcome.end_virtual_s))
        })
        .collect()
}

fn boot(shape: &Shape, seed: u64, t: &mut Tracer) -> (Cluster, JobHandle) {
    // `fork_sweep`'s base spec, at the shape's node count.
    let mut spec = ktau_oskern::ClusterSpec::chiba(shape.nodes as usize);
    spec.seed = derive_seed(seed, spec.seed);
    let mut p = shape.params;
    p.seed = derive_seed(seed, p.seed);
    let mut c = t.span("setup.cluster_new", |_| Cluster::new(spec));
    let layout = Layout::one_per_node(shape.nodes);
    let job = t.span("setup.launch", |_| {
        launch(&mut c, "lu.C.16", &layout, p.apps())
    });
    (c, job)
}

/// Resumes `snap`, applies `m` and runs to completion.
fn fork(
    snap: &ClusterSnapshot,
    m: &Mutation,
    shape: &Shape,
    t: &mut Tracer,
) -> Result<(ForkOut, EngineCounts), String> {
    t.span("fork", |t| {
        let mut c = t
            .span("ktas.resume", |_| Cluster::resume(snap))
            .map_err(|e| format!("resume failed: {e}"))?;
        apply_mutation(&mut c, m);
        let end = t.span("sim.run_until_apps_exit", |t| {
            let before = EngineCounts::of(&c);
            let end = c.run_until_apps_exit(shape.deadline_ns);
            EngineCounts::of(&c).since(before).attach(t);
            end
        });
        let digest = t.span("harvest.state_digest", |_| c.state_digest());
        let out = ForkOut {
            end_s: end as f64 / NS_PER_SEC as f64,
            digest,
        };
        Ok((out, EngineCounts::of(&c)))
    })
}

/// An uninterrupted run from t=0 with the mutation applied at the fork
/// point: the fork's cold twin.
fn cold(shape: &Shape, seed: u64, m: &Mutation) -> (ForkOut, EngineCounts) {
    let mut t = Tracer::new(false);
    let (mut c, _) = boot(shape, seed, &mut t);
    c.run_for(shape.fork_ns);
    apply_mutation(&mut c, m);
    let end = c.run_until_apps_exit(shape.deadline_ns);
    let out = ForkOut {
        end_s: end as f64 / NS_PER_SEC as f64,
        digest: c.state_digest(),
    };
    (out, EngineCounts::of(&c))
}

/// Runs the workload.  `reference` holds the committed cold-twin end
/// times the forks must reproduce, if known for this shape and seed.
pub fn run(shape: &Shape, opts: &Opts, reference: Option<&[(String, f64)]>) -> Report {
    let mut r = Report::new("fork16", opts.seed, opts.traced);
    let mut t = Tracer::new(opts.traced);
    let mut s = Samples::default();
    let mut f = LayerFigures {
        sim_spans: vec!["sim.run_for", "sim.run_until_apps_exit"],
        ..Default::default()
    };
    let vs = seeded_variants(opts.seed);
    let mut first: Vec<Option<ForkOut>> = vec![None; vs.len()];
    let mut prefix_work = EngineCounts::default();
    let mut fork_work: Vec<EngineCounts> = vec![EngineCounts::default(); vs.len()];
    let mut last: Option<(ClusterSnapshot, JobHandle)> = None;
    repeat(opts, &mut r, &mut t, 3, 64, |t, r, i| {
        last = None;
        let t0 = Instant::now();
        let (mut c, job) = boot(shape, opts.seed, t);
        let setup_s = t0.elapsed().as_secs_f64();
        s.rss_after_setup_mb = crate::host::vm_mib("VmRSS");
        let t1 = Instant::now();
        t.span("sim.run_for", |t| {
            let before = EngineCounts::of(&c);
            c.run_for(shape.fork_ns);
            EngineCounts::of(&c).since(before).attach(t);
        });
        let prefix = EngineCounts::of(&c);
        let mut parts = vec![Part::Other(ms_since(t1))];
        let t2 = Instant::now();
        let snap = t.span("ktas.capture", |_| c.snapshot());
        parts.push(Part::Other(ms_since(t2)));
        drop(c);
        let mut ends = Vec::with_capacity(vs.len());
        for (k, (name, m)) in vs.iter().enumerate() {
            let tf = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| fork(&snap, m, shape, t)))
                .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))));
            parts.push(Part::Op(ms_since(tf)));
            let mut problems = Vec::new();
            match res {
                Err(e) => problems.push(format!("fork {name}: {e}")),
                Ok((out, end)) => {
                    ends.push(end);
                    fork_work[k] = end.since(prefix);
                    if let Some((_, want)) =
                        reference.and_then(|rf| rf.iter().find(|(n, _)| n == name))
                    {
                        if (out.end_s - want).abs() > 1e-9 {
                            problems.push(format!(
                                "fork {name} ended at {} s, committed cold twin at {want} s",
                                out.end_s
                            ));
                        }
                    }
                    match first[k] {
                        None => first[k] = Some(out),
                        Some(o) if o != out => problems.push(format!(
                            "fork {name} in repetition {i} gave {out:?}, the first gave {o:?}"
                        )),
                        Some(_) => {}
                    }
                }
            }
            r.outcome.op(problems);
        }
        s.add(i, t.on(), setup_s, parts);
        prefix_work = prefix;
        if t.on() {
            f.counts = sweep_work(prefix, &ends);
            last = Some((snap, job));
        }
    });
    r.note("shape", format!("{shape:?}"));
    for ((name, _), out) in vs.iter().zip(&first) {
        if let Some(o) = out {
            r.note(&format!("end_s.{name}"), o.end_s);
        }
    }

    // Cold twins of the control and of one seed-chosen variant: same
    // digest and end as the fork, and the same engine work as the prefix
    // plus the fork's own work.
    for k in [0, 1 + (opts.seed % (vs.len() as u64 - 1)) as usize] {
        let (name, m) = &vs[k];
        let twin = catch_unwind(AssertUnwindSafe(|| cold(shape, opts.seed, m)));
        let mut problems = Vec::new();
        match (twin, first[k]) {
            (Err(p), _) => problems.push(format!("cold twin {name} panicked: {}", panic_text(p))),
            (Ok(_), None) => problems.push(format!("fork {name} never completed")),
            (Ok((out, work)), Some(fk)) => {
                if out != fk {
                    problems.push(format!("fork {name} gave {fk:?}, its cold twin {out:?}"));
                }
                let forked = prefix_work.plus(fork_work[k]);
                if work.simulated != forked.simulated {
                    problems.push(format!(
                        "fork {name}: prefix + fork simulated {} events, cold twin {}",
                        forked.simulated, work.simulated
                    ));
                }
            }
        }
        r.outcome.op(problems);
    }

    if !opts.traced {
        s.emit_end_to_end(&mut r);
        return r;
    }
    if let Some((snap, job)) = last {
        f.image_kib = snap.image().len() as f64 / 1024.0;
        match Cluster::resume(&snap) {
            Ok(mut c) => {
                t.span("harvest.extract_run", |_| {
                    extract_run(&c, "lu", "16x1", c.now(), &job, "jacld", None)
                });
                super::layer_probes(&mut c, opts.seed, NS_PER_SEC / 8, &mut f);
                f.ktaud = ktaud_fleet::probe(&mut c, &mut t, &mut r, 10);
            }
            Err(e) => r
                .outcome
                .op(vec![format!("resume for layer probes failed: {e}")]),
        }
    }
    emit_layers(&mut r, &t, &f, &s);
    r
}
