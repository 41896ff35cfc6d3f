//! The three workloads and what they share: seeds, the repetition loop,
//! references and the per-layer metric list.

pub mod fork16;
pub mod ktaud_fleet;
pub mod lu128;

use crate::layers::{self, EngineCounts};
use crate::report::Report;
use crate::stats::{median, percentile, splitmix64};
use crate::trace::Tracer;
use ktau_core::time::Ns;
use ktau_oskern::Cluster;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed that reproduces the committed references: every model seed
/// keeps its committed value.
pub const DEFAULT_SEED: u64 = 0;

/// The model seed derived from benchmark seed `seed` for a component whose
/// committed seed is `committed`.  The default seed keeps `committed`, so
/// the committed outputs are the reference; any other seed gives a
/// held-out input on which only self-consistency can be checked.
pub fn derive_seed(seed: u64, committed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        committed
    } else {
        committed ^ splitmix64(seed ^ splitmix64(committed))
    }
}

/// How one benchmark process runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The `--seed` argument.
    pub seed: u64,
    /// Host seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Runs repetition `rep(tracer, index)` until `opts.seconds` have passed,
/// at least `min` and at most `max` times.  A traced run alternates
/// untraced and traced repetitions, starting untraced and ending traced,
/// so it can report tracing overhead, compare traced with untraced
/// outputs, and probe the layers on the last traced repetition's state.
/// A panic ends the loop and is counted as one failed operation.
pub fn repeat(
    opts: &Opts,
    report: &mut Report,
    tracer: &mut Tracer,
    min: usize,
    max: usize,
    mut rep: impl FnMut(&mut Tracer, &mut Report, u32),
) {
    let t0 = Instant::now();
    let min = if opts.traced { min.max(3) } else { min };
    for i in 0..max as u32 {
        let ends_traced = !opts.traced || i % 2 == 0;
        if i as usize >= min && ends_traced && t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        tracer.start_run(i, opts.traced && i % 2 == 1);
        let r = catch_unwind(AssertUnwindSafe(|| rep(tracer, report, i)));
        if let Err(p) = r {
            let msg = panic_text(p);
            report
                .outcome
                .op(vec![format!("repetition {i} panicked: {msg}")]);
            break;
        }
    }
    tracer.start_run(u32::MAX, opts.traced);
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The message of a caught panic.
pub fn panic_text(p: Box<dyn Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// One timed piece of a repetition's work, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub enum Part {
    /// An operation: its latency counts towards `op_ms_*`.
    Op(f64),
    /// Other timed work (a prefix, a snapshot, a harvest).
    Other(f64),
}

impl Part {
    fn ms(self) -> f64 {
        match self {
            Part::Op(ms) | Part::Other(ms) => ms,
        }
    }
}

/// Host-time samples gathered over a run's repetitions.
///
/// Every repetition does the same work in the same order, so each timed
/// part is taken as its median over the untraced repetitions, and `run_s`
/// is the sum of those medians: a burst of host noise then slows one
/// sample of one part instead of a whole repetition.  Operation latency
/// percentiles are taken over every operation of every repetition.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Set-up seconds per untraced repetition.
    pub setup_s: Vec<f64>,
    /// The timed parts of each untraced repetition.
    pub parts: Vec<Vec<Part>>,
    /// Total timed seconds per traced repetition.
    pub run_s_traced: Vec<f64>,
    /// VmRSS right after the last set-up, MiB.
    pub rss_after_setup_mb: f64,
}

impl Samples {
    /// Adds the timings of repetition `rep`.  Repetition 0 warms the
    /// allocator and caches and is not timed.
    pub fn add(&mut self, rep: u32, traced: bool, setup_s: f64, parts: Vec<Part>) {
        if rep == 0 {
            return;
        }
        if traced {
            self.run_s_traced
                .push(parts.iter().map(|p| p.ms()).sum::<f64>() / 1e3);
        } else {
            self.setup_s.push(setup_s);
            self.parts.push(parts);
        }
    }

    /// Total timed seconds per untraced repetition.
    pub fn run_s_totals(&self) -> Vec<f64> {
        self.parts
            .iter()
            .map(|p| p.iter().map(|x| x.ms()).sum::<f64>() / 1e3)
            .collect()
    }

    /// Each part's median over the untraced repetitions.
    pub fn part_medians(&self) -> Vec<Part> {
        let n = self.parts.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|k| {
                let m = median(&self.parts.iter().map(|p| p[k].ms()).collect::<Vec<_>>());
                match self.parts[0][k] {
                    Part::Op(_) => Part::Op(m),
                    Part::Other(_) => Part::Other(m),
                }
            })
            .collect()
    }

    /// The end-to-end metrics of an untraced run.
    pub fn emit_end_to_end(&self, r: &mut Report) {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        r.note("setup_s_samples", list(&self.setup_s));
        r.note("run_s_samples", list(&self.run_s_totals()));
        let ops: Vec<f64> = self
            .parts
            .iter()
            .flatten()
            .filter_map(|p| match p {
                Part::Op(ms) => Some(*ms),
                Part::Other(_) => None,
            })
            .collect();
        // Few operations lie beyond the p90 of `lu128` and `fork16`, so the
        // tail is a note here; the traced run reports the refresh tail.
        r.note("op_ms_p90", percentile(&ops, 90.0));
        let run_s = self.part_medians().iter().map(|p| p.ms()).sum::<f64>() / 1e3;
        r.metric("setup_s", median(&self.setup_s), "s", self.setup_s.len());
        r.metric("run_s", run_s, "s", self.parts.len());
        r.metric("op_ms_p50", median(&ops), "ms", ops.len());
        r.metric("peak_rss_mb", crate::host::vm_mib("VmHWM"), "MB", 1);
    }
}

/// Per-layer figures measured outside the spans (counts and isolated
/// layer timings); span-derived figures are read from the tracer.
#[derive(Debug, Default, Clone)]
pub struct LayerFigures {
    /// Engine counts over one repetition's timed work.
    pub counts: EngineCounts,
    /// Span names whose time is simulator time.
    pub sim_spans: Vec<&'static str>,
    /// `EventQueue` push / pop ns.
    pub queue_ns: (f64, f64),
    /// Probe pair, pair-off, atomic, interval ns.
    pub probe_ns: [f64; 4],
    /// Two-node stream ns per byte.
    pub stream_ns_per_byte: f64,
    /// Two-phase profile read µs, kernel-wide snapshot µs.
    pub procfs_us: (f64, f64),
    /// Encode MB/s, decode MB/s, delta µs.
    pub codec: (f64, f64, f64),
    /// KTAUD service counters over the measured sweeps.
    pub ktaud: KtaudCounts,
    /// KTAS image size, KiB.
    pub image_kib: f64,
    /// Live measurement arena bytes per node at the end.
    pub measurement_bytes_per_node: f64,
}

/// KTAUD service counters over a run of sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct KtaudCounts {
    /// Sweeps counted.
    pub sweeps: u64,
    /// Profiles captured.
    pub captures: u64,
    /// Profiles skipped on an unchanged generation.
    pub gen_skips: u64,
    /// Captures that minted no new sequence.
    pub unchanged_captures: u64,
    /// Simulator events during the sweeps.
    pub events: u64,
    /// Bytes shipped to all clients.
    pub bytes: u64,
    /// Client polls × nodes, the divisor of bytes per node per sweep.
    pub node_polls: u64,
}

impl KtaudCounts {
    /// Field-wise `self - before`.
    pub fn since(self, before: KtaudCounts) -> KtaudCounts {
        KtaudCounts {
            sweeps: self.sweeps - before.sweeps,
            captures: self.captures - before.captures,
            gen_skips: self.gen_skips - before.gen_skips,
            unchanged_captures: self.unchanged_captures - before.unchanged_captures,
            events: self.events - before.events,
            bytes: self.bytes - before.bytes,
            node_polls: self.node_polls - before.node_polls,
        }
    }
}

/// Captures `c` as a KTAS image, drops it and resumes the image, so only
/// one copy of a large cluster is alive at a time.  The resumed copy must
/// digest like its source; it is returned for further probing with the
/// image size in KiB.
pub fn ktas_probe(c: Cluster, t: &mut Tracer, r: &mut Report) -> (Option<Cluster>, f64) {
    let digest = c.state_digest();
    let snap = t.span("ktas.capture", |_| c.snapshot());
    drop(c);
    let resumed = t.span("ktas.resume", |_| Cluster::resume(&snap));
    let problems = match &resumed {
        Ok(copy) if copy.state_digest() == digest => Vec::new(),
        Ok(_) => vec!["resumed image digests differently from its source".to_owned()],
        Err(e) => vec![format!("resume failed: {e}")],
    };
    r.outcome.op(problems);
    (resumed.ok(), snap.image().len() as f64 / 1024.0)
}

/// Per-layer measurements common to every workload, taken on the end
/// state `c`: queue, probes, stream, procfs, codec and measurement bytes.
/// Advances `c` by `advance_ns` between the two codec captures.
pub fn layer_probes(c: &mut Cluster, seed: u64, advance_ns: Ns, f: &mut LayerFigures) {
    f.queue_ns = layers::queue_ns(c.num_nodes() as u32, seed);
    let (meas, ids) = layers::rank_measurement(c);
    f.probe_ns = layers::probe_ns(&meas, &ids);
    f.stream_ns_per_byte = layers::stream_ns_per_byte(seed);
    f.procfs_us = layers::procfs_us(c);
    f.measurement_bytes_per_node = layers::measurement_bytes_per_node(c);
    let base = layers::capture_profiles(c);
    c.run_for(advance_ns);
    f.codec = layers::codec(&base, &layers::capture_profiles(c));
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn emit_layers(r: &mut Report, t: &Tracer, f: &LayerFigures, s: &Samples) {
    let c = f.counts;
    r.metric("sim.events_simulated", c.simulated as f64, "count", 1);
    r.metric("sim.events_dispatched", c.dispatched as f64, "count", 1);
    r.metric("sim.ticks_coalesced", c.ticks_coalesced as f64, "count", 1);
    r.metric("sim.txdone_elided", c.txdone_elided as f64, "count", 1);
    let (mut ns, mut sim, mut disp, mut n) = (0u64, 0u64, 0u64, 0usize);
    for name in &f.sim_spans {
        ns += t.total(name, "").0;
        sim += t.total(name, "events_simulated").1;
        disp += t.total(name, "events_dispatched").1;
        n += t.durations_ms(name).len();
    }
    r.metric(
        "sim.ns_per_simulated_event",
        ns as f64 / sim.max(1) as f64,
        "ns",
        n,
    );
    r.metric(
        "sim.ns_per_dispatch",
        ns as f64 / disp.max(1) as f64,
        "ns",
        n,
    );
    r.metric("sim.queue_push_ns", f.queue_ns.0, "ns", 5);
    r.metric("sim.queue_pop_ns", f.queue_ns.1, "ns", 5);
    let names = ["pair", "pair_off", "atomic", "interval"];
    for (k, v) in names.iter().zip(f.probe_ns) {
        r.metric(&format!("measure.probe_{k}_ns"), v, "ns", 5);
    }
    r.metric("net.retransmits", c.retransmits as f64, "count", 1);
    r.metric("net.stream_ns_per_byte", f.stream_ns_per_byte, "ns", 5);
    r.metric("procfs.profile_read_us", f.procfs_us.0, "us", 5);
    r.metric("procfs.kernel_wide_snapshot_us", f.procfs_us.1, "us", 5);
    r.metric("codec.encode_mb_per_s", f.codec.0, "MB/s", 5);
    r.metric("codec.decode_mb_per_s", f.codec.1, "MB/s", 5);
    r.metric("codec.delta_us", f.codec.2, "us", 5);
    for (span, name) in [
        ("ktaud.sweep", "ktaud.sweep_ms_p50"),
        ("ktaud.poll", "ktaud.poll_ms_p50"),
        ("ktaud.apply", "ktaud.apply_ms_p50"),
        ("ktaud.refresh", "ktaud.refresh_ms_p50"),
    ] {
        let d = t.durations_ms(span);
        r.metric(name, median(&d), "ms", d.len());
    }
    let refresh = t.durations_ms("ktaud.refresh");
    let p90 = percentile(&refresh, 90.0);
    r.metric("ktaud.refresh_ms_p90", p90, "ms", refresh.len());
    let k = f.ktaud;
    r.metric("ktaud.captures", k.captures as f64, "count", 1);
    r.metric("ktaud.gen_skips", k.gen_skips as f64, "count", 1);
    r.metric(
        "ktaud.unchanged_captures",
        k.unchanged_captures as f64,
        "count",
        1,
    );
    let per_sweep = k.events as f64 / k.sweeps.max(1) as f64;
    r.metric(
        "ktaud.events_per_sweep",
        per_sweep,
        "count",
        k.sweeps as usize,
    );
    let visits = (k.captures + k.gen_skips).max(1) as f64;
    r.metric(
        "ktaud.gen_skip_ratio",
        k.gen_skips as f64 / visits,
        "ratio",
        1,
    );
    let minted = (k.captures - k.unchanged_captures) as f64;
    r.metric(
        "ktaud.capture_yield",
        minted / k.captures.max(1) as f64,
        "ratio",
        1,
    );
    let per_node = k.bytes as f64 / k.node_polls.max(1) as f64;
    r.metric("ktaud.delta_bytes_per_node_sweep", per_node, "B", 1);
    for (span, name) in [
        ("ktas.capture", "ktas.capture_ms"),
        ("ktas.resume", "ktas.resume_ms"),
    ] {
        let d = t.durations_ms(span);
        r.metric(name, median(&d), "ms", d.len());
    }
    r.metric("ktas.image_kib", f.image_kib, "KiB", 1);
    for (span, name) in [
        ("setup.cluster_new", "setup.cluster_new_ms"),
        ("setup.launch", "setup.launch_ms"),
        ("setup.ktaud_install", "setup.ktaud_install_ms"),
    ] {
        let d = t.durations_ms(span);
        r.metric(name, median(&d), "ms", d.len());
    }
    r.metric("mem.rss_after_setup_mb", s.rss_after_setup_mb, "MB", 1);
    r.metric(
        "mem.measurement_bytes_per_node",
        f.measurement_bytes_per_node,
        "B",
        1,
    );
    for (span, name) in [
        ("harvest.extract_run", "harvest.extract_run_ms"),
        ("harvest.state_digest", "harvest.state_digest_ms"),
    ] {
        let d = t.durations_ms(span);
        r.metric(name, median(&d), "ms", d.len());
    }
    let (plain, traced) = (median(&s.run_s_totals()), median(&s.run_s_traced));
    let overhead = 100.0 * (traced - plain) / plain;
    r.metric("trace.overhead_pct", overhead, "%", s.run_s_traced.len());
    r.metric("trace.spans", t.spans().len() as f64, "count", 1);
    r.note("run_s_untraced_median", plain);
    r.note("run_s_traced_median", traced);
    let self_ms: Vec<String> = t
        .self_ms_by_name()
        .iter()
        .map(|(k, v)| format!("{k}={v:.1}"))
        .collect();
    r.note("self_ms_by_span", self_ms.join(" "));
    let path = format!(".bench_out/spans_{}_{}.jsonl", r.workload, r.seed);
    match t.write(std::path::Path::new(&path)) {
        Ok(()) => r.note("spans_file", path),
        Err(e) => r.note("spans_file", format!("not written: {e}")),
    }
}
