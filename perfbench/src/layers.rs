//! Per-layer measurements made through the layers' public functions.
//!
//! Each function times one layer in isolation on inputs taken from the
//! workload that just ran (its node count, a real rank's measurement
//! state, its captured profiles), so the number describes that workload's
//! regime.  Timings are medians over a few passes.

use crate::stats::{median, splitmix64};
use ktau_core::event::{EventId, Group};
use ktau_core::measure::{ProbeEngine, TaskMeasurement};
use ktau_core::snapshot::{
    decode_profile, encode_delta, encode_profile, profile_delta, ProfileSnapshot,
};
use ktau_core::time::NS_PER_SEC;
use ktau_oskern::{Cluster, ClusterSpec, Event, EventQueue, NoiseSpec, Op, OpList, TaskSpec};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 5;

fn time_passes(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..PASSES).map(|_| f()).collect::<Vec<_>>())
}

/// Engine counters of a cluster, for before/after deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Events dispatched from the queue.
    pub dispatched: u64,
    /// Dispatched plus folded ticks plus elided `TxDone`s.
    pub simulated: u64,
    /// Ticks folded by the dynticks engine.
    pub ticks_coalesced: u64,
    /// `TxDone` events replaced by ledger entries.
    pub txdone_elided: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
}

impl EngineCounts {
    /// Reads the counters of `c`.  A resumed cluster starts from the
    /// counters of the cluster it was captured from.
    pub fn of(c: &Cluster) -> Self {
        EngineCounts {
            dispatched: c.events_processed(),
            simulated: c.events_simulated(),
            ticks_coalesced: c.ticks_coalesced(),
            txdone_elided: c.txdone_elided(),
            retransmits: c.total_retransmits(),
        }
    }

    /// Field-wise `self - base`.
    pub fn since(self, base: EngineCounts) -> EngineCounts {
        EngineCounts {
            dispatched: self.dispatched - base.dispatched,
            simulated: self.simulated - base.simulated,
            ticks_coalesced: self.ticks_coalesced - base.ticks_coalesced,
            txdone_elided: self.txdone_elided - base.txdone_elided,
            retransmits: self.retransmits - base.retransmits,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: EngineCounts) -> EngineCounts {
        EngineCounts {
            dispatched: self.dispatched + o.dispatched,
            simulated: self.simulated + o.simulated,
            ticks_coalesced: self.ticks_coalesced + o.ticks_coalesced,
            txdone_elided: self.txdone_elided + o.txdone_elided,
            retransmits: self.retransmits + o.retransmits,
        }
    }

    /// Attaches the counts to the innermost open span.
    pub fn attach(self, t: &mut crate::trace::Tracer) {
        t.count("events_simulated", self.simulated);
        t.count("events_dispatched", self.dispatched);
    }
}

/// `EventQueue` push and pop, ns per call, over a stream addressed to
/// `nodes` nodes with tick-to-second-scale gaps.
pub fn queue_ns(nodes: u32, seed: u64) -> (f64, f64) {
    const N: usize = 1 << 17;
    let mut t = 0u64;
    let mut r = seed;
    let stream: Vec<(u64, Event)> = (0..N)
        .map(|i| {
            r = splitmix64(r);
            t += 1_000 + r % 999_000;
            let ev = Event::CpuDone {
                node: (r >> 32) as u32 % nodes.max(1),
                cpu: (i & 1) as u8,
                gen: i as u64,
            };
            (t, ev)
        })
        .collect();
    let mut pops = Vec::new();
    let push = time_passes(|| {
        let mut q = EventQueue::new();
        let t0 = Instant::now();
        for &(at, ev) in &stream {
            q.push(at, ev);
        }
        let push_ns = t0.elapsed().as_nanos() as f64 / N as f64;
        let t0 = Instant::now();
        while let Some((at, _, ev)) = q.pop_full() {
            q.set_now(at);
            black_box(ev);
        }
        pops.push(t0.elapsed().as_nanos() as f64 / N as f64);
        push_ns
    });
    (push, median(&pops))
}

/// Probe costs at a real task's profile width (the paper's Table 4
/// measure): ns per enabled entry/exit pair, per pair under KTAU-off, per
/// atomic probe and per scheduler-interval probe.  `meas` is cloned so the
/// task is not disturbed; `ids` are the node's kernel event ids.
pub fn probe_ns(meas: &TaskMeasurement, ids: &[EventId]) -> [f64; 4] {
    const N: u64 = 200_000;
    let on = ProbeEngine::prof_all();
    let off = ProbeEngine::new(
        ktau_core::control::InstrumentationControl::ktau_off(),
        ktau_core::control::OverheadModel::default(),
    );
    let ids: Vec<EventId> = if ids.is_empty() {
        vec![EventId(0)]
    } else {
        ids.to_vec()
    };
    let per = |f: &mut dyn FnMut(&mut TaskMeasurement, EventId, u64)| {
        time_passes(|| {
            let mut m = meas.clone();
            let t0 = Instant::now();
            for i in 0..N {
                f(&mut m, ids[i as usize % ids.len()], i * 2);
            }
            black_box(&m);
            t0.elapsed().as_nanos() as f64 / N as f64
        })
    };
    let pair = per(&mut |m, ev, t| {
        black_box(on.kernel_entry(m, ev, Group::Syscall, t));
        black_box(on.kernel_exit(m, ev, Group::Syscall, t + 1));
    });
    let pair_off = per(&mut |m, ev, t| {
        black_box(off.kernel_entry(m, ev, Group::Syscall, t));
        black_box(off.kernel_exit(m, ev, Group::Syscall, t + 1));
    });
    let atomic = per(&mut |m, ev, t| {
        black_box(on.kernel_atomic(m, ev, Group::Tcp, 1460, t));
    });
    let interval = per(&mut |m, ev, t| {
        black_box(on.kernel_interval(m, ev, Group::Scheduler, 100, t));
    });
    [pair, pair_off, atomic, interval]
}

/// Host ns per byte of a 2 MB TCP stream between two otherwise idle nodes,
/// sent and received through `Cluster`.
pub fn stream_ns_per_byte(seed: u64) -> f64 {
    const BYTES: u64 = 2_000_000;
    time_passes(|| {
        let mut spec = ClusterSpec::chiba(2);
        spec.noise = NoiseSpec::silent();
        spec.seed = seed;
        let mut c = Cluster::new(spec);
        let conn = c.open_conn(0, 1);
        let send = Op::Send { conn, bytes: BYTES };
        let recv = Op::Recv { conn, bytes: BYTES };
        c.spawn(0, TaskSpec::app("tx", Box::new(OpList::new(vec![send]))));
        c.spawn(1, TaskSpec::app("rx", Box::new(OpList::new(vec![recv]))));
        let t0 = Instant::now();
        black_box(c.run_until_apps_exit(100 * NS_PER_SEC));
        t0.elapsed().as_nanos() as f64 / BYTES as f64
    })
}

/// The kernel event ids registered on `node`.
pub fn kernel_ids(c: &Cluster, node: u32) -> Vec<EventId> {
    c.node(node)
        .registry
        .iter()
        .filter(|d| d.group.is_kernel())
        .map(|d| d.id)
        .collect()
}

/// `/proc/ktau` costs on the current state: µs per two-phase (size, then
/// read) profile read over every live task of up to 32 nodes, and µs per
/// kernel-wide snapshot of a node.
pub fn procfs_us(c: &Cluster) -> (f64, f64) {
    let now = c.now();
    let nodes: Vec<u32> = (0..c.num_nodes().min(32) as u32).collect();
    let reads: usize = nodes
        .iter()
        .map(|&n| c.node(n).proc_live_pids().len())
        .sum();
    let read = time_passes(|| {
        let t0 = Instant::now();
        for &n in &nodes {
            let node = c.node(n);
            for pid in node.proc_live_pids() {
                let size = node
                    .proc_profile_size(pid, now)
                    .expect("live pid has a profile");
                black_box(node.proc_profile_read(pid, size, now).expect("sized read"));
            }
        }
        t0.elapsed().as_nanos() as f64 / 1e3 / reads.max(1) as f64
    });
    let kws = time_passes(|| {
        let t0 = Instant::now();
        for &n in &nodes {
            black_box(c.node(n).kernel_wide_snapshot(now));
        }
        t0.elapsed().as_nanos() as f64 / 1e3 / nodes.len() as f64
    });
    (read, kws)
}

/// Profiles of every live task on up to 32 nodes, keyed `(node, pid)`.
pub fn capture_profiles(c: &Cluster) -> Vec<((u32, u32), ProfileSnapshot)> {
    let now = c.now();
    let mut out = Vec::new();
    for n in 0..c.num_nodes().min(32) as u32 {
        let node = c.node(n);
        for pid in node.proc_live_pids() {
            if let Ok(p) = node.profile_snapshot(pid, now) {
                out.push(((n, pid.0), p));
            }
        }
    }
    out
}

/// Profile codec over real captures: encode MB/s, decode MB/s, and µs per
/// delta (compute + encode) from each `base` profile to the matching
/// `new` one.
pub fn codec(
    base: &[((u32, u32), ProfileSnapshot)],
    new: &[((u32, u32), ProfileSnapshot)],
) -> (f64, f64, f64) {
    let encoded: Vec<Vec<u8>> = new.iter().map(|(_, p)| encode_profile(p)).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mb = bytes.max(1) as f64 / 1e6;
    let enc = time_passes(|| {
        let t0 = Instant::now();
        for (_, p) in new {
            black_box(encode_profile(p));
        }
        mb / t0.elapsed().as_secs_f64()
    });
    let dec = time_passes(|| {
        let t0 = Instant::now();
        for e in &encoded {
            black_box(decode_profile(e).expect("own encoding decodes"));
        }
        mb / t0.elapsed().as_secs_f64()
    });
    let pairs: Vec<(&ProfileSnapshot, &ProfileSnapshot)> = new
        .iter()
        .filter_map(|(k, p)| base.iter().find(|(b, _)| b == k).map(|(_, b)| (b, p)))
        .collect();
    let delta = time_passes(|| {
        let t0 = Instant::now();
        for (b, p) in &pairs {
            black_box(encode_delta(&profile_delta(b, p, 1, 2)));
        }
        t0.elapsed().as_nanos() as f64 / 1e3 / pairs.len().max(1) as f64
    });
    (enc, dec, delta)
}

/// Arena bytes of every live task's measurement state, per node.
pub fn measurement_bytes_per_node(c: &Cluster) -> f64 {
    let mut total = 0u64;
    for n in 0..c.num_nodes() as u32 {
        let node = c.node(n);
        for pid in node.proc_live_pids() {
            if let Some(t) = node.task(pid) {
                total += t.meas.measurement_bytes() as u64;
            }
        }
    }
    total as f64 / c.num_nodes().max(1) as f64
}

/// The measurement state of the first live app task on node 0 (a real
/// rank), with the node's kernel event ids.
pub fn rank_measurement(c: &Cluster) -> (TaskMeasurement, Vec<EventId>) {
    let node = c.node(0);
    let meas = node
        .proc_live_pids()
        .into_iter()
        .filter_map(|p| node.task(p))
        .find(|t| t.kind == ktau_oskern::TaskKind::App)
        .or_else(|| node.proc_live_pids().first().and_then(|&p| node.task(p)))
        .map(|t| t.meas.clone())
        .unwrap_or_default();
    (meas, kernel_ids(c, 0))
}
