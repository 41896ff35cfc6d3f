//! Job placement and launch: the paper's 128x1 / 64x2 configurations.

use crate::app::{MpiApp, Rank};
use crate::process::{MpiProcess, RetryPolicy};
use ktau_oskern::{BlockedOn, Cluster, Pid, TaskSpec, TaskState};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Where one rank runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Node index.
    pub node: u32,
    /// Optional CPU pin.
    pub pin: Option<u8>,
}

/// A rank→node mapping for a whole job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Placement of each rank, indexed by rank.
    pub places: Vec<Placement>,
}

impl Layout {
    /// `nodes` ranks, one per node, unpinned (the paper's `128x1`).
    pub fn one_per_node(nodes: u32) -> Self {
        Layout {
            places: (0..nodes)
                .map(|n| Placement { node: n, pin: None })
                .collect(),
        }
    }

    /// `ranks` ranks distributed cyclically over `nodes` nodes, unpinned
    /// (the paper's `64x2` when `ranks == 2 * nodes`): rank `r` runs on node
    /// `r % nodes`, so ranks 61 and 125 share node 61 in a 128-rank job on
    /// 64 nodes — the pairing behind the paper's anomaly investigation.
    pub fn cyclic(nodes: u32, ranks: u32) -> Self {
        Layout {
            places: (0..ranks)
                .map(|r| Placement {
                    node: r % nodes,
                    pin: None,
                })
                .collect(),
        }
    }

    /// Pins every rank to CPU `(rank / nodes)` of its node: with cyclic
    /// placement this is one rank per CPU (the paper's `64x2 Pinned`).
    pub fn pinned(mut self, nodes: u32) -> Self {
        for (r, p) in self.places.iter_mut().enumerate() {
            p.pin = Some((r as u32 / nodes) as u8);
        }
        self
    }

    /// Pins every rank to one specific CPU (the paper's `128x1 Pin` variant).
    pub fn pinned_to(mut self, cpu: u8) -> Self {
        for p in self.places.iter_mut() {
            p.pin = Some(cpu);
        }
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.places.len() as u32
    }

    /// Ranks placed on a given node.
    pub fn ranks_on(&self, node: u32) -> Vec<Rank> {
        self.places
            .iter()
            .enumerate()
            .filter(|(_, p)| p.node == node)
            .map(|(r, _)| Rank(r as u32))
            .collect()
    }
}

/// A launched job: where each rank lives, for post-run profile collection.
#[derive(Debug, Clone)]
pub struct JobHandle {
    /// The layout the job ran with.
    pub layout: Layout,
    /// `(node, pid)` of each rank, indexed by rank.
    pub tasks: Vec<(u32, Pid)>,
    /// Connection carrying `(from, to)` traffic, as opened by [`launch`];
    /// lets post-run diagnostics attribute socket state to rank pairs.
    pub conns: HashMap<(Rank, Rank), ktau_net::ConnId>,
}

impl JobHandle {
    /// `(node, pid)` of one rank.
    pub fn rank_task(&self, rank: Rank) -> (u32, Pid) {
        self.tasks[rank.0 as usize]
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.tasks.len() as u32
    }

    /// Iterates `(rank, node, pid)`.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, u32, Pid)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(r, &(n, p))| (Rank(r as u32), n, p))
    }
}

/// Launches an SPMD job: one [`MpiApp`] per rank (the `apps` vector length
/// defines the job size and must match the layout), a full mesh of
/// connections, and one process per rank named `{name}.{rank}`.
pub fn launch(
    cluster: &mut Cluster,
    name: &str,
    layout: &Layout,
    apps: Vec<Box<dyn MpiApp>>,
) -> JobHandle {
    launch_with_retry(cluster, name, layout, apps, None)
}

/// [`launch`] with an optional [`RetryPolicy`] applied to every rank's eager
/// sends, so jobs on faulty fabrics abort cleanly instead of hanging in
/// `sys_writev` forever.
pub fn launch_with_retry(
    cluster: &mut Cluster,
    name: &str,
    layout: &Layout,
    apps: Vec<Box<dyn MpiApp>>,
    retry: Option<RetryPolicy>,
) -> JobHandle {
    assert_eq!(
        apps.len() as u32,
        layout.size(),
        "one app per rank required"
    );
    let size = layout.size();
    for p in &layout.places {
        assert!(
            (p.node as usize) < cluster.num_nodes(),
            "layout references node {} beyond cluster",
            p.node
        );
    }
    // Full mesh of simplex connections.
    let mut conn = HashMap::new();
    for a in 0..size {
        for b in 0..size {
            if a == b {
                continue;
            }
            let id = cluster.open_conn(
                layout.places[a as usize].node,
                layout.places[b as usize].node,
            );
            conn.insert((Rank(a), Rank(b)), id);
        }
    }
    let mut tasks = Vec::with_capacity(size as usize);
    for (r, app) in apps.into_iter().enumerate() {
        let rank = Rank(r as u32);
        let place = layout.places[r];
        let tx: HashMap<Rank, ktau_net::ConnId> = (0..size)
            .filter(|&b| b != rank.0)
            .map(|b| (Rank(b), conn[&(rank, Rank(b))]))
            .collect();
        let rx: HashMap<Rank, ktau_net::ConnId> = (0..size)
            .filter(|&b| b != rank.0)
            .map(|b| (Rank(b), conn[&(Rank(b), rank)]))
            .collect();
        let mut proc = MpiProcess::new(rank, size, app, tx, rx);
        if let Some(policy) = retry {
            proc = proc.with_send_retry(policy);
        }
        let mut spec = TaskSpec::app(format!("{name}.{r}"), Box::new(proc));
        if let Some(cpu) = place.pin {
            spec = spec.pinned(cpu);
        }
        let pid = cluster.spawn(place.node, spec);
        tasks.push((place.node, pid));
    }
    JobHandle {
        layout: layout.clone(),
        tasks,
        conns: conn,
    }
}

/// Ranks whose task has not exited (still running, runnable, or blocked).
pub fn stuck_ranks(cluster: &Cluster, job: &JobHandle) -> Vec<Rank> {
    job.iter()
        .filter(|&(_, node, pid)| {
            cluster
                .node(node)
                .task(pid)
                .map(|t| t.state != TaskState::Dead)
                .unwrap_or(false)
        })
        .map(|(r, _, _)| r)
        .collect()
}

/// Human-readable diagnosis of a wedged or degraded job: names every rank
/// that is still stuck (with what it is blocked on and the socket state of
/// the connection involved) and every rank that aborted with an error
/// (e.g. a timed send that exhausted its retry budget).
///
/// Returns `"all ranks finished cleanly"` when there is nothing to report.
pub fn diagnose(cluster: &Cluster, job: &JobHandle) -> String {
    let mut out = String::new();
    let stuck = stuck_ranks(cluster, job);
    for (rank, node, pid) in job.iter() {
        let Some(task) = cluster.node(node).task(pid) else {
            continue;
        };
        let is_stuck = stuck.contains(&rank);
        let aborted = task.state == TaskState::Dead && task.last_error.is_some();
        if !is_stuck && !aborted {
            continue;
        }
        let _ = write!(
            out,
            "{rank} ({}, pid {}, node {node}): {:?}",
            task.comm, pid.0, task.state
        );
        if let Some(b) = task.blocked_on {
            let _ = write!(out, " on {b:?}");
        }
        if let Some(err) = &task.last_error {
            let _ = write!(out, " — {err}");
        }
        out.push('\n');
        // Socket state of the connection the rank is wedged on, plus any
        // peer connection with residual traffic, attributed to rank pairs.
        let mut pairs: Vec<_> = job.conns.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_by_key(|&(pair, _)| pair);
        for ((from, to), conn) in pairs {
            if from == rank {
                let Some(tx) = cluster.tx_conn_stats(conn) else {
                    continue;
                };
                let blocked_here = task.blocked_on == Some(BlockedOn::TxSpace(conn));
                if blocked_here || tx.in_flight > 0 || tx.unacked > 0 || tx.retransmits > 0 {
                    let _ = writeln!(
                        out,
                        "  tx {from}->{to} conn {}: in_flight={} free={} unacked={} \
                         retransmits={} timer_fires={}",
                        conn.0, tx.in_flight, tx.free, tx.unacked, tx.retransmits, tx.timer_fires
                    );
                }
            } else if to == rank {
                let Some(rx) = cluster.rx_conn_stats(conn) else {
                    continue;
                };
                let blocked_here = task.blocked_on == Some(BlockedOn::RxData(conn));
                if blocked_here
                    || rx.available > 0
                    || rx.buffered_segments > 0
                    || rx.refused_segments > 0
                {
                    let _ = writeln!(
                        out,
                        "  rx {from}->{to} conn {}: available={} expected_seq={} buffered={} \
                         refused={} duplicates={}",
                        conn.0,
                        rx.available,
                        rx.expected_seq,
                        rx.buffered_segments,
                        rx.refused_segments,
                        rx.duplicate_segments
                    );
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("all ranks finished cleanly");
    } else {
        out.insert_str(
            0,
            &format!(
                "{} of {} ranks stuck at t={} ns:\n",
                stuck.len(),
                job.size(),
                cluster.now()
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_node_is_identity() {
        let l = Layout::one_per_node(4);
        assert_eq!(l.size(), 4);
        assert_eq!(l.places[3], Placement { node: 3, pin: None });
    }

    #[test]
    fn cyclic_pairs_r_and_r_plus_nodes() {
        let l = Layout::cyclic(64, 128);
        assert_eq!(l.places[61].node, 61);
        assert_eq!(l.places[125].node, 61);
        assert_eq!(l.ranks_on(61), vec![Rank(61), Rank(125)]);
    }

    #[test]
    fn pinned_spreads_over_cpus() {
        let l = Layout::cyclic(64, 128).pinned(64);
        assert_eq!(l.places[61].pin, Some(0));
        assert_eq!(l.places[125].pin, Some(1));
    }

    #[test]
    fn pinned_to_forces_one_cpu() {
        let l = Layout::one_per_node(8).pinned_to(1);
        assert!(l.places.iter().all(|p| p.pin == Some(1)));
    }

    #[test]
    fn diagnose_names_stuck_rank_and_socket_state() {
        use crate::app::{MpiOp, MpiOpList};
        use ktau_oskern::ClusterSpec;
        let mut cluster = ktau_oskern::Cluster::new(ClusterSpec::chiba(2));
        // Rank 0 waits for a message rank 1 never sends: a classic wedge.
        let apps: Vec<Box<dyn MpiApp>> = vec![
            Box::new(MpiOpList::new(vec![MpiOp::Recv {
                from: Rank(1),
                bytes: 4_096,
            }])),
            Box::new(MpiOpList::new(vec![])),
        ];
        let job = launch(&mut cluster, "wedge", &Layout::one_per_node(2), apps);
        cluster.run_for(5_000_000_000);
        assert_eq!(stuck_ranks(&cluster, &job), vec![Rank(0)]);
        let report = diagnose(&cluster, &job);
        assert!(report.contains("rank0"), "{report}");
        assert!(report.contains("RxData"), "{report}");
        assert!(report.contains("rx rank1->rank0"), "{report}");
        assert!(report.contains("1 of 2 ranks stuck"), "{report}");
    }

    #[test]
    fn diagnose_is_quiet_after_clean_finish() {
        use crate::app::{MpiOp, MpiOpList};
        use ktau_oskern::ClusterSpec;
        let mut cluster = ktau_oskern::Cluster::new(ClusterSpec::chiba(2));
        let apps: Vec<Box<dyn MpiApp>> = vec![
            Box::new(MpiOpList::new(vec![MpiOp::Send {
                to: Rank(1),
                bytes: 4_096,
            }])),
            Box::new(MpiOpList::new(vec![MpiOp::Recv {
                from: Rank(0),
                bytes: 4_096,
            }])),
        ];
        let job = launch(&mut cluster, "ok", &Layout::one_per_node(2), apps);
        cluster.run_until_apps_exit(3_600_000_000_000);
        assert!(stuck_ranks(&cluster, &job).is_empty());
        assert_eq!(diagnose(&cluster, &job), "all ranks finished cleanly");
    }
}
