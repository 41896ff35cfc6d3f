//! Fault-injection scenarios: deterministic link faults and node
//! degradation, validated through KTAU's own views.
//!
//! The headline scenario is **flaky-link LU-16**: a 16-rank LU job on a
//! 16-node Chiba-like cluster where every link touching one node silently
//! drops, duplicates, and delay-spikes segments.  The anomaly must surface
//! the same way the paper's §5.1 anomalies do — in the Fig-2-style
//! kernel-wide view (per-node `tcp_retransmit_timer` activity) and in the
//! process-centric view of the flaky node (which process the softirq time
//! was charged to).

use ktau_core::time::{Ns, NS_PER_SEC};
use ktau_mpi::{launch_with_retry, stuck_ranks, JobHandle, Layout, RetryPolicy};
use ktau_net::{FaultPlan, FaultSpec};
use ktau_oskern::{probe_names, Cluster, ClusterSpec};
use ktau_workloads::LuParams;

/// The node whose links are flaky in [`run_flaky_link_lu16`].
pub const FLAKY_NODE: u32 = 5;

/// A node with no LU-neighbour or dissemination partner relationship to
/// [`FLAKY_NODE`] in the 16-rank job: its links carry no faulted traffic,
/// so it must show zero retransmission activity.
pub const QUIET_NODE: u32 = 15;

/// Fault plan used by the flaky-link scenario: 5% drops, 1% duplicates,
/// 2% delay spikes on every link touching [`FLAKY_NODE`], with a 5 ms RTO
/// (the fabric RTT is a few hundred µs).
pub fn flaky_link_plan() -> FaultPlan {
    FaultPlan::flaky_node(
        0xF1AC_C1E5,
        FLAKY_NODE,
        FaultSpec {
            drop_prob: 0.05,
            dup_prob: 0.01,
            delay_prob: 0.02,
            delay_ns: 300_000,
            onset_ns: 0,
            rto_ns: 5_000_000,
        },
    )
}

/// Everything the flaky-link run exposes, ready for rendering and checks.
pub struct FlakyLinkOutcome {
    /// Virtual execution time of the job.
    pub exec_ns: Ns,
    /// Per-node kernel-wide `tcp_retransmit_timer` firing counts
    /// (the Fig-2-A-style view that localizes the anomaly to a node).
    pub node_timer_counts: Vec<u64>,
    /// Per-node total retransmitted segments (sender side).
    pub node_retransmits: Vec<u64>,
    /// `(comm, timer count)` per process on the flaky node — the
    /// Fig-2-B-style process-centric view showing who the softirq time
    /// was charged to.
    pub flaky_node_procs: Vec<(String, u64)>,
    /// `(from, to, retransmits)` per connection that retransmitted.
    pub link_retransmits: Vec<(u32, u32, u64)>,
    /// Ranks that never finished (must be empty).
    pub stuck: Vec<u32>,
    /// The job handle.
    pub job: JobHandle,
    /// Finished cluster, for further inspection.
    pub cluster: Cluster,
}

/// Runs the flaky-link LU-16 scenario: deterministic for a fixed plan seed,
/// so the retransmit counts below are reproducible run to run.
pub fn run_flaky_link_lu16() -> FlakyLinkOutcome {
    let nodes = 16u32;
    let mut spec = ClusterSpec::chiba(nodes as usize);
    spec.fault_plan = flaky_link_plan();
    // Exercise the bounded receive queue (DESIGN.md §2 row 6) as well.
    spec.rcvbuf_bytes = Some(256 * 1024);
    let mut cluster = Cluster::new(spec);
    let params = LuParams::tiny(4, 4);
    let job = launch_with_retry(
        &mut cluster,
        "lu.flaky.16",
        &Layout::one_per_node(nodes),
        params.apps(),
        Some(RetryPolicy {
            timeout_ns: NS_PER_SEC,
            max_retries: 3,
        }),
    );
    let exec_ns = cluster.run_until_apps_exit(3_600 * NS_PER_SEC);
    let now = cluster.now();

    let node_timer_counts = (0..nodes)
        .map(|n| {
            cluster
                .node(n)
                .kernel_wide_snapshot(now)
                .kernel_event(probe_names::TCP_RETRANSMIT_TIMER)
                .map(|r| r.stats.count)
                .unwrap_or(0)
        })
        .collect();
    let node_retransmits = (0..nodes)
        .map(|n| cluster.node(n).total_retransmits())
        .collect();
    let flaky_node_procs = {
        let n = cluster.node(FLAKY_NODE);
        n.pids()
            .into_iter()
            .filter_map(|pid| {
                let comm = n.task(pid)?.comm.clone();
                let count = n
                    .profile_snapshot(pid, now)
                    .ok()?
                    .kernel_event(probe_names::TCP_RETRANSMIT_TIMER)
                    .map(|r| r.stats.count)
                    .unwrap_or(0);
                Some((comm, count))
            })
            .collect()
    };
    let mut link_retransmits: Vec<(u32, u32, u64)> = job
        .conns
        .iter()
        .filter_map(|(&(from, to), &conn)| {
            let stats = cluster.tx_conn_stats(conn)?;
            (stats.retransmits > 0).then_some((from.0, to.0, stats.retransmits))
        })
        .collect();
    link_retransmits.sort();
    let stuck = stuck_ranks(&cluster, &job).iter().map(|r| r.0).collect();
    FlakyLinkOutcome {
        exec_ns,
        node_timer_counts,
        node_retransmits,
        flaky_node_procs,
        link_retransmits,
        stuck,
        job,
        cluster,
    }
}

impl FlakyLinkOutcome {
    /// Total segments retransmitted across the cluster.
    pub fn total_retransmits(&self) -> u64 {
        self.node_retransmits.iter().sum()
    }

    /// Asserts the scenario's expected shape; returns every violated
    /// expectation (empty = the anomaly surfaced exactly where it should).
    pub fn check(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        if !self.stuck.is_empty() {
            errs.push(format!("ranks never finished: {:?}", self.stuck));
        }
        if self.total_retransmits() == 0 {
            errs.push("flaky links produced no retransmissions".into());
        }
        // Retransmissions must be confined to links touching the flaky
        // node — anything else means the injector leaked onto clean links.
        for &(from, to, n) in &self.link_retransmits {
            if from != FLAKY_NODE && to != FLAKY_NODE {
                errs.push(format!(
                    "clean link {from}->{to} retransmitted {n} segments"
                ));
            }
        }
        // The kernel-wide view must localize the anomaly: timer activity
        // on the flaky node, none on a node with no faulted traffic.
        if self.node_timer_counts[FLAKY_NODE as usize] == 0 {
            errs.push(format!(
                "kernel-wide view shows no tcp_retransmit_timer activity on node {FLAKY_NODE}"
            ));
        }
        if self.node_timer_counts[QUIET_NODE as usize] != 0 {
            errs.push(format!(
                "uninvolved node {QUIET_NODE} shows {} timer firings",
                self.node_timer_counts[QUIET_NODE as usize]
            ));
        }
        // The process-centric view of the flaky node must show the softirq
        // re-entry charged to someone (rank or interrupted bystander).
        if self.flaky_node_procs.iter().map(|(_, c)| c).sum::<u64>() == 0 {
            errs.push(format!(
                "no process on node {FLAKY_NODE} was charged tcp_retransmit_timer time"
            ));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Renders the Fig-2-style views as terminal bargraphs.
    pub fn render(&self) -> String {
        let node_rows: Vec<(String, f64)> = self
            .node_timer_counts
            .iter()
            .enumerate()
            .map(|(n, &c)| (format!("ccn{n}"), c as f64))
            .collect();
        let proc_rows: Vec<(String, f64)> = self
            .flaky_node_procs
            .iter()
            .map(|(comm, c)| (comm.clone(), *c as f64))
            .collect();
        let mut out = String::new();
        out.push_str(&ktau_analysis::bargraph(
            "Kernel-wide view: tcp_retransmit_timer firings per node",
            &node_rows,
            "count",
        ));
        out.push('\n');
        out.push_str(&ktau_analysis::bargraph(
            &format!("Process-centric view: node {FLAKY_NODE} timer charges per process"),
            &proc_rows,
            "count",
        ));
        out.push('\n');
        out.push_str(&format!(
            "exec {:.3} s, {} segments retransmitted on {} links\n",
            self.exec_ns as f64 / NS_PER_SEC as f64,
            self.total_retransmits(),
            self.link_retransmits.len()
        ));
        for &(from, to, n) in &self.link_retransmits {
            out.push_str(&format!("  link {from}->{to}: {n} retransmits\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktau_mpi::launch;

    #[test]
    fn flaky_links_retransmit_and_clean_links_do_not() {
        let mut spec = ClusterSpec::chiba(4);
        spec.fault_plan = FaultPlan::flaky_node(7, 1, FaultSpec::drops(0.2));
        let mut cluster = Cluster::new(spec);
        let params = LuParams::tiny(2, 2);
        let job = launch(&mut cluster, "lu", &Layout::one_per_node(4), params.apps());
        cluster.run_until_apps_exit(3_600 * NS_PER_SEC);
        assert!(cluster.total_retransmits() > 0, "no drops were repaired");
        for (&(from, to), &conn) in &job.conns {
            let Some(stats) = cluster.tx_conn_stats(conn) else {
                continue;
            };
            if from.0 != 1 && to.0 != 1 {
                assert_eq!(
                    stats.retransmits, 0,
                    "clean link {from}->{to} retransmitted"
                );
            }
        }
    }
}
