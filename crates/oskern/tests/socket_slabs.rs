//! Socket state is O(connections): each node keeps state only for the
//! connection endpoints it owns, every connection resolves to its own state
//! through the cluster, and engine images grow with connections, not with
//! nodes × connections.

use ktau_core::time::NS_PER_SEC;
use ktau_net::{ConnId, FaultPlan, FaultSpec, LinkMatch};
use ktau_oskern::{Cluster, ClusterSpec, NoiseSpec, Op, OpList, TaskSpec};

/// The node that also holds a loopback connection.
const LOOP_NODE: u32 = 2;

fn lossy_plan(src: u32, dst: u32) -> FaultPlan {
    FaultPlan::new(0x51AB).with_rule(
        LinkMatch::Between(src, dst),
        FaultSpec {
            drop_prob: 0.3,
            rto_ns: 2_000_000,
            ..Default::default()
        },
    )
}

/// `nodes` quiet Chiba nodes with link 0→1 lossy.
fn spec(nodes: usize) -> ClusterSpec {
    let mut s = ClusterSpec::chiba(nodes);
    s.noise = NoiseSpec::silent();
    s.fault_plan = lossy_plan(0, 1);
    s
}

/// Opens a full mesh in `(src, dst)` order, then one loopback connection;
/// returns each connection with its sending node.
fn open_mesh(c: &mut Cluster, nodes: u32) -> Vec<(ConnId, u32)> {
    let mut conns = Vec::new();
    for src in 0..nodes {
        for dst in (0..nodes).filter(|&d| d != src) {
            conns.push((c.open_conn(src, dst), src));
        }
    }
    conns.push((c.open_conn(LOOP_NODE, LOOP_NODE), LOOP_NODE));
    conns
}

/// Bytes written on `conn`: distinct per connection, so reading back the
/// wrong connection's state shows.
fn bytes_on(conn: ConnId) -> u64 {
    100 + conn.0 as u64
}

fn assert_owned_endpoints(c: &Cluster, nodes: u32, conns: &[(ConnId, u32)]) {
    let sndbuf = c.spec().sndbuf_bytes;
    for node in 0..nodes {
        let own = (nodes - 1 + (node == LOOP_NODE) as u32) as usize;
        assert_eq!(
            c.node(node).socket_endpoints(),
            (own, own),
            "node {node} holds state for foreign endpoints"
        );
    }
    for &(conn, _) in conns {
        let rx = c.rx_conn_stats(conn).expect("open conn has an rx end");
        // Nobody reads, so everything sent is still queued at the receiver.
        assert_eq!(rx.available, bytes_on(conn), "{conn} rx");
        let tx = c.tx_conn_stats(conn).expect("open conn has a tx end");
        // The dynticks engine releases NIC-serialized bytes lazily, before
        // the next reservation on the connection; each connection carries
        // one write, so its sndbuf still accounts for exactly those bytes.
        assert_eq!(
            (tx.in_flight, tx.free),
            (bytes_on(conn), sndbuf - bytes_on(conn)),
            "{conn} tx"
        );
        assert_eq!(tx.unacked, 0, "{conn} left data unrepaired");
        if conn != conns[0].0 {
            assert_eq!(tx.retransmits, 0, "clean {conn} retransmitted");
        }
    }
    for unopened in [ConnId(conns.len() as u32), ConnId(u32::MAX)] {
        assert_eq!(c.tx_conn_stats(unopened), None);
        assert_eq!(c.rx_conn_stats(unopened), None);
    }
}

#[test]
fn each_node_holds_only_its_own_endpoints() {
    const NODES: u32 = 32;
    let mut c = Cluster::new(spec(NODES as usize));
    let conns = open_mesh(&mut c, NODES);
    // One writer per node, one write per outgoing connection.
    for node in 0..NODES {
        let ops = conns
            .iter()
            .filter(|&&(_, src)| src == node)
            .map(|&(conn, _)| Op::Send {
                conn,
                bytes: bytes_on(conn),
            })
            .collect();
        c.spawn(node, TaskSpec::app("writer", Box::new(OpList::new(ops))));
    }
    c.run_for(2 * NS_PER_SEC);
    assert_eq!(c.apps_exited(), NODES as u64, "a writer never finished");
    assert!(
        c.tx_conn_stats(conns[0].0).unwrap().retransmits > 0,
        "the lossy link never retransmitted"
    );
    assert_owned_endpoints(&c, NODES, &conns);

    let mut resumed = Cluster::resume(&c.snapshot()).expect("resume");
    assert_owned_endpoints(&resumed, NODES, &conns);
    // Move the fault to the reverse link: both ends of every connection
    // are reached through the fabric's slots.
    resumed.install_fault_plan(lossy_plan(1, 0));
    assert_owned_endpoints(&resumed, NODES, &conns);
    let (reverse, _) = conns[NODES as usize - 1];
    assert_eq!(
        resumed.node(1).socket_endpoints(),
        (NODES as usize - 1, NODES as usize - 1)
    );
    assert_eq!(resumed.tx_conn_stats(reverse).unwrap().retransmits, 0);
}

/// Image bytes each mesh connection adds.
fn image_bytes_per_conn(nodes: u32) -> f64 {
    let bare = Cluster::new(spec(nodes as usize)).snapshot().image().len();
    let mut c = Cluster::new(spec(nodes as usize));
    let conns = open_mesh(&mut c, nodes);
    let meshed = c.snapshot().image().len();
    (meshed - bare) as f64 / conns.len() as f64
}

#[test]
fn image_bytes_per_connection_do_not_grow_with_nodes() {
    let (small, large) = (image_bytes_per_conn(16), image_bytes_per_conn(32));
    assert!(
        (large / small - 1.0).abs() <= 0.1,
        "{small:.1} B/conn at 16 nodes, {large:.1} B/conn at 32"
    );
}

#[test]
#[should_panic(expected = "open_conn(0, 2): the cluster has 2 nodes")]
fn open_conn_rejects_a_node_outside_the_cluster() {
    let mut c = Cluster::new(spec(2));
    c.open_conn(0, 2);
}

#[test]
fn rejected_open_conn_registers_nothing() {
    let mut c = Cluster::new(spec(2));
    let rejected =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.open_conn(3, 0))).is_err();
    assert!(rejected);
    assert_eq!(c.tx_conn_stats(ConnId(0)), None);
    assert_eq!(c.open_conn(0, 1), ConnId(0));
    assert_eq!(c.node(0).socket_endpoints(), (1, 0));
    assert_eq!(c.node(1).socket_endpoints(), (0, 1));
}
