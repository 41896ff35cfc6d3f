//! Cluster interconnect: connection endpoints and propagation latency.
//!
//! The fabric is a lossless, FIFO-per-connection switched Ethernet.  It maps
//! every [`ConnId`] to its `(source node, destination node)` pair and
//! answers "when does a segment that left the source NIC at `t` arrive at
//! the destination NIC?".
//!
//! It also indexes each node's socket slabs: a node keeps state only for the
//! endpoints it owns, densely in `ConnId` order, and a connection's record
//! carries its slot in the source node's send slab and in the destination
//! node's receive slab.  Socket state is thus O(connections) cluster-wide
//! while every lookup stays one array index.

use crate::socket::ConnId;
use crate::Ns;

/// Static description of one simplex connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Sending node index.
    pub src_node: u32,
    /// Receiving node index.
    pub dst_node: u32,
}

impl LinkSpec {
    /// True when both endpoints are the same node (localhost).
    pub fn is_loopback(&self) -> bool {
        self.src_node == self.dst_node
    }
}

/// One open connection: its endpoints plus its slots in the endpoint nodes'
/// socket slabs.  The slots follow from the order connections were opened
/// in, so they are derived, never persisted.
#[derive(Debug, Clone, Copy)]
struct Link {
    spec: LinkSpec,
    /// Index in the source node's send slab.
    tx_slot: u32,
    /// Index in the destination node's receive slab.
    rx_slot: u32,
}

/// The cluster interconnect.
#[derive(Debug, Clone)]
pub struct Fabric {
    links: Vec<Link>,
    /// Send endpoints per node (the next `tx_slot` each node hands out).
    tx_count: Vec<u32>,
    /// Receive endpoints per node.
    rx_count: Vec<u32>,
    /// One-way propagation + switching latency.
    latency_ns: Ns,
}

/// Takes the next slot of `node` from a per-node counter table.
fn next_slot(count: &mut Vec<u32>, node: u32) -> u32 {
    let i = node as usize;
    if i >= count.len() {
        count.resize(i + 1, 0);
    }
    count[i] += 1;
    count[i] - 1
}

impl Fabric {
    /// A fabric with the given one-way latency.
    pub fn new(latency_ns: Ns) -> Self {
        Fabric {
            links: Vec::new(),
            tx_count: Vec::new(),
            rx_count: Vec::new(),
            latency_ns,
        }
    }

    /// Registers a new simplex connection and returns its id.  Loopback
    /// (`src == dst`) is allowed: such connections bypass the NIC and hard
    /// IRQ in the kernel model.  The connection takes the next free slot in
    /// the source node's send slab and the destination node's receive slab.
    pub fn open(&mut self, src_node: u32, dst_node: u32) -> ConnId {
        let id = ConnId(self.links.len() as u32);
        let tx_slot = next_slot(&mut self.tx_count, src_node);
        let rx_slot = next_slot(&mut self.rx_count, dst_node);
        self.links.push(Link {
            spec: LinkSpec { src_node, dst_node },
            tx_slot,
            rx_slot,
        });
        id
    }

    /// The endpoints of a connection.
    pub fn link(&self, conn: ConnId) -> LinkSpec {
        self.links[conn.0 as usize].spec
    }

    /// The endpoints of a connection, or `None` for an id never opened.
    pub fn get(&self, conn: ConnId) -> Option<LinkSpec> {
        self.links.get(conn.0 as usize).map(|l| l.spec)
    }

    /// The connection's slot in `node`'s send slab, or `None` unless the
    /// connection is open and sends from `node`.
    #[inline]
    pub fn tx_slot(&self, conn: ConnId, node: u32) -> Option<usize> {
        match self.links.get(conn.0 as usize) {
            Some(l) if l.spec.src_node == node => Some(l.tx_slot as usize),
            _ => None,
        }
    }

    /// The connection's slot in `node`'s receive slab, or `None` unless the
    /// connection is open and receives on `node`.
    #[inline]
    pub fn rx_slot(&self, conn: ConnId, node: u32) -> Option<usize> {
        match self.links.get(conn.0 as usize) {
            Some(l) if l.spec.dst_node == node => Some(l.rx_slot as usize),
            _ => None,
        }
    }

    /// Number of connections sending from `node`: the length of its send
    /// slab.
    pub fn tx_endpoints(&self, node: u32) -> usize {
        self.tx_count.get(node as usize).map_or(0, |&n| n as usize)
    }

    /// Number of connections receiving on `node`: the length of its receive
    /// slab.
    pub fn rx_endpoints(&self, node: u32) -> usize {
        self.rx_count.get(node as usize).map_or(0, |&n| n as usize)
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// One-way latency.
    pub fn latency_ns(&self) -> Ns {
        self.latency_ns
    }

    /// All open connections in id order, for engine snapshots.
    pub fn links(&self) -> impl ExactSizeIterator<Item = LinkSpec> + '_ {
        self.links.iter().map(|l| l.spec)
    }

    /// Rebuilds a fabric by reopening `links` in order (`links[i]` becomes
    /// `ConnId(i)`), for engine snapshots; the slab slots are re-derived
    /// exactly as [`Fabric::open`] assigned them.
    pub fn from_links(latency_ns: Ns, links: &[LinkSpec]) -> Self {
        let mut f = Fabric::new(latency_ns);
        f.links.reserve_exact(links.len());
        for l in links {
            f.open(l.src_node, l.dst_node);
        }
        f
    }

    /// Arrival time at the destination NIC for a segment whose last bit left
    /// the source NIC at `departed`.
    pub fn arrival(&self, departed: Ns) -> Ns {
        departed + self.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_assigns_sequential_conn_ids() {
        let mut f = Fabric::new(75_000);
        let a = f.open(0, 1);
        let b = f.open(1, 0);
        assert_eq!((a, b), (ConnId(0), ConnId(1)));
        assert_eq!(
            f.link(a),
            LinkSpec {
                src_node: 0,
                dst_node: 1
            }
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn slots_are_dense_per_node_and_survive_from_links() {
        let mut f = Fabric::new(0);
        let a = f.open(0, 1);
        let b = f.open(2, 1);
        let c = f.open(0, 0);
        assert_eq!(f.tx_slot(a, 0), Some(0));
        assert_eq!(f.tx_slot(b, 2), Some(0));
        assert_eq!(f.tx_slot(c, 0), Some(1));
        assert_eq!(f.rx_slot(a, 1), Some(0));
        assert_eq!(f.rx_slot(b, 1), Some(1));
        assert_eq!(f.rx_slot(c, 0), Some(0));
        // Only the owning node resolves an endpoint; unopened ids never do.
        assert_eq!(f.tx_slot(a, 1), None);
        assert_eq!(f.rx_slot(a, 0), None);
        assert_eq!(f.tx_slot(ConnId(3), 0), None);
        assert_eq!(f.get(ConnId(3)), None);
        assert_eq!((f.tx_endpoints(0), f.rx_endpoints(1)), (2, 2));
        assert_eq!((f.tx_endpoints(1), f.rx_endpoints(9)), (0, 0));
        let links: Vec<LinkSpec> = f.links().collect();
        let g = Fabric::from_links(0, &links);
        for conn in [a, b, c] {
            let l = f.link(conn);
            assert_eq!(g.link(conn), l);
            assert_eq!(g.tx_slot(conn, l.src_node), f.tx_slot(conn, l.src_node));
            assert_eq!(g.rx_slot(conn, l.dst_node), f.rx_slot(conn, l.dst_node));
        }
    }

    #[test]
    fn arrival_adds_latency() {
        let f = Fabric::new(75_000);
        assert_eq!(f.arrival(1_000), 76_000);
    }

    #[test]
    fn loopback_allowed() {
        let mut f = Fabric::new(0);
        let c = f.open(3, 3);
        assert!(f.link(c).is_loopback());
    }
}
