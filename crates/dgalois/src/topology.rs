//! Master/mirror topology of a partitioned graph.

use mrbc_graph::{CsrGraph, VertexId};
use mrbc_util::DenseBitset;

/// Host identifier (the paper scales to 256 hosts; `u16` is ample).
pub type HostId = u16;

/// Host-local vertex identifier.
pub type LocalId = u32;

/// Sentinel: "this global vertex has no proxy on that host".
pub const NO_LOCAL: LocalId = LocalId::MAX;

/// One host's share of the partitioned graph.
#[derive(Clone, Debug)]
pub struct HostTopology {
    /// Local out-edge CSR over local ids (exactly the global edges
    /// assigned to this host).
    pub graph: CsrGraph,
    /// Local in-edge CSR (transpose of `graph`).
    pub in_graph: CsrGraph,
    /// Local id → global id.
    pub global_of_local: Vec<VertexId>,
    /// Bit `l` set iff local vertex `l` is the master proxy.
    pub masters: DenseBitset,
}

impl HostTopology {
    /// Number of proxies on this host.
    pub fn num_proxies(&self) -> usize {
        self.global_of_local.len()
    }
}

/// A graph partitioned over `num_hosts` hosts.
///
/// Invariants (validated by [`DistGraph::check_invariants`], which the
/// partition tests call on every policy):
///
/// 1. Every global edge appears on exactly one host.
/// 2. Every global vertex has exactly one master proxy, on `owner[v]`.
/// 3. `mirror_hosts[v]` lists exactly the non-owner hosts with a proxy.
/// 4. Local/global id maps are mutually inverse.
#[derive(Clone, Debug)]
pub struct DistGraph {
    /// Number of hosts.
    pub num_hosts: usize,
    /// Global vertex count.
    pub num_global_vertices: usize,
    /// Global edge count.
    pub num_global_edges: usize,
    /// Per-host subgraphs.
    pub hosts: Vec<HostTopology>,
    /// Global id → owning host.
    pub owner: Vec<HostId>,
    /// Per host: global id → local id (or [`NO_LOCAL`]).
    local_of_global: Vec<Vec<LocalId>>,
    /// Global id → hosts (≠ owner) holding a mirror proxy.
    mirror_hosts: Vec<Vec<HostId>>,
    /// `shared_proxies[a][b]`: number of globals owned by `b` that have a
    /// mirror on `a` — the universe of the (a → b) reduce stream and the
    /// (b → a) broadcast stream, used for metadata-compression accounting.
    shared_proxies: Vec<Vec<u32>>,
}

impl DistGraph {
    pub(crate) fn assemble(
        num_hosts: usize,
        num_global_vertices: usize,
        num_global_edges: usize,
        hosts: Vec<HostTopology>,
        owner: Vec<HostId>,
        local_of_global: Vec<Vec<LocalId>>,
    ) -> Self {
        let mut mirror_hosts = vec![Vec::new(); num_global_vertices];
        for (h, log) in local_of_global.iter().enumerate() {
            for (g, &l) in log.iter().enumerate() {
                if l != NO_LOCAL && owner[g] != h as HostId {
                    mirror_hosts[g].push(h as HostId);
                }
            }
        }
        let mut shared_proxies = vec![vec![0u32; num_hosts]; num_hosts];
        for (g, mirrors) in mirror_hosts.iter().enumerate() {
            let own = owner[g] as usize;
            for &m in mirrors {
                shared_proxies[m as usize][own] += 1;
            }
        }
        Self {
            num_hosts,
            num_global_vertices,
            num_global_edges,
            hosts,
            owner,
            local_of_global,
            mirror_hosts,
            shared_proxies,
        }
    }

    /// Local id of global vertex `g` on `host`, if it has a proxy there.
    #[inline]
    pub fn local(&self, host: usize, g: VertexId) -> Option<LocalId> {
        match self.local_of_global[host][g as usize] {
            NO_LOCAL => None,
            l => Some(l),
        }
    }

    /// Owning host of global vertex `g`.
    #[inline]
    pub fn owner(&self, g: VertexId) -> HostId {
        self.owner[g as usize]
    }

    /// Hosts (≠ owner) with a mirror proxy of `g`.
    #[inline]
    pub fn mirror_hosts(&self, g: VertexId) -> &[HostId] {
        &self.mirror_hosts[g as usize]
    }

    /// Number of globals owned by `owner_host` with a mirror on
    /// `mirror_host` (the shared-proxy universe for metadata compression).
    #[inline]
    pub fn shared_proxies(&self, mirror_host: usize, owner_host: usize) -> u32 {
        self.shared_proxies[mirror_host][owner_host]
    }

    /// Total proxies across hosts (≥ `num_global_vertices` when every
    /// vertex has a proxy; the excess is the replication overhead).
    pub fn total_proxies(&self) -> usize {
        self.hosts.iter().map(|h| h.num_proxies()).sum()
    }

    /// Average number of proxies per vertex that has at least one.
    pub fn replication_factor(&self) -> f64 {
        let with_proxy = self
            .local_of_global
            .iter()
            .flat_map(|v| v.iter())
            .filter(|&&l| l != NO_LOCAL)
            .count();
        let distinct: usize = (0..self.num_global_vertices)
            .filter(|&g| (0..self.num_hosts).any(|h| self.local_of_global[h][g] != NO_LOCAL))
            .count();
        if distinct == 0 {
            0.0
        } else {
            with_proxy as f64 / distinct as f64
        }
    }

    /// Validates the structural invariants against the original graph.
    /// Panics with a description on violation (test-support API).
    pub fn check_invariants(&self, original: &CsrGraph) {
        assert_eq!(self.num_global_vertices, original.num_vertices());
        assert_eq!(self.num_global_edges, original.num_edges());
        assert_eq!(self.hosts.len(), self.num_hosts);

        // (4) id maps are inverse.
        for (h, host) in self.hosts.iter().enumerate() {
            assert_eq!(host.graph.num_vertices(), host.num_proxies());
            assert_eq!(host.in_graph.num_vertices(), host.num_proxies());
            for (l, &g) in host.global_of_local.iter().enumerate() {
                assert_eq!(
                    self.local_of_global[h][g as usize], l as LocalId,
                    "host {h}: global_of_local and local_of_global disagree"
                );
            }
        }

        // (1) edges partition the original edge set.
        let mut seen: Vec<(VertexId, VertexId)> = Vec::with_capacity(original.num_edges());
        for host in &self.hosts {
            for (lu, lv) in host.graph.edges() {
                seen.push((
                    host.global_of_local[lu as usize],
                    host.global_of_local[lv as usize],
                ));
            }
        }
        seen.sort_unstable();
        let mut want: Vec<(VertexId, VertexId)> = original.edges().collect();
        want.sort_unstable();
        assert_eq!(seen, want, "edge multiset mismatch");

        // (2) exactly one master per vertex, on the owner.
        for g in 0..self.num_global_vertices {
            let own = self.owner[g] as usize;
            let l = self.local_of_global[own][g];
            assert_ne!(l, NO_LOCAL, "owner of {g} has no proxy");
            assert!(
                self.hosts[own].masters.get(l as usize),
                "owner proxy of {g} not marked master"
            );
            for (h, host) in self.hosts.iter().enumerate() {
                if h == own {
                    continue;
                }
                if let Some(l) = self.local(h, g as VertexId) {
                    assert!(
                        !host.masters.get(l as usize),
                        "vertex {g} has a second master on host {h}"
                    );
                }
            }
        }

        // (3) mirror lists are exact.
        for g in 0..self.num_global_vertices {
            let mut expect: Vec<HostId> = (0..self.num_hosts)
                .filter(|&h| h != self.owner[g] as usize && self.local_of_global[h][g] != NO_LOCAL)
                .map(|h| h as HostId)
                .collect();
            expect.sort_unstable();
            let mut got = self.mirror_hosts[g].clone();
            got.sort_unstable();
            assert_eq!(got, expect, "mirror list of {g} wrong");
        }
    }
}
