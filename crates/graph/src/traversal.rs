//! Breadth-first traversal utilities: distances, balls, components, diameter.
//!
//! These routines back the verification side of the reproduction: the stretch
//! guarantee of Theorem 9 is checked by comparing BFS distances in the
//! spanner against adjacency in the original graph, and the `t`-local
//! broadcast task of Section 6 is defined in terms of the ball
//! `B_{G,t}(v) = {u : dist_G(v, u) ≤ t}`.
//!
//! Every routine is generic over [`Topology`], so it runs both on the
//! mutable [`MultiGraph`](crate::MultiGraph) and on the packed
//! [`CsrGraph`](crate::CsrGraph) view produced by
//! [`MultiGraph::freeze`](crate::MultiGraph::freeze) — freeze first when a
//! graph is scanned repeatedly (e.g. the per-node ball queries of the
//! simulation verifier).

use crate::csr::Topology;
use crate::error::{GraphError, GraphResult};
use crate::{EdgeId, NodeId};
use std::collections::VecDeque;

/// Result of a single-source BFS: hop distances and the BFS tree.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `None` if `v` is
    /// unreachable.
    pub dist: Vec<Option<u32>>,
    /// `parent_edge[v]` is the tree edge through which `v` was discovered
    /// (`None` for the source and unreachable nodes).
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `parent[v]` is the BFS-tree parent of `v`.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in the order they were discovered (starting with the source).
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// Hop distance to `node`, if reachable.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Number of reachable nodes (including the source).
    pub fn reachable_count(&self) -> usize {
        self.order.len()
    }

    /// Reconstructs the path of edges from the source to `node`, if reachable.
    pub fn path_to(&self, node: NodeId) -> Option<Vec<EdgeId>> {
        self.distance(node)?;
        let mut path = Vec::new();
        let mut current = node;
        while let Some(edge) = self.parent_edge[current.index()] {
            path.push(edge);
            current =
                self.parent[current.index()].expect("parent exists whenever parent_edge does");
        }
        path.reverse();
        Some(path)
    }
}

/// Runs a breadth-first search from `source`, optionally bounded to
/// `max_depth` hops.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfRange`] if `source` is not a node of `graph`.
pub fn bfs<G: Topology>(
    graph: &G,
    source: NodeId,
    max_depth: Option<u32>,
) -> GraphResult<BfsResult> {
    graph.check_node(source)?;
    let n = graph.node_count();
    let mut dist = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();

    dist[source.index()] = Some(0);
    order.push(source);
    queue.push_back(source);

    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have a distance");
        if let Some(limit) = max_depth {
            if du >= limit {
                continue;
            }
        }
        for incident in graph.incident_edges(u) {
            let v = incident.neighbor;
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                parent_edge[v.index()] = Some(incident.edge);
                parent[v.index()] = Some(u);
                order.push(v);
                queue.push_back(v);
            }
        }
    }

    Ok(BfsResult {
        dist,
        parent_edge,
        parent,
        order,
    })
}

/// Hop distances from `source` to every node (`None` if unreachable).
///
/// # Errors
///
/// Returns an error if `source` is out of range.
pub fn bfs_distances<G: Topology>(graph: &G, source: NodeId) -> GraphResult<Vec<Option<u32>>> {
    Ok(bfs(graph, source, None)?.dist)
}

/// The ball `B_{G,t}(v)`: all nodes within hop distance `t` of `source`,
/// including `source` itself, sorted by node index.
///
/// # Errors
///
/// Returns an error if `source` is out of range.
pub fn ball<G: Topology>(graph: &G, source: NodeId, radius: u32) -> GraphResult<Vec<NodeId>> {
    let mut nodes = BallScratch::default().ball(graph, source, radius)?.to_vec();
    nodes.sort_unstable();
    Ok(nodes)
}

/// Reusable state for repeated ball queries: a visited flag per node and
/// the member list of the last ball. A query clears only the flags of the
/// previous ball and touches only the new ball and the edges leaving it,
/// so `n` queries cost `O(Σ_v |B_t(v)| · deg)` rather than `Θ(n²)`.
#[derive(Debug, Clone, Default)]
pub struct BallScratch {
    visited: Vec<bool>,
    members: Vec<NodeId>,
}

impl BallScratch {
    /// The members of `B_{G,radius}(source)` in BFS discovery order, the
    /// source first (unsorted, unlike [`ball`]). The slice is valid until
    /// the next query.
    ///
    /// # Errors
    ///
    /// Returns an error if `source` is out of range.
    pub fn ball<G: Topology>(
        &mut self,
        graph: &G,
        source: NodeId,
        radius: u32,
    ) -> GraphResult<&[NodeId]> {
        graph.check_node(source)?;
        for v in self.members.drain(..) {
            self.visited[v.index()] = false;
        }
        if self.visited.len() < graph.node_count() {
            self.visited.resize(graph.node_count(), false);
        }
        self.visited[source.index()] = true;
        self.members.push(source);
        // Expand one BFS level per hop: `members[level_start..level_end]`
        // is the frontier at the current depth.
        let mut level_start = 0;
        for _ in 0..radius {
            let level_end = self.members.len();
            if level_start == level_end {
                break;
            }
            for i in level_start..level_end {
                for incident in graph.incident_edges(self.members[i]) {
                    let v = incident.neighbor;
                    if !self.visited[v.index()] {
                        self.visited[v.index()] = true;
                        self.members.push(v);
                    }
                }
            }
            level_start = level_end;
        }
        Ok(&self.members)
    }
}

/// Length of a shortest `u`–`v` path, or `None` if `v` is unreachable from
/// `u`. Stops early once `v` is found; `max_depth` (if given) caps the
/// search radius.
///
/// # Errors
///
/// Returns an error if either node is out of range.
pub fn shortest_path_len<G: Topology>(
    graph: &G,
    u: NodeId,
    v: NodeId,
    max_depth: Option<u32>,
) -> GraphResult<Option<u32>> {
    graph.check_node(u)?;
    graph.check_node(v)?;
    if u == v {
        return Ok(Some(0));
    }
    let n = graph.node_count();
    let mut dist = vec![None; n];
    let mut queue = VecDeque::new();
    dist[u.index()] = Some(0u32);
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        let dx = dist[x.index()].expect("queued nodes have a distance");
        if let Some(limit) = max_depth {
            if dx >= limit {
                continue;
            }
        }
        for incident in graph.incident_edges(x) {
            let y = incident.neighbor;
            if dist[y.index()].is_none() {
                if y == v {
                    return Ok(Some(dx + 1));
                }
                dist[y.index()] = Some(dx + 1);
                queue.push_back(y);
            }
        }
    }
    Ok(None)
}

/// Assignment of each node to a connected component, components numbered
/// `0..count` in order of their smallest node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[v]` is the component index of node `v`.
    pub component: Vec<usize>,
    /// Number of connected components.
    pub count: usize,
}

impl Components {
    /// Sizes of the components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component {
            sizes[c] += 1;
        }
        sizes
    }
}

/// Computes the connected components of `graph`.
pub fn connected_components<G: Topology>(graph: &G) -> Components {
    let n = graph.node_count();
    let mut component = vec![usize::MAX; n];
    let mut count = 0;
    for start in graph.nodes() {
        if component[start.index()] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        component[start.index()] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for incident in graph.incident_edges(u) {
                let v = incident.neighbor;
                if component[v.index()] == usize::MAX {
                    component[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components { component, count }
}

/// Returns `true` if the graph is connected (the empty graph and the
/// single-node graph are considered connected).
pub fn is_connected<G: Topology>(graph: &G) -> bool {
    graph.node_count() <= 1 || connected_components(graph).count == 1
}

/// Checks connectivity, returning an error naming the number of components if
/// the graph is disconnected.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] when the graph has more than one
/// connected component.
pub fn require_connected<G: Topology>(graph: &G) -> GraphResult<()> {
    let components = connected_components(graph);
    if graph.node_count() <= 1 || components.count == 1 {
        Ok(())
    } else {
        Err(GraphError::Disconnected {
            components: components.count,
        })
    }
}

/// Eccentricity of `node`: the largest hop distance to any reachable node.
///
/// # Errors
///
/// Returns an error if `node` is out of range.
pub fn eccentricity<G: Topology>(graph: &G, node: NodeId) -> GraphResult<u32> {
    let result = bfs(graph, node, None)?;
    Ok(result.dist.iter().flatten().copied().max().unwrap_or(0))
}

/// Exact diameter of a connected graph, computed by all-sources BFS
/// (`O(n·m)`).
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if the graph is not connected.
pub fn diameter_exact<G: Topology>(graph: &G) -> GraphResult<u32> {
    require_connected(graph)?;
    let mut best = 0;
    for node in graph.nodes() {
        best = best.max(eccentricity(graph, node)?);
    }
    Ok(best)
}

/// Lower bound on the diameter obtained by running BFS from `samples`
/// deterministic, evenly spread sources. Cheap alternative to
/// [`diameter_exact`] for large graphs.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if the graph is not connected, or an
/// invalid-parameter error if `samples` is zero.
pub fn diameter_lower_bound<G: Topology>(graph: &G, samples: usize) -> GraphResult<u32> {
    if samples == 0 {
        return Err(GraphError::invalid_parameter("samples must be positive"));
    }
    require_connected(graph)?;
    let n = graph.node_count();
    if n == 0 {
        return Ok(0);
    }
    let step = (n / samples).max(1);
    let mut best = 0;
    for i in (0..n).step_by(step).take(samples) {
        best = best.max(eccentricity(graph, NodeId::from_usize(i))?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 - 1 - 2 - 3 path plus isolated node 4.
    fn path_plus_isolated() -> MultiGraph {
        let mut g = MultiGraph::new(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_plus_isolated();
        let dist = bfs_distances(&g, n(0)).unwrap();
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn bfs_depth_bound_truncates() {
        let g = path_plus_isolated();
        let result = bfs(&g, n(0), Some(2)).unwrap();
        assert_eq!(result.distance(n(2)), Some(2));
        assert_eq!(result.distance(n(3)), None);
        assert_eq!(result.reachable_count(), 3);
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = path_plus_isolated();
        let result = bfs(&g, n(0), None).unwrap();
        let path = result.path_to(n(3)).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(result.path_to(n(0)).unwrap(), Vec::<EdgeId>::new());
        assert!(result.path_to(n(4)).is_none());
    }

    #[test]
    fn bfs_source_out_of_range() {
        let g = path_plus_isolated();
        assert!(bfs(&g, n(9), None).is_err());
    }

    #[test]
    fn ball_contains_exactly_radius_neighborhood() {
        let g = path_plus_isolated();
        assert_eq!(ball(&g, n(1), 0).unwrap(), vec![n(1)]);
        assert_eq!(ball(&g, n(1), 1).unwrap(), vec![n(0), n(1), n(2)]);
        assert_eq!(ball(&g, n(1), 2).unwrap(), vec![n(0), n(1), n(2), n(3)]);
        assert_eq!(ball(&g, n(1), 10).unwrap(), vec![n(0), n(1), n(2), n(3)]);
    }

    /// One scratch reused across sources and radii returns each ball's
    /// exact member set: the flags of the previous ball never leak.
    #[test]
    fn reused_ball_scratch_matches_bfs_distances() {
        let g = path_plus_isolated();
        let mut scratch = BallScratch::default();
        for radius in [3, 0, 1, 2, 10] {
            for source in g.nodes() {
                let dist = bfs(&g, source, None).unwrap().dist;
                let expected: Vec<NodeId> = g
                    .nodes()
                    .filter(|v| dist[v.index()].is_some_and(|d| d <= radius))
                    .collect();
                let mut members = scratch.ball(&g, source, radius).unwrap().to_vec();
                assert_eq!(members[0], source);
                members.sort_unstable();
                assert_eq!(members, expected, "source {source:?}, radius {radius}");
            }
        }
        assert!(scratch.ball(&g, n(9), 1).is_err());
    }

    #[test]
    fn shortest_path_len_cases() {
        let g = path_plus_isolated();
        assert_eq!(shortest_path_len(&g, n(0), n(3), None).unwrap(), Some(3));
        assert_eq!(shortest_path_len(&g, n(0), n(0), None).unwrap(), Some(0));
        assert_eq!(shortest_path_len(&g, n(0), n(4), None).unwrap(), None);
        assert_eq!(shortest_path_len(&g, n(0), n(3), Some(2)).unwrap(), None);
        assert_eq!(shortest_path_len(&g, n(0), n(3), Some(3)).unwrap(), Some(3));
    }

    #[test]
    fn components_and_connectivity() {
        let g = path_plus_isolated();
        let comps = connected_components(&g);
        assert_eq!(comps.count, 2);
        assert_eq!(comps.component[0], comps.component[3]);
        assert_ne!(comps.component[0], comps.component[4]);
        assert_eq!(comps.sizes(), vec![4, 1]);
        assert!(!is_connected(&g));
        assert_eq!(
            require_connected(&g),
            Err(GraphError::Disconnected { components: 2 })
        );
    }

    #[test]
    fn single_node_and_empty_graphs_are_connected() {
        assert!(is_connected(&MultiGraph::new(0)));
        assert!(is_connected(&MultiGraph::new(1)));
        assert!(require_connected(&MultiGraph::new(1)).is_ok());
    }

    #[test]
    fn eccentricity_and_diameter() {
        let mut g = MultiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        assert_eq!(eccentricity(&g, n(0)).unwrap(), 3);
        assert_eq!(eccentricity(&g, n(1)).unwrap(), 2);
        assert_eq!(diameter_exact(&g).unwrap(), 3);
        let lb = diameter_lower_bound(&g, 2).unwrap();
        assert!((2..=3).contains(&lb));
    }

    #[test]
    fn diameter_requires_connected() {
        let g = path_plus_isolated();
        assert!(diameter_exact(&g).is_err());
        assert!(diameter_lower_bound(&g, 1).is_err());
        assert!(diameter_lower_bound(&MultiGraph::new(3), 0).is_err());
    }

    #[test]
    fn parallel_edges_do_not_change_distances() {
        let mut g = MultiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        assert_eq!(
            bfs_distances(&g, n(0)).unwrap(),
            vec![Some(0), Some(1), Some(2)]
        );
        assert_eq!(diameter_exact(&g).unwrap(), 2);
    }
}
