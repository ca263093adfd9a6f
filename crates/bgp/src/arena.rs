//! Shared-suffix AS-path interning and entry-link pooling.
//!
//! At planet scale (≥50k ASes) a routing table that stores one owned
//! `Vec<AsId>` path per AS costs `Σ (24 + 4·len)` bytes and thrashes the
//! allocator. But Gao-Rexford best routes form a forest: every AS's path is
//! `[asn] ++ path(via)`, so all paths through a common next hop share their
//! entire suffix. The [`PathArena`] stores that forest directly — one
//! 8-byte node `(head, parent)` per routed AS — and a route carries a
//! 4-byte [`PathHandle`] instead of an owned vector. Paths are
//! materialized on demand by walking parent links.
//!
//! [`EntryPool`] plays the same trick for the tied-best entry links that
//! first-hop neighbors of the origin carry: one shared `Vec` of link ids
//! plus `(offset, len)` spans, addressed by a 4-byte [`EntryHandle`].

use bb_topology::{AsId, InterconnectId};

/// Handle into a [`PathArena`]. Only meaningful together with the arena
/// (i.e. the `RoutingTable`) it was issued by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathHandle(pub(crate) u32);

impl PathHandle {
    /// No interned path (unrouted, or not yet finalized).
    pub const NONE: PathHandle = PathHandle(u32::MAX);
    /// The via-chain below this AS contains a cycle; no path exists.
    pub const CYCLE: PathHandle = PathHandle(u32::MAX - 1);

    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    pub fn is_cycle(self) -> bool {
        self == Self::CYCLE
    }

    fn is_real(self) -> bool {
        self.0 < u32::MAX - 1
    }
}

/// Handle into an [`EntryPool`] span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryHandle(pub(crate) u32);

impl EntryHandle {
    /// Empty entry-link set (every route that is not a first hop).
    pub const NONE: EntryHandle = EntryHandle(u32::MAX);

    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

/// One parent-chain node: `head` prepended onto the path at `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathNode {
    head: AsId,
    parent: PathHandle,
}

/// The shared-suffix path forest. `PathHandle::NONE` as a parent marks a
/// path root (the origin's own one-element path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathArena {
    nodes: Vec<PathNode>,
}

impl PathArena {
    pub fn with_capacity(n: usize) -> PathArena {
        PathArena {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Intern the path `[head] ++ materialize(parent)`.
    ///
    /// `parent` must be `NONE` or an already interned node, so every node
    /// comes after its parent in handle order.
    pub fn intern(&mut self, head: AsId, parent: PathHandle) -> PathHandle {
        debug_assert!(parent.is_none() || parent.0 < self.nodes.len() as u32);
        let h = PathHandle(self.nodes.len() as u32);
        assert!(h.is_real(), "path arena overflow");
        self.nodes.push(PathNode { head, parent });
        h
    }

    /// Release capacity beyond the interned nodes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Bytes held by the arena's node storage.
    pub fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PathNode>()
    }

    /// Number of ASes on the path at every node, in handle order: one
    /// forward pass, since a parent always precedes its children.
    pub(crate) fn path_lens(&self) -> Vec<u32> {
        let mut lens: Vec<u32> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let up = if node.parent.is_real() {
                lens[node.parent.0 as usize]
            } else {
                0
            };
            lens.push(up + 1);
        }
        lens
    }

    /// Number of ASes on the path at `h` (0 for `NONE`/`CYCLE`).
    pub fn path_len(&self, mut h: PathHandle) -> usize {
        let mut n = 0;
        while h.is_real() {
            n += 1;
            h = self.nodes[h.0 as usize].parent;
        }
        n
    }

    /// The full path at `h`, head first (source → … → origin). `None` for
    /// the `NONE`/`CYCLE` sentinels.
    pub fn materialize(&self, h: PathHandle) -> Option<Vec<AsId>> {
        if !h.is_real() {
            return None;
        }
        let mut path = Vec::with_capacity(self.path_len(h));
        let mut cur = h;
        while cur.is_real() {
            let node = self.nodes[cur.0 as usize];
            path.push(node.head);
            cur = node.parent;
        }
        Some(path)
    }
}

/// Pooled entry-link spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryPool {
    spans: Vec<(u32, u32)>,
    pool: Vec<InterconnectId>,
}

impl EntryPool {
    /// Intern a span; empty slices collapse to `EntryHandle::NONE`.
    pub fn intern(&mut self, links: &[InterconnectId]) -> EntryHandle {
        if links.is_empty() {
            return EntryHandle::NONE;
        }
        let h = EntryHandle(self.spans.len() as u32);
        assert!(!h.is_none(), "entry pool overflow");
        self.spans.push((self.pool.len() as u32, links.len() as u32));
        self.pool.extend_from_slice(links);
        h
    }

    pub fn get(&self, h: EntryHandle) -> &[InterconnectId] {
        if h.is_none() {
            return &[];
        }
        let (off, len) = self.spans[h.0 as usize];
        &self.pool[off as usize..(off + len) as usize]
    }

    /// Bytes held by the pool (span table + link storage).
    pub fn bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<(u32, u32)>()
            + self.pool.len() * std::mem::size_of::<InterconnectId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_materialize_share_suffixes() {
        let mut a = PathArena::with_capacity(4);
        let origin = a.intern(AsId(7), PathHandle::NONE);
        let one = a.intern(AsId(3), origin);
        let two = a.intern(AsId(9), one);
        let sibling = a.intern(AsId(4), one);
        assert_eq!(a.materialize(origin).unwrap(), vec![AsId(7)]);
        assert_eq!(a.materialize(two).unwrap(), vec![AsId(9), AsId(3), AsId(7)]);
        assert_eq!(a.materialize(sibling).unwrap(), vec![AsId(4), AsId(3), AsId(7)]);
        // Four paths with 9 total hops stored as 4 nodes.
        assert_eq!(a.bytes(), 4 * 8);
        assert_eq!(a.path_len(two), 3);
        assert_eq!(a.path_lens(), vec![1, 2, 3, 3]);
    }

    #[test]
    fn sentinels_do_not_materialize() {
        let a = PathArena::default();
        assert!(a.materialize(PathHandle::NONE).is_none());
        assert!(a.materialize(PathHandle::CYCLE).is_none());
        assert_eq!(a.path_len(PathHandle::NONE), 0);
        assert!(PathHandle::NONE.is_none());
        assert!(PathHandle::CYCLE.is_cycle());
        assert!(!PathHandle::CYCLE.is_none());
    }

    #[test]
    fn entry_pool_round_trips() {
        let mut p = EntryPool::default();
        let empty = p.intern(&[]);
        assert!(empty.is_none());
        assert!(p.get(empty).is_empty());
        let a = p.intern(&[InterconnectId(5), InterconnectId(9)]);
        let b = p.intern(&[InterconnectId(1)]);
        assert_eq!(p.get(a), &[InterconnectId(5), InterconnectId(9)]);
        assert_eq!(p.get(b), &[InterconnectId(1)]);
        assert_eq!(p.bytes(), 2 * 8 + 3 * 4);
    }
}
