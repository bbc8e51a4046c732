//! Index newtypes used by [`DiGraph`](crate::DiGraph).
//!
//! Both identifiers are plain `u32` indices into the graph's internal
//! arenas. They are `Copy`, cheap to hash, and stable for the lifetime of
//! the graph, which never removes anything.

use std::fmt;

/// Identifier of a node inside a [`DiGraph`](crate::DiGraph).
///
/// Node ids are assigned densely in insertion order starting from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a directed edge inside a [`DiGraph`](crate::DiGraph).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index.
    ///
    /// Mostly useful for tests and for serialization round-trips; an id
    /// built this way is only meaningful for the graph it came from.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        NodeId(u32::try_from(ix).expect("node index exceeds u32::MAX"))
    }
}

impl EdgeId {
    /// Returns the raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a raw index.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        EdgeId(u32::try_from(ix).expect("edge index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_round_trip() {
        let id = EdgeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
