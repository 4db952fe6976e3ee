//! Strongly-typed identifiers for simulation entities.
//!
//! Newtype ids (C-NEWTYPE) prevent mixing up nodes, links, tasks and
//! messages at compile time. Ids are dense `u32`/`u64` indices handed out
//! by the owning registry, so they double as vector indices internally.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($repr);

        impl $name {
            /// Creates an id from its raw index.
            pub const fn from_raw(raw: $repr) -> Self {
                $name(raw)
            }

            /// Returns the raw index behind the id.
            pub const fn as_raw(self) -> $repr {
                self.0
            }

            /// Returns the id as a `usize` suitable for vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a computing node (edge device, fog component or cloud server).
    NodeId,
    "node-",
    u32
);
define_id!(
    /// Identifies a directed network link between two nodes.
    LinkId,
    "link-",
    u32
);
define_id!(
    /// Identifies one task instance executing on the continuum.
    TaskId,
    "task-",
    u64
);
define_id!(
    /// Identifies one network message in flight.
    MsgId,
    "msg-",
    u64
);
define_id!(
    /// Identifies a timer registered with the simulation core.
    TimerId,
    "timer-",
    u64
);
define_id!(
    /// Identifies a Kubernetes-like cluster overlaying a set of nodes.
    ClusterId,
    "cluster-",
    u32
);
define_id!(
    /// Identifies one regional continuum inside a federation.
    RegionId,
    "region-",
    u16
);
define_id!(
    /// Identifies a pod (scheduled container group) within a cluster.
    PodId,
    "pod-",
    u64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        let n = NodeId::from_raw(7);
        assert_eq!(n.as_raw(), 7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "node-7");
        assert_eq!(TaskId::from_raw(3).to_string(), "task-3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = myrtus_obs::hash::WordSet::default();
        set.insert(LinkId::from_raw(1));
        set.insert(LinkId::from_raw(1));
        set.insert(LinkId::from_raw(2));
        assert_eq!(set.len(), 2);
        assert!(LinkId::from_raw(1) < LinkId::from_raw(2));
    }
}
