//! Newtype identifiers for topology entities.

/// Identifier of an autonomous system. Dense index into
/// [`crate::graph::Topology::ases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl AsId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Identifier of one physical interconnection between two ASes in one city.
/// Dense index into [`crate::graph::Topology::links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterconnectId(pub u32);

impl InterconnectId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for InterconnectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ix#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(AsId(7).to_string(), "AS7");
        assert_eq!(InterconnectId(3).to_string(), "ix#3");
    }

    #[test]
    fn ordering_follows_numeric() {
        assert!(AsId(2) < AsId(10));
    }
}
