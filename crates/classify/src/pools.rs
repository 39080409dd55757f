//! The pool system (Section V).
//!
//! "We plan our component to work using a pool system. Initially, there is
//! just one default pool, but additional pools can be created or deleted
//! by administrators."

use std::fmt;

/// Identifier of a pool. Ids are never reused after deletion, so feedback
/// referencing a deleted pool is detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool{}", self.0)
    }
}

/// The set of pools administrators have configured.
#[derive(Debug, Clone)]
pub struct PoolRegistry {
    pools: Vec<(PoolId, String, bool)>, // (id, name, active)
    next: u32,
}

impl PoolRegistry {
    /// The default pool every registry starts with.
    pub const DEFAULT: PoolId = PoolId(0);

    pub fn new() -> Self {
        PoolRegistry {
            pools: vec![(Self::DEFAULT, "default".to_string(), true)],
            next: 1,
        }
    }

    /// Create a pool, returning its id.
    pub fn create(&mut self, name: impl Into<String>) -> PoolId {
        let id = PoolId(self.next);
        self.next += 1;
        self.pools.push((id, name.into(), true));
        id
    }

    /// Delete a pool. The default pool cannot be deleted. Returns whether
    /// anything changed.
    pub fn delete(&mut self, id: PoolId) -> bool {
        if id == Self::DEFAULT {
            return false;
        }
        match self
            .pools
            .iter_mut()
            .find(|(pid, _, active)| *pid == id && *active)
        {
            Some(entry) => {
                entry.2 = false;
                true
            }
            None => false,
        }
    }

    /// Is the pool currently active?
    pub fn is_active(&self, id: PoolId) -> bool {
        self.pools
            .iter()
            .any(|(pid, _, active)| *pid == id && *active)
    }

    pub fn name(&self, id: PoolId) -> Option<&str> {
        self.pools
            .iter()
            .find(|(pid, _, _)| *pid == id)
            .map(|(_, name, _)| name.as_str())
    }

    /// Active pools, in creation order.
    pub fn active(&self) -> Vec<PoolId> {
        self.pools
            .iter()
            .filter(|(_, _, active)| *active)
            .map(|(id, _, _)| *id)
            .collect()
    }
}

impl Default for PoolRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_default_pool() {
        let r = PoolRegistry::new();
        assert_eq!(r.active(), vec![PoolRegistry::DEFAULT]);
        assert_eq!(r.name(PoolRegistry::DEFAULT), Some("default"));
    }

    #[test]
    fn create_and_delete() {
        let mut r = PoolRegistry::new();
        let net = r.create("network");
        let sec = r.create("security");
        assert_eq!(r.active().len(), 3);
        assert!(r.delete(net));
        assert!(!r.is_active(net));
        assert!(r.is_active(sec));
        assert_eq!(
            r.name(net),
            Some("network"),
            "deleted pools keep their name"
        );
    }

    #[test]
    fn default_pool_is_permanent() {
        let mut r = PoolRegistry::new();
        assert!(!r.delete(PoolRegistry::DEFAULT));
        assert!(r.is_active(PoolRegistry::DEFAULT));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r = PoolRegistry::new();
        let a = r.create("a");
        r.delete(a);
        let b = r.create("b");
        assert_ne!(a, b);
    }

    #[test]
    fn double_delete_is_noop() {
        let mut r = PoolRegistry::new();
        let a = r.create("a");
        assert!(r.delete(a));
        assert!(!r.delete(a));
    }
}
