//! List configuration and reserved key/value encodings.

/// Hard cap on tower height; the thesis's evaluation uses 32 levels.
pub const MAX_HEIGHT: usize = 32;

/// Internal encoding of an empty key slot (Function 16's `null`).
pub const KEY_NULL: u64 = 0;
/// Internal key of the tail sentinel (+∞).
pub const KEY_INF: u64 = u64::MAX;
/// Value marking a logically deleted / never-written slot (§4.6).
pub const TOMBSTONE: u64 = u64::MAX;

/// Smallest and largest keys a user may store (0 encodes an empty slot and
/// `u64::MAX` is the tail sentinel).
pub const MIN_USER_KEY: u64 = 1;
pub const MAX_USER_KEY: u64 = u64::MAX - 1;

/// Structural parameters, fixed at creation and persisted in the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListConfig {
    /// Maximum tower height (≤ [`MAX_HEIGHT`]).
    pub max_height: usize,
    /// Key-value pairs per node (the thesis evaluates 256; 1 reproduces a
    /// classic one-key-per-node skip list for the Fig 5.3 comparison).
    pub keys_per_node: usize,
    /// Keep the *index shadow*: a volatile DRAM mirror of the upper levels
    /// consulted before the persistent descent, so point operations touch
    /// PMEM only for the bottom-level walk and the target node (see the
    /// `shadow` module). Never persisted; discarded and rebuilt on every
    /// open/recover path. On by default.
    pub shadow: bool,
}

impl Default for ListConfig {
    fn default() -> Self {
        Self {
            max_height: MAX_HEIGHT,
            keys_per_node: 16,
            shadow: true,
        }
    }
}

impl ListConfig {
    pub fn new(max_height: usize, keys_per_node: usize) -> Self {
        assert!(
            (1..=MAX_HEIGHT).contains(&max_height),
            "max_height out of range"
        );
        assert!(keys_per_node >= 1, "nodes must hold at least one key");
        assert!(
            keys_per_node <= u32::MAX as usize,
            "keys_per_node too large"
        );
        Self {
            max_height,
            keys_per_node,
            shadow: true,
        }
    }

    /// Disable the DRAM index shadow (benchmarks use the un-shadowed
    /// descent as the reads/op comparison baseline).
    pub fn without_shadow(mut self) -> Self {
        self.shadow = false;
        self
    }

    /// Pack into one root word. The shadow bit is stored inverted so roots
    /// formatted before the option existed (bit 60 = 0) unpack with the
    /// default (`shadow = true`).
    pub fn pack(&self) -> u64 {
        (self.max_height as u64)
            | ((self.keys_per_node as u64) << 8)
            | ((!self.shadow as u64) << 60)
    }

    /// Unpack from a root word. Bits 61 and 62 selected retired options
    /// (the per-thread search-finger cache and the sorted-lookup mode) and
    /// are ignored: neither changed the persistent layout, so a pool
    /// formatted with either opens like any other.
    pub fn unpack(word: u64) -> Self {
        let mut cfg = Self::new((word & 0xff) as usize, ((word >> 8) & 0xffff_ffff) as usize);
        cfg.shadow = word >> 60 & 1 == 0;
        cfg
    }
}

#[cfg(test)]
#[allow(clippy::assertions_on_constants)] // compile-time layout contracts, asserted for documentation
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let c = ListConfig::new(17, 256);
        assert_eq!(ListConfig::unpack(c.pack()), c);
        let c = ListConfig::new(17, 256).without_shadow();
        assert_eq!(ListConfig::unpack(c.pack()), c);
    }

    #[test]
    fn legacy_roots_unpack_with_shadow_enabled() {
        // A root word packed before the shadow option existed has bit 60
        // clear; it must unpack to the default rather than silently
        // disabling the shadow.
        let legacy = (17u64) | (256u64 << 8);
        assert!(ListConfig::unpack(legacy).shadow);
    }

    #[test]
    fn retired_sorted_lookup_bit_is_ignored() {
        let c = ListConfig::new(17, 256);
        assert_eq!(ListConfig::unpack(c.pack() | 1 << 62), c);
    }

    #[test]
    fn retired_finger_bit_is_ignored() {
        // Bit 61 was set by pools formatted with search fingers disabled.
        let c = ListConfig::new(17, 256);
        assert_eq!(ListConfig::unpack(c.pack() | 1 << 61), c);
        let c = c.without_shadow();
        assert_eq!(ListConfig::unpack(c.pack() | 1 << 61), c);
    }

    #[test]
    #[should_panic]
    fn zero_keys_rejected() {
        ListConfig::new(4, 0);
    }

    #[test]
    #[should_panic]
    fn oversized_height_rejected() {
        ListConfig::new(MAX_HEIGHT + 1, 4);
    }

    #[test]
    fn reserved_values_do_not_collide_with_user_range() {
        assert!(KEY_NULL < MIN_USER_KEY);
        assert!(KEY_INF > MAX_USER_KEY);
    }
}
