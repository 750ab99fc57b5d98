//! Per-node memory accounting.
//!
//! DYRS slaves buffer migrated blocks in RAM (the real system uses
//! `mmap`/`mlock` into the buffer cache, §IV-1). The simulator only needs
//! the *accounting*: how many bytes are pinned, whether a new migration
//! fits under the configured hard limit (§IV-A1), and the peak footprint
//! for Figure 7.

/// Byte-accurate memory reservation tracker with a hard limit.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    capacity: u64,
    used: u64,
    peak: u64,
    /// Cumulative bytes ever pinned (for footprint reporting).
    total_pinned: u64,
}

impl MemoryStore {
    /// A store with the given hard capacity limit in bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryStore {
            capacity,
            used: 0,
            peak: 0,
            total_pinned: 0,
        }
    }

    /// Hard limit in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently pinned.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Free bytes under the limit.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Highest pinned footprint seen so far.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Cumulative bytes ever pinned (monotone).
    pub fn total_pinned(&self) -> u64 {
        self.total_pinned
    }

    /// True if `bytes` more can be pinned without exceeding the limit.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Pin `bytes`; returns `false` (and changes nothing) if it doesn't fit.
    #[must_use]
    pub fn pin(&mut self, bytes: u64) -> bool {
        if !self.fits(bytes) {
            return false;
        }
        self.used += bytes;
        self.total_pinned += bytes;
        self.peak = self.peak.max(self.used);
        true
    }

    /// Unpin `bytes`. Panics if more is released than is pinned — that is
    /// always an accounting bug in the caller.
    pub fn unpin(&mut self, bytes: u64) {
        assert!(
            bytes <= self.used,
            "unpin {bytes} exceeds pinned {}",
            self.used
        );
        self.used -= bytes;
    }

    /// Drop all pins (slave process failure: the OS reclaims everything,
    /// §III-C2). Peak and cumulative counters are preserved.
    pub fn clear(&mut self) {
        self.used = 0;
    }
}

impl simkit::audit::Audit for MemoryStore {
    fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "memory-store";
        report.check(
            self.used <= self.capacity,
            c,
            "§IV-A1: pinned bytes stay under the configured hard limit",
            || format!("used {} > capacity {}", self.used, self.capacity),
        );
        report.check(
            self.used <= self.peak,
            c,
            "peak is the high-water mark of used",
            || format!("used {} > peak {}", self.used, self.peak),
        );
        report.check(
            self.peak <= self.total_pinned,
            c,
            "cumulative pinned bytes bound the peak",
            || format!("peak {} > total_pinned {}", self.peak, self.total_pinned),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_and_unpin_roundtrip() {
        let mut m = MemoryStore::new(100);
        assert!(m.pin(60));
        assert_eq!(m.used(), 60);
        assert_eq!(m.available(), 40);
        m.unpin(20);
        assert_eq!(m.used(), 40);
    }

    #[test]
    fn pin_rejected_over_limit() {
        let mut m = MemoryStore::new(100);
        assert!(m.pin(80));
        assert!(!m.pin(30));
        assert_eq!(m.used(), 80, "failed pin must not change state");
        assert!(m.pin(20));
        assert_eq!(m.available(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryStore::new(100);
        assert!(m.pin(70));
        m.unpin(50);
        assert!(m.pin(30));
        assert_eq!(m.peak(), 70);
        assert_eq!(m.total_pinned(), 100);
    }

    #[test]
    fn clear_releases_everything() {
        let mut m = MemoryStore::new(100);
        assert!(m.pin(99));
        m.clear();
        assert_eq!(m.used(), 0);
        assert_eq!(m.peak(), 99);
    }

    #[test]
    #[should_panic(expected = "unpin")]
    fn over_unpin_panics() {
        let mut m = MemoryStore::new(100);
        assert!(m.pin(10));
        m.unpin(11);
    }

    #[test]
    fn fits_is_exact() {
        let mut m = MemoryStore::new(10);
        assert!(m.fits(10));
        assert!(!m.fits(11));
        assert!(m.pin(10));
        assert!(m.fits(0));
        assert!(!m.fits(1));
    }
}
