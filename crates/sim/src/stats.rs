//! Typed counters and time buckets for simulation statistics.
//!
//! The paper decomposes execution time into three components (hardware,
//! dual-port RAM management, IMU management); the rest of the workspace
//! accumulates those — and auxiliary event counts such as page faults and
//! TLB updates — through this module.
//!
//! Every statistic is a variant of [`Counter`] or [`Bucket`] and lives in
//! a fixed array slot, so a misspelt name fails to compile and reading or
//! bumping a counter on the simulation's hot path is a plain array
//! access. Each set also remembers which slots were ever written: only
//! those are listed by `iter`, `Display` and `Debug`, exactly as a
//! name-keyed map would list the names it had seen.

use std::fmt;
use std::ops::Index;

use crate::time::SimTime;

/// Declares a statistics key enum: variants in name order, each with its
/// stable snake_case name.
macro_rules! stat_keys {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every key, in name order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)+];

            /// Number of keys.
            pub const COUNT: usize = Self::ALL.len();

            /// The key's stable snake_case name (as listed in reports).
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// The key called `name`, if there is one.
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

stat_keys! {
    /// An event counter of the VIM or the IMU datapath, declared in name
    /// order (so slot order is listing order).
    pub enum Counter {
        /// A page transfer delayed by an injected bus stall.
        BusStalled => "bus_stalled",
        /// IMU: a read access completed.
        CompletedRead => "completed_read",
        /// IMU: a write access completed.
        CompletedWrite => "completed_write",
        /// A frame taken from another address space.
        CrossAsidSteal => "cross_asid_steal",
        /// A demand load queued because every candidate frame was pinned
        /// by an in-flight transfer.
        DemandDeferred => "demand_deferred",
        /// An in-flight DMA transfer cancelled.
        DmaCancelled => "dma_cancelled",
        /// A DMA transfer lost to an injected timeout.
        DmaLost => "dma_lost",
        /// A page movement submitted to the asynchronous DMA engine.
        DmaTransfer => "dma_transfer",
        /// IMU: end of operation signalled.
        Done => "done",
        /// A resident page evicted from its frame.
        Eviction => "eviction",
        /// A translation fault (raised by the IMU; serviced by the VIM).
        Fault => "fault",
        /// A fault on a page whose load was already in flight.
        FaultOnLoading => "fault_on_loading",
        /// An asynchronous page load completed and entered the TLB.
        InstallCommitted => "install_committed",
        /// A page loaded into the interface memory.
        PageLoad => "page_load",
        /// A dirty page written back to user memory.
        PageWriteback => "page_writeback",
        /// The VIM released a parameter frame.
        ParamFreed => "param_freed",
        /// IMU: the coprocessor invalidated its parameter page.
        ParamPageFreed => "param_page_freed",
        /// IMU: a parameter word read.
        ParamRead => "param_read",
        /// A TLB parity upset serviced.
        ParityFault => "parity_fault",
        /// A speculative (prefetch) page load.
        Prefetch => "prefetch",
        /// IMU: a translation that hit the TLB.
        TlbHit => "tlb_hit",
        /// IMU: a translation that missed the TLB.
        TlbMiss => "tlb_miss",
        /// A corrupt page transfer redone.
        TransferRetry => "transfer_retry",
    }
}

stat_keys! {
    /// A simulated-time account, declared in name order.
    pub enum Bucket {
        /// DMA time hidden under coprocessor execution (overlapped
        /// paging); not part of the serial decomposition.
        DmaHidden => "dma_hidden",
        /// Software time managing the dual-port RAM (page copies).
        SwDp => "sw_dp",
        /// Software time managing the IMU (interrupts, TLB updates).
        SwImu => "sw_imu",
    }
}

// One "touched" bit per slot.
const _: () = assert!(Counter::COUNT <= 32 && Bucket::COUNT <= 32);

/// Renders `(name, value)` pairs as the `{"name": value, ...}` text of a
/// name-keyed map, so report `Debug` output keeps its established form.
struct NamedValues<F>(F);

impl<F, I, V> fmt::Debug for NamedValues<F>
where
    F: Fn() -> I,
    I: Iterator<Item = (&'static str, V)>,
    V: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries((self.0)()).finish()
    }
}

/// A set of event counters, one slot per [`Counter`].
///
/// # Examples
///
/// ```
/// use vcop_sim::stats::{Counter, Counters};
///
/// let mut c = Counters::new();
/// c.add(Counter::Fault, 1);
/// c.add(Counter::Fault, 2);
/// assert_eq!(c[Counter::Fault], 3);
/// // The by-name reader, for callers holding a name string.
/// assert_eq!(c.get("fault"), 3);
/// assert_eq!(c.get("no_such_counter"), 0);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: [u64; Counter::COUNT],
    touched: u32,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `c` (listing it from now on, even if `n` is
    /// zero).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n;
        self.touched |= 1 << c as usize;
    }

    /// Increments counter `c` by one.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of the counter called `name` (zero if it was never
    /// touched or no counter has that name). Code that knows which
    /// counter it wants indexes with a [`Counter`] instead.
    pub fn get(&self, name: &str) -> u64 {
        Counter::from_name(name).map_or(0, |c| self[c])
    }

    /// Iterates over the touched `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL
            .iter()
            .filter(|&&c| self.touched & (1 << c as usize) != 0)
            .map(|&c| (c.name(), self[c]))
    }

    /// Merges another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        for &c in Counter::ALL {
            if other.touched & (1 << c as usize) != 0 {
                self.add(c, other[c]);
            }
        }
    }

    /// Whether no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }
}

impl Index<Counter> for Counters {
    type Output = u64;

    #[inline]
    fn index(&self, c: Counter) -> &u64 {
        &self.values[c as usize]
    }
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counters")
            .field("values", &NamedValues(|| self.iter()))
            .finish()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:32} {v}")?;
        }
        Ok(())
    }
}

/// A set of time accumulators, one slot per [`Bucket`].
///
/// # Examples
///
/// ```
/// use vcop_sim::stats::{Bucket, TimeBuckets};
/// use vcop_sim::time::SimTime;
///
/// let mut t = TimeBuckets::new();
/// t.add(Bucket::SwDp, SimTime::from_us(10));
/// t.add(Bucket::SwDp, SimTime::from_us(5));
/// assert_eq!(t[Bucket::SwDp], SimTime::from_us(15));
/// assert_eq!(t.get("sw_dp"), SimTime::from_us(15));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    values: [SimTime; Bucket::COUNT],
    touched: u32,
}

impl TimeBuckets {
    /// Creates an empty bucket set.
    pub fn new() -> Self {
        TimeBuckets::default()
    }

    /// Adds `t` to bucket `b` (saturating).
    #[inline]
    pub fn add(&mut self, b: Bucket, t: SimTime) {
        let slot = &mut self.values[b as usize];
        *slot = slot.saturating_add(t);
        self.touched |= 1 << b as usize;
    }

    /// Current value of the bucket called `name` (zero if it was never
    /// touched or no bucket has that name). Code that knows which
    /// bucket it wants indexes with a [`Bucket`] instead.
    pub fn get(&self, name: &str) -> SimTime {
        Bucket::from_name(name).map_or(SimTime::ZERO, |b| self[b])
    }

    /// Sum of all buckets.
    pub fn total(&self) -> SimTime {
        self.values.iter().copied().sum()
    }

    /// Sum of all buckets except `excluded`. Overlapped paging keeps a
    /// separate *hidden* account (DMA cycles buried under coprocessor
    /// execution); excluding it yields the serial-work sum the paper's
    /// decomposition adds up.
    pub fn total_excluding(&self, excluded: &[Bucket]) -> SimTime {
        Bucket::ALL
            .iter()
            .filter(|&&b| !excluded.contains(&b))
            .map(|&b| self[b])
            .sum()
    }

    /// Fraction of the grand total held by bucket `b` (zero when the
    /// total is zero).
    pub fn share(&self, b: Bucket) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            return 0.0;
        }
        self[b].as_ps() as f64 / total as f64
    }

    /// Iterates over the touched `(name, time)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, SimTime)> + '_ {
        Bucket::ALL
            .iter()
            .filter(|&&b| self.touched & (1 << b as usize) != 0)
            .map(|&b| (b.name(), self[b]))
    }

    /// Merges another bucket set into this one.
    pub fn merge(&mut self, other: &TimeBuckets) {
        for &b in Bucket::ALL {
            if other.touched & (1 << b as usize) != 0 {
                self.add(b, other[b]);
            }
        }
    }
}

impl Index<Bucket> for TimeBuckets {
    type Output = SimTime;

    #[inline]
    fn index(&self, b: Bucket) -> &SimTime {
        &self.values[b as usize]
    }
}

impl fmt::Debug for TimeBuckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeBuckets")
            .field("values", &NamedValues(|| self.iter()))
            .finish()
    }
}

impl fmt::Display for TimeBuckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:32} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn names_are_unique_sorted_and_round_trip() {
        for keys in [
            Counter::ALL.iter().map(|c| c.name()).collect::<Vec<_>>(),
            Bucket::ALL.iter().map(|b| b.name()).collect::<Vec<_>>(),
        ] {
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "names strictly ascending (hence unique): {keys:?}"
            );
        }
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "slot order is declaration order");
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for (i, &b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b as usize, i);
            assert_eq!(Bucket::from_name(b.name()), Some(b));
        }
        assert_eq!(Counter::from_name("faults"), None);
        assert_eq!(Bucket::from_name("hw"), None);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.incr(Counter::Fault);
        a.add(Counter::PageLoad, 5);
        let mut b = Counters::new();
        b.add(Counter::Fault, 9);
        b.add(Counter::Eviction, 0);
        a.merge(&b);
        assert_eq!(a[Counter::Fault], 10);
        assert_eq!(a[Counter::PageLoad], 5);
        let names: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            ["eviction", "fault", "page_load"],
            "merge carries zeros"
        );
        assert!(!a.is_empty());
        assert!(Counters::new().is_empty());
    }

    #[test]
    fn counters_iterate_sorted() {
        let mut c = Counters::new();
        c.incr(Counter::TransferRetry);
        c.incr(Counter::BusStalled);
        let names: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["bus_stalled", "transfer_retry"]);
    }

    #[test]
    fn zero_add_is_listed_and_compared() {
        let mut c = Counters::new();
        c.add(Counter::Prefetch, 0);
        assert!(!c.is_empty());
        assert_eq!(c.iter().collect::<Vec<_>>(), [("prefetch", 0)]);
        assert_ne!(c, Counters::new(), "a touched zero differs from absent");
    }

    #[test]
    fn by_name_reader_is_compatible() {
        let mut c = Counters::new();
        c.add(Counter::PageWriteback, 4);
        assert_eq!(c.get("page_writeback"), 4);
        assert_eq!(c.get("page_load"), 0, "untouched");
        assert_eq!(c.get("never"), 0, "unknown names read zero");
        let mut t = TimeBuckets::new();
        t.add(Bucket::SwImu, SimTime::from_us(3));
        assert_eq!(t.get("sw_imu"), SimTime::from_us(3));
        assert_eq!(t.get("hw"), SimTime::ZERO);
    }

    #[test]
    fn debug_text_matches_the_map_rendering() {
        let mut c = Counters::new();
        c.add(Counter::PageLoad, 5);
        c.add(Counter::Eviction, 2);
        c.add(Counter::Fault, 0);
        assert_eq!(
            format!("{c:?}"),
            r#"Counters { values: {"eviction": 2, "fault": 0, "page_load": 5} }"#
        );
        assert_eq!(
            format!("{c:#?}"),
            "Counters {\n    values: {\n        \"eviction\": 2,\n        \"fault\": 0,\n        \"page_load\": 5,\n    },\n}"
        );
        assert_eq!(format!("{:?}", Counters::new()), "Counters { values: {} }");

        // Field for field what the name-keyed map type derived.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Shadow {
            values: BTreeMap<&'static str, u64>,
        }
        let mut full = Counters::new();
        for (i, &k) in Counter::ALL.iter().enumerate() {
            full.add(k, i as u64 * 7);
        }
        let shadow = Shadow {
            values: full.iter().collect(),
        };
        for (ours, map) in [
            (format!("{full:?}"), format!("{shadow:?}")),
            (format!("{full:#?}"), format!("{shadow:#?}")),
        ] {
            assert_eq!(ours, map.replacen("Shadow", "Counters", 1));
        }

        let mut t = TimeBuckets::new();
        t.add(Bucket::SwDp, SimTime::from_ps(7));
        assert_eq!(
            format!("{t:?}"),
            r#"TimeBuckets { values: {"sw_dp": SimTime(7)} }"#
        );
    }

    #[test]
    fn buckets_total_and_merge() {
        let mut t = TimeBuckets::new();
        t.add(Bucket::SwDp, SimTime::from_us(3));
        t.add(Bucket::SwImu, SimTime::from_us(7));
        assert_eq!(t.total(), SimTime::from_us(10));
        let mut u = TimeBuckets::new();
        u.add(Bucket::SwDp, SimTime::from_us(1));
        t.merge(&u);
        assert_eq!(t[Bucket::SwDp], SimTime::from_us(4));
    }

    #[test]
    fn buckets_exclusion_and_share() {
        let mut t = TimeBuckets::new();
        t.add(Bucket::SwDp, SimTime::from_us(6));
        t.add(Bucket::SwImu, SimTime::from_us(2));
        t.add(Bucket::DmaHidden, SimTime::from_us(2));
        assert_eq!(t.total_excluding(&[Bucket::DmaHidden]), SimTime::from_us(8));
        assert_eq!(t.total_excluding(&[]), t.total());
        assert!((t.share(Bucket::SwDp) - 0.6).abs() < 1e-9);
        assert_eq!(TimeBuckets::new().share(Bucket::SwDp), 0.0);
    }

    #[test]
    fn display_contains_entries() {
        let mut c = Counters::new();
        c.add(Counter::Fault, 3);
        assert!(c.to_string().contains("fault"));
        let mut t = TimeBuckets::new();
        t.add(Bucket::SwDp, SimTime::from_ms(1));
        assert!(t.to_string().contains("1.000 ms"));
    }
}
