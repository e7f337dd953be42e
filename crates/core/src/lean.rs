//! The lean transaction engine shared by [`System`](crate::System) and
//! [`MultiSystem`](crate::MultiSystem).
//!
//! In the synchronous steady state (non-pipelined IMU, nothing the
//! paging layer can complete behind the coprocessor's back) the whole
//! accept→translate→complete span of a hitting access is deterministic,
//! so it runs as one fused transaction instead of five-plus scheduler
//! iterations, and a computing coprocessor burst runs as one
//! skip-plus-step round. Each engine decides when the steady state
//! holds; this module only runs it.

use vcop_fabric::port::{Coprocessor, CoprocessorPort, PortLink};
use vcop_imu::imu::Imu;
use vcop_sim::clock::ClockDomain;
use vcop_sim::mem::DualPortRam;
use vcop_sim::sched::Wake;
use vcop_sim::time::SimTime;
use vcop_sim::trace::TraceSink;

/// What one [`run_fused`] span did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedSpan {
    /// Coprocessor cycles consumed.
    pub(crate) cp_cycles: u64,
    /// The caller's edge count just after the acceptance edge of the
    /// span's last TLB-hitting access — the count at which the
    /// reference loop first observes that hit — or `None` if no access
    /// in the span hit.
    pub(crate) last_hit_edge: Option<u64>,
}

/// Runs fused transactions and compute bursts until a milestone the
/// lean path cannot prove idle — a fault, `CP_FIN`, param-done,
/// pipelining, a blocked pair, or budget proximity. `edges` is advanced
/// by every edge consumed and never reaches `budget`, so the caller's
/// generic event loop takes over exactly where the reference loop would
/// be; a caller with a no-progress watchdog passes its deadline as the
/// budget.
///
/// The caller must guarantee that no component outside the
/// IMU/coprocessor pair can act during the span (no DMA transfer can
/// complete and no demand stall is pending).
// Always inlined: an out-of-line call taking `&mut edges` would force
// each caller's edge counter into memory for its whole event loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn run_fused(
    imu: &mut Imu,
    port: &mut CoprocessorPort,
    cp: &mut dyn Coprocessor,
    dpram: &mut DualPortRam,
    trace: &mut TraceSink,
    imu_clock: &mut ClockDomain,
    cp_clock: &mut ClockDomain,
    edges: &mut u64,
    budget: u64,
) -> FusedSpan {
    let mut n = *edges;
    let mut cp_cycles = 0u64;
    let mut last_hit_edge = None;
    let mut hits = imu.tlb().hits();
    loop {
        if !imu.lean_ready() || port.fin_pending() || port.param_done_pending() {
            break;
        }
        if port.outstanding_len() > 0 {
            // A pending access: fuse accept → completion.
            let lat = imu.fused_latency();
            let t_accept = imu_clock.next_edge();
            let Some(t_comp) = Wake::In(lat).at(t_accept, imu_clock.period()) else {
                break;
            };
            // The coprocessor must be provably asleep until the
            // completion edge, or the completed data would become
            // visible at the wrong cycle.
            let quiescent = match cp
                .next_wake(port)
                .at(cp_clock.next_edge(), cp_clock.period())
            {
                None => true,
                Some(t) => t >= t_comp,
            };
            if !quiescent {
                break;
            }
            let cp_skip = cp_clock.edges_before_short(t_comp);
            if n + lat + cp_skip >= budget {
                break;
            }
            let mut link = PortLink::new(port);
            if !imu.fused_access(t_accept, t_comp, &mut link, dpram, trace) {
                // Would fault: the generic loop raises it.
                break;
            }
            if imu.tlb().hits() != hits {
                hits = imu.tlb().hits();
                // The reference loop pops the coprocessor edges before
                // acceptance, then the acceptance edge (the IMU wins
                // ties), where the CAM match counts the hit.
                last_hit_edge = Some(n + cp_clock.edges_before_short(t_accept) + 1);
            }
            imu_clock.consume_edges(lat);
            n += lat;
            if cp_skip > 0 {
                cp_clock.consume_edges(cp_skip);
                cp.skip(cp_skip);
                cp_cycles += cp_skip;
                n += cp_skip;
            }
            continue;
        }
        // Nothing issued: the coprocessor is computing. Skip straight
        // to its wake edge and step it once.
        let Wake::In(k) = cp.next_wake(port) else {
            // Both sides blocked: the generic hang path.
            break;
        };
        let k = k.max(1);
        let Some(t_cp) = Wake::In(k).at(cp_clock.next_edge(), cp_clock.period()) else {
            break;
        };
        // IMU edges at or before the step (ties go to the IMU, which is
        // provably idle here) are bulk-idled.
        let imu_skip = imu_clock.edges_before_short(t_cp + SimTime::from_ps(1));
        if n + imu_skip + k >= budget {
            break;
        }
        if imu_skip > 0 {
            let last = imu_clock.next_edge()
                + SimTime::from_ps(imu_clock.period().as_ps() * (imu_skip - 1));
            imu_clock.consume_edges(imu_skip);
            imu.skip_idle_edges(imu_skip, last);
            n += imu_skip;
        }
        if k > 1 {
            cp_clock.consume_edges(k - 1);
            cp_cycles += k - 1;
            n += k - 1;
            cp.skip(k - 1);
        }
        cp_clock.advance();
        n += 1;
        cp_cycles += 1;
        cp.step(port);
    }
    *edges = n;
    FusedSpan {
        cp_cycles,
        last_hit_edge,
    }
}
