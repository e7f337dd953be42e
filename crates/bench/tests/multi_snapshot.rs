//! Exact timing snapshot of the multi-tenant engine.
//!
//! Three deterministic `MultiSystem` runs are rendered as text — the
//! `Debug` form of each `MultiReport` plus the `started`/`finished`
//! instants of every completed request — and compared byte for byte
//! with `snapshots/multi_timing.txt`. Any change to the simulated
//! picoseconds, counters or scheduling order of the serving engine
//! shows up as a diff here, however the engine is restructured.
//!
//! A deliberate timing change regenerates the file with
//! `VCOP_BLESS=1 cargo test -p vcop-bench --test multi_snapshot`.

use std::fmt::Write as _;

use vcop::{
    FallbackFn, FaultPlan, FaultSite, MultiSystem, MultiSystemBuilder, SchedulerKind,
    SoftwareFallback,
};
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::idea::hw as idea_hw;
use vcop_apps::timing;
use vcop_bench::serving::AppKind;

const SNAPSHOT: &str = include_str!("snapshots/multi_timing.txt");

fn adpcm_fallback() -> Box<dyn SoftwareFallback> {
    Box::new(FallbackFn::new("adpcm-sw", |io, params| {
        let n = params[0] as usize;
        let input = io.object(adpcm_hw::OBJ_INPUT).ok_or("input not mapped")?[..n].to_vec();
        let (samples, cpu) = timing::adpcm_sw(&input);
        let out = io
            .object_mut(adpcm_hw::OBJ_OUTPUT)
            .ok_or("output not mapped")?;
        for (chunk, s) in out.chunks_exact_mut(2).zip(&samples) {
            chunk.copy_from_slice(&(*s as u16).to_le_bytes());
        }
        Ok(cpu)
    }))
}

/// Software IDEA encryption under the serving workload's key.
fn idea_fallback() -> Box<dyn SoftwareFallback> {
    Box::new(FallbackFn::new("idea-sw", |io, _params| {
        let packed = io.object(idea_hw::OBJ_INPUT).ok_or("input not mapped")?;
        let plaintext = idea_cipher::unpack_words(packed);
        let key = idea_cipher::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);
        let (ciphertext, cpu) = timing::idea_sw(&plaintext, key);
        let out = io
            .object_mut(idea_hw::OBJ_OUTPUT)
            .ok_or("output not mapped")?;
        out.copy_from_slice(&idea_cipher::pack_words(&ciphertext));
        Ok(cpu)
    }))
}

/// Admits `weights.len()` tenants alternating adpcm/IDEA kinds and
/// queues `per_tenant` requests for each, with the expected outputs.
fn admit_mix(
    sys: &mut MultiSystem,
    weights: &[u32],
    per_tenant: usize,
    fallbacks: bool,
) -> Vec<(vcop_imu::tlb::Asid, Vec<Vec<u8>>)> {
    let device = *sys.device();
    let mut tenants = Vec::new();
    for (t, &weight) in weights.iter().enumerate() {
        let kind = if t % 2 == 0 {
            AppKind::Adpcm
        } else {
            AppKind::Idea
        };
        let asid = sys
            .add_tenant(
                &format!("{}{t}", kind.name()),
                weight,
                kind.cp_freq(),
                kind.imu_freq(),
                &kind.bitstream(&device),
                kind.core(),
            )
            .expect("admit tenant");
        if fallbacks {
            let fb = match kind {
                AppKind::Adpcm => adpcm_fallback(),
                AppKind::Idea => idea_fallback(),
            };
            sys.set_software_fallback(asid, fb);
        }
        let mut expects = Vec::new();
        for r in 0..per_tenant {
            let (req, expect) = kind.request(t * per_tenant + r);
            sys.submit(asid, req);
            expects.push(expect);
        }
        tenants.push((asid, expects));
    }
    tenants
}

/// Runs `sys`, checks every output against its software reference and
/// renders the report and request timeline.
fn render(
    label: &str,
    mut sys: MultiSystem,
    tenants: Vec<(vcop_imu::tlb::Asid, Vec<Vec<u8>>)>,
) -> String {
    let report = sys.run().expect("snapshot run completes");
    let mut out = format!("== {label}\n{report:#?}\n");
    for (asid, expects) in tenants {
        let completed = sys.take_completed(asid);
        assert_eq!(completed.len(), expects.len(), "{label}: queue drained");
        for (i, (c, expect)) in completed.iter().zip(&expects).enumerate() {
            assert_eq!(&c.outputs[0].1, expect, "{label}: {asid:?} request {i}");
            writeln!(
                out,
                "asid {} request {i}: started {} ps, finished {} ps",
                asid.0,
                c.started.as_ps(),
                c.finished.as_ps()
            )
            .expect("write to string");
        }
    }
    out
}

fn snapshot_text() -> String {
    let mut text = String::new();

    // The serving mix: 8 tenants alternating adpcm/IDEA on 16 shared
    // EPXA4 frames under round-robin.
    let mut sys = MultiSystemBuilder::epxa4()
        .scheduler(SchedulerKind::RoundRobin)
        .frame_limit(16)
        .build();
    let tenants = admit_mix(&mut sys, &[1; 8], 2, false);
    text += &render("round-robin, 8 tenants, 16 shared frames", sys, tenants);

    // Weighted fair sharing over partitioned frames.
    let mut sys = MultiSystemBuilder::epxa4()
        .scheduler(SchedulerKind::DeficitRoundRobin)
        .partition(true)
        .build();
    let tenants = admit_mix(&mut sys, &[1, 2, 3, 1], 3, false);
    text += &render("deficit, 4 weighted tenants, partitioned", sys, tenants);

    // Corrupt transfers absorbed by retries, plus one lost transfer
    // that aborts a tenant onto its software fallback.
    let plan = FaultPlan::new(23)
        .rate(FaultSite::DmaCorrupt, 0.05)
        .once(FaultSite::DmaTimeout, 9);
    let mut sys = MultiSystemBuilder::epxa4()
        .scheduler(SchedulerKind::RoundRobin)
        .frame_limit(16)
        .faults(plan)
        .build();
    let tenants = admit_mix(&mut sys, &[1; 8], 2, true);
    text += &render("dma corrupt 0.05 with fallbacks", sys, tenants);
    text
}

#[test]
fn multi_system_timing_matches_snapshot() {
    let text = snapshot_text();
    if std::env::var_os("VCOP_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/multi_timing.txt"
        );
        std::fs::write(path, &text).expect("write snapshot");
        return;
    }
    if text != SNAPSHOT {
        let line = text
            .lines()
            .zip(SNAPSHOT.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(SNAPSHOT.lines().count()));
        panic!(
            "multi-tenant timing drifted from the snapshot at line {}:\n  now:  {:?}\n  was:  {:?}",
            line + 1,
            text.lines().nth(line),
            SNAPSHOT.lines().nth(line)
        );
    }
}
