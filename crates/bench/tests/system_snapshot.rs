//! Exact timing snapshot of the single-tenant engine.
//!
//! Every Fig. 7, Fig. 8 and Fig. 9 point and every ablation arm (plus
//! a few fault-recovery runs) is rendered as the `Debug` text of its
//! `ExecutionReport` — simulated picoseconds, decomposition, counters
//! and fault-latency histogram — and compared byte for byte with
//! `snapshots/system_timing.txt`. Any drift in what `System` models
//! shows up here, however the engine or its statistics are
//! restructured.
//!
//! A deliberate timing change regenerates the file with
//! `VCOP_BLESS=1 cargo test -p vcop-bench --test system_snapshot`.

use std::fmt::Write as _;

use vcop::{
    Direction, ElemSize, ExecutionReport, FallbackFn, FaultPlan, FaultSite, MapHints, PolicyKind,
    PrefetchMode, RecoveryPolicy, SystemBuilder, TransferMode,
};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::timing;
use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
use vcop_bench::experiments::{
    adpcm_vim, idea_vim, matmul_vim, AdpcmHarness, ExperimentOptions, IdeaHarness,
};
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::DeviceProfile;

const SNAPSHOT: &str = include_str!("snapshots/system_timing.txt");

/// Appends one labelled report.
fn push(text: &mut String, label: &str, report: &ExecutionReport) {
    writeln!(text, "== {label}\n{report:#?}").expect("write to string");
}

/// The Fig. 7 run: a four-element vector add on the traced prototype.
fn fig7_report() -> ExecutionReport {
    let mut system = SystemBuilder::epxa1()
        .clocks(
            vcop_sim::time::Frequency::from_mhz(40),
            vcop_sim::time::Frequency::from_mhz(40),
        )
        .trace(true)
        .build();
    let bitstream = Bitstream::builder("vecadd").synthetic_payload(1024).build();
    system
        .fpga_load(&bitstream.to_bytes(), Box::new(VecAddCoprocessor::new()))
        .expect("load vecadd");
    let n = 4u32;
    let words =
        |f: fn(u32) -> u32| -> Vec<u8> { (0..n).flat_map(|x| f(x).to_le_bytes()).collect() };
    for (id, data, dir) in [
        (OBJ_A, words(|x| x), Direction::In),
        (OBJ_B, words(|x| 10 * x), Direction::In),
        (OBJ_C, vec![0u8; 4 * n as usize], Direction::Out),
    ] {
        system
            .fpga_map_object(id, data, ElemSize::U32, dir, MapHints::default())
            .expect("map vecadd object");
    }
    system.fpga_execute(&[n]).expect("execute vecadd")
}

/// One 4 KB adpcmdecode request under `plan` with recovery and the
/// software twin armed; the output must match software either way.
fn recovery_report(plan: FaultPlan, overlap: bool) -> ExecutionReport {
    let pcm = adpcm_codec::synthetic_pcm(8 * 1024);
    let coded = adpcm_codec::encode(&pcm, &mut ());
    let (expected, _) = timing::adpcm_sw(&coded);
    let mut builder = SystemBuilder::epxa1()
        .clocks(timing::ADPCM_CORE_FREQ, timing::ADPCM_IMU_FREQ)
        .faults(plan)
        .recovery(RecoveryPolicy::default());
    if overlap {
        builder = builder.overlap(true).dma_channels(2);
    }
    let mut system = builder.build();
    system.set_software_fallback(Box::new(FallbackFn::new("adpcm-sw", |io, params| {
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
    })));
    let bs = Bitstream::builder("adpcmdecode")
        .synthetic_payload(2048)
        .build();
    system
        .fpga_load(&bs.to_bytes(), Box::new(adpcm_hw::AdpcmCoprocessor::new()))
        .expect("load adpcm core");
    let hints = MapHints {
        sequential: true,
        ..Default::default()
    };
    system
        .fpga_map_object(
            adpcm_hw::OBJ_INPUT,
            coded.clone(),
            ElemSize::U8,
            Direction::In,
            hints,
        )
        .expect("map input");
    system
        .fpga_map_object(
            adpcm_hw::OBJ_OUTPUT,
            vec![0; coded.len() * 4],
            ElemSize::U16,
            Direction::Out,
            hints,
        )
        .expect("map output");
    let report = system
        .fpga_execute(&[coded.len() as u32])
        .expect("recovered or fallen back");
    let out = system.take_object(adpcm_hw::OBJ_OUTPUT).expect("mapped");
    assert_eq!(adpcm_codec::samples_from_bytes(&out), expected);
    report
}

fn snapshot_text() -> String {
    let mut text = String::new();
    let base = ExperimentOptions::default();

    push(&mut text, "fig7 vecadd 4 words", &fig7_report());
    for kb in [2, 4, 8] {
        push(
            &mut text,
            &format!("fig8 adpcm {kb} KB"),
            &adpcm_vim(kb, &base).report,
        );
    }
    for kb in [4, 8, 16, 32] {
        push(
            &mut text,
            &format!("fig9 IDEA {kb} KB"),
            &idea_vim(kb, &base).report,
        );
    }

    // abl-pipe (depth 1 is the fig9 8 KB point).
    let deep = ExperimentOptions {
        pipeline_depth: 4,
        ..base
    };
    push(
        &mut text,
        "pipeline depth 4, IDEA 8 KB",
        &idea_vim(8, &deep).report,
    );

    // abl-xfer (double transfers are the fig8 8 KB point).
    for (name, opts) in [
        (
            "single",
            ExperimentOptions {
                transfer: TransferMode::Single,
                ..base
            },
        ),
        ("single + skip OUT loads", ExperimentOptions::improved()),
        (
            "DMA + skip OUT loads",
            ExperimentOptions {
                transfer: TransferMode::Dma,
                skip_out_page_load: true,
                ..base
            },
        ),
    ] {
        push(
            &mut text,
            &format!("transfer {name}, adpcm 8 KB"),
            &adpcm_vim(8, &opts).report,
        );
    }

    // abl-policy: IDEA 32 KB and the strided matrix multiply.
    for kind in [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Clock,
        PolicyKind::Adaptive,
    ] {
        for (pname, prefetch) in [
            ("none", PrefetchMode::None),
            ("next-page", PrefetchMode::NextPage { degree: 1 }),
        ] {
            let opts = ExperimentOptions {
                policy: kind,
                prefetch,
                ..base
            };
            if kind != PolicyKind::Adaptive && (kind, prefetch) != (base.policy, base.prefetch) {
                push(
                    &mut text,
                    &format!("policy {kind} prefetch {pname}, IDEA 32 KB"),
                    &idea_vim(32, &opts).report,
                );
            }
            push(
                &mut text,
                &format!("policy {kind} prefetch {pname}, matmul 64"),
                &matmul_vim(64, &opts).report,
            );
        }
    }

    // abl-overlap: each workload swept through one warmed-up system.
    let overlap_configs = [
        (
            "sync, prefetch d1",
            PrefetchMode::NextPage { degree: 1 },
            false,
            1,
        ),
        ("overlap, no prefetch", PrefetchMode::None, true, 2),
        (
            "overlap d1, 1 ch",
            PrefetchMode::NextPage { degree: 1 },
            true,
            1,
        ),
        (
            "overlap d1, 2 ch",
            PrefetchMode::NextPage { degree: 1 },
            true,
            2,
        ),
        (
            "overlap d1, 4 ch",
            PrefetchMode::NextPage { degree: 1 },
            true,
            4,
        ),
        (
            "overlap d2, 2 ch",
            PrefetchMode::NextPage { degree: 2 },
            true,
            2,
        ),
    ];
    let mut adpcm = AdpcmHarness::new(8, &base);
    let mut idea = IdeaHarness::new(32, &base);
    for (name, prefetch, overlap, dma_channels) in overlap_configs {
        let opts = ExperimentOptions {
            prefetch,
            overlap,
            dma_channels,
            ..base
        };
        adpcm.reconfigure(&opts);
        push(
            &mut text,
            &format!("{name}, adpcm 8 KB"),
            &adpcm.run().report,
        );
        idea.reconfigure(&opts);
        push(
            &mut text,
            &format!("{name}, IDEA 32 KB"),
            &idea.run().report,
        );
    }

    // abl-device (EPXA1 is the fig9 32 KB point).
    for device in [DeviceProfile::epxa4(), DeviceProfile::epxa10()] {
        let opts = ExperimentOptions { device, ..base };
        push(
            &mut text,
            &format!("device {}, IDEA 32 KB", device.kind),
            &idea_vim(32, &opts).report,
        );
    }

    // abl-pagesize (2 KB pages are the default).
    for page_bytes in [512usize, 1024, 4096] {
        let opts = ExperimentOptions {
            device: DeviceProfile::epxa1().with_page_bytes(page_bytes),
            ..base
        };
        push(
            &mut text,
            &format!("page {page_bytes} B, IDEA 32 KB"),
            &idea_vim(32, &opts).report,
        );
        push(
            &mut text,
            &format!("page {page_bytes} B, matmul 64"),
            &matmul_vim(64, &opts).report,
        );
    }

    // abl-sens (100% is the default).
    for pct in [50u32, 200, 400] {
        let opts = ExperimentOptions {
            os_overhead_pct: pct,
            ..base
        };
        push(
            &mut text,
            &format!("OS overheads {pct}%, adpcm 8 KB"),
            &adpcm_vim(8, &opts).report,
        );
        push(
            &mut text,
            &format!("OS overheads {pct}%, IDEA 32 KB"),
            &idea_vim(32, &opts).report,
        );
    }

    // Recovery: retries, the no-progress watchdog, fabric resets and
    // the software fallback, synchronous and overlapped.
    let recovery_runs = [
        (
            "dropped fault IRQ",
            FaultPlan::new(7).once(FaultSite::IrqDrop, 1),
            false,
        ),
        (
            "delayed fault IRQs",
            FaultPlan::new(8).rate(FaultSite::IrqDelay, 0.3),
            false,
        ),
        (
            "TLB parity upsets",
            FaultPlan::new(9).rate(FaultSite::TlbParity, 0.2),
            false,
        ),
        (
            "corrupt DMA, overlapped",
            FaultPlan::new(11).rate(FaultSite::DmaCorrupt, 0.2),
            true,
        ),
        (
            "lost demand DMA, overlapped",
            FaultPlan::new(5).once(FaultSite::DmaTimeout, 1),
            true,
        ),
        (
            "every transfer corrupt (fallback)",
            FaultPlan::new(3).rate(FaultSite::DmaCorrupt, 1.0),
            true,
        ),
    ];
    for (name, plan, overlap) in recovery_runs {
        push(
            &mut text,
            &format!("recovery: {name}, adpcm 4 KB"),
            &recovery_report(plan, overlap),
        );
    }
    text
}

#[test]
fn system_timing_matches_snapshot() {
    let text = snapshot_text();
    if std::env::var_os("VCOP_BLESS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/snapshots/system_timing.txt"
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
            "single-tenant timing drifted from the snapshot at line {}:\n  now:  {:?}\n  was:  {:?}",
            line + 1,
            text.lines().nth(line),
            SNAPSHOT.lines().nth(line)
        );
    }
}
