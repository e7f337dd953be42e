//! The vcop benchmark: runs one workload for a fixed host time and
//! prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced and then traced, and
//! reports the per-layer metrics; the two runs must produce the same
//! simulated-statistics fingerprint. Human-readable lines come first;
//! the last line of standard output is one JSON object.

mod metrics;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use vcop_sim::time::SimTime;

use metrics::{Registry, END_TO_END, PER_LAYER};
use stats::{median, percentile, Fingerprint};
use trace::Trace;
use workloads::{Bench, Tally, Workload};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Fig. 9's band for the 32 KB IDEA point: 11–12× over software.
const PAPER_IDEA_SPEEDUP_LOW: f64 = 11.0;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {value} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one benchmark run found.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    fingerprint: Fingerprint,
    metrics: Registry,
    notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()?
        ))
    }
}

/// Closed-loop calls until the pass is complete and `seconds` elapsed.
fn measure(bench: &mut Bench, seconds: f64, trace: Option<&Rc<Trace>>) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut i = 0;
    while i < bench.pass() || start.elapsed().as_secs_f64() < seconds {
        bench.call(i, trace, &mut tally);
        i += 1;
    }
    tally
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `total / n`, or 0 when nothing was counted.
fn mean(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn secs(t: SimTime) -> f64 {
    t.as_ms_f64() / 1e3
}

/// Exact percentile of the simulated latencies, in simulated µs.
fn sim_latency_us(latency: &[SimTime], q: f64) -> f64 {
    percentile(latency, q).map_or(0.0, |t| t.as_us_f64())
}

fn run_end_to_end(args: &Args, pass: usize) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(args.workload, args.seed, pass, None));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let t = measure(&mut bench, args.seconds, None);
    let m = &t.model;

    let mut r = Registry::new(END_TO_END)?;
    let n_calls = t.calls.len();
    let host_ms = t.host_ms();
    let speedup = secs(m.sw_ref) / secs(m.sim_time);
    r.set("host_requests_per_s", t.request_rate())?;
    r.set(
        "sim_cycles_per_s",
        t.calls.iter().map(|c| c.cycles).sum::<u64>() as f64 / t.host_s(),
    )?;
    let host_ms_at = |q| percentile(&host_ms, q).unwrap_or(0.0);
    r.set("setup_s", median(&setup_s).unwrap_or(0.0))?;
    r.set("peak_rss_mb", peak_rss_mb()?)?;
    r.set("sim_speedup_vs_sw", speedup)?;
    r.set(
        "sim_overhead_share",
        secs(m.sw_dp + m.sw_imu) / secs(m.sim_time),
    )?;
    r.set("sim_requests_per_s", m.requests as f64 / secs(m.sim_time))?;
    r.set("sim_latency_us_p50", sim_latency_us(&m.latency, 0.5))?;
    r.set("sim_latency_us_p99", sim_latency_us(&m.latency, 0.99))?;
    r.set("success_rate", 1.0 - t.failed as f64 / t.requests as f64)?;
    r.set("hw_availability", m.hw_served as f64 / m.requests as f64)?;

    let mut notes = vec![
        format!(
            "host ms per call (not metrics: they follow the host's speed levels): p5 {} p50 {} p99 {}, n = {n_calls} calls",
            host_ms_at(0.05),
            host_ms_at(0.5),
            host_ms_at(0.99)
        ),
        format!("setup_s: median of n = {SETUPS} set-ups"),
        format!(
            "sim_latency_us_p50, sim_latency_us_p99: n = {} requests of the fingerprinted pass",
            m.latency.len()
        ),
        format!(
            "error_rate = {} / {} = {}",
            t.failed,
            t.requests,
            t.failed as f64 / t.requests as f64
        ),
    ];
    if let Some(f) = &t.first_failure {
        notes.push(format!("first failure: {f}"));
    }
    if args.workload == Workload::IdeaStream {
        notes.push(format!(
            "sim_speedup_vs_sw {speedup:.4}x vs Fig. 9 (11-12x): error {:+.4} against the 11x band edge",
            (speedup - PAPER_IDEA_SPEEDUP_LOW) / PAPER_IDEA_SPEEDUP_LOW
        ));
    } else {
        notes.push("no paper reference; model unvalidated here".to_owned());
    }
    Ok(Outcome {
        correct: t.wrong == 0,
        attempted: t.requests,
        failed: t.failed,
        fingerprint: t.fingerprint,
        metrics: r,
        notes,
    })
}

fn run_traced(args: &Args, pass: usize) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let mut bench = Bench::setup(args.workload, args.seed, pass, None);
    let plain = measure(&mut bench, half, None);
    drop(bench);

    let trace = Trace::new();
    let mut bench = Bench::setup(args.workload, args.seed, pass, Some(&trace));
    let traced = measure(&mut bench, half, Some(&trace));

    let m = &traced.model;
    let l = &m.layers;
    let per = |x: u64| x as f64 / m.requests as f64;
    let us = |t: SimTime| t.as_us_f64() / m.requests as f64;
    let per_traced_request = |x: f64| x / traced.requests as f64;
    let mean_ms = |name: &str| {
        let (n, ms) = trace.total(name);
        mean(ms, n)
    };
    let (n_exec, exec_ms) = trace.total("core.execute");
    let callbacks_ms =
        trace.step.ms() + trace.next_wake.ms() + trace.skip.ms() + trace.fallback.ms();

    let mut r = Registry::new(PER_LAYER)?;
    r.set("core.execute_ms", mean_ms("core.execute"))?;
    r.set("core.execute_self_ms", mean(exec_ms - callbacks_ms, n_exec))?;
    r.set("core.map_us", mean_ms("core.map") * 1e3)?;
    r.set("core.take_us", mean_ms("core.take") * 1e3)?;
    r.set("core.load_ms", mean_ms("core.load"))?;
    r.set("core.multi_run_ms", mean_ms("core.multi_run"))?;
    r.set("core.recovery_us", us(l.recovery))?;
    r.set("core.execute_attempts", per(l.execute_attempts))?;
    r.set(
        "fabric.cp_step_calls",
        per_traced_request(trace.step.calls() as f64),
    )?;
    r.set("fabric.cp_step_ms", per_traced_request(trace.step.ms()))?;
    r.set(
        "fabric.cp_next_wake_calls",
        per_traced_request(trace.next_wake.calls() as f64),
    )?;
    r.set(
        "fabric.cp_skip_calls",
        per_traced_request(trace.skip.calls() as f64),
    )?;
    r.set("fabric.cp_cycles", per(l.cp_cycles))?;
    r.set("fabric.load_sim_ms", bench.load_time().as_ms_f64())?;
    r.set("imu.tlb_hits", per(l.tlb_hits))?;
    r.set("imu.tlb_misses", per(l.tlb_misses))?;
    r.set(
        "imu.hit_rate",
        if l.tlb_hits + l.tlb_misses == 0 {
            1.0
        } else {
            mean(l.tlb_hits as f64, l.tlb_hits + l.tlb_misses)
        },
    )?;
    r.set("imu.edges", per(l.imu_edges))?;
    r.set("imu.sw_imu_us", us(m.sw_imu))?;
    r.set("vim.faults", per(l.faults))?;
    r.set("vim.page_loads", per(l.page_loads))?;
    r.set("vim.page_writebacks", per(l.page_writebacks))?;
    r.set("vim.evictions", per(l.evictions))?;
    r.set("vim.prefetches", per(l.prefetches))?;
    r.set("vim.sw_dp_us", us(m.sw_dp))?;
    r.set(
        "vim.fault_stall_us_mean",
        mean(l.fault_stall.as_us_f64(), l.faults),
    )?;
    r.set("vim.fault_stall_us_max", l.fault_stall_max.as_us_f64())?;
    r.set("vim.transfer_retries", per(l.transfer_retries))?;
    r.set("vim.cross_asid_steals", per(l.cross_asid_steals))?;
    r.set("vim.fault_on_loading", per(l.fault_on_loading))?;
    r.set("sim.dma_transfers", per(l.dma_transfers))?;
    r.set(
        "sim.dma_cancelled_ratio",
        mean(l.dma_cancelled as f64, l.dma_transfers),
    )?;
    r.set("sim.dma_hidden_us", us(l.dma_hidden))?;
    r.set("sim.overlap_saved_us", us(l.overlap_saved))?;
    r.set("sim.injected_faults", per(l.injected_faults))?;
    r.set("sim.watchdog_resets", per(l.watchdog_resets))?;
    r.set("sched.ctx_switches", per(l.ctx_switches))?;
    r.set("sched.ctx_switch_us", us(l.ctx_switch))?;
    r.set("sched.stall_us", us(l.tenant_stall))?;
    let share = |f: fn(f64, f64) -> f64| l.busy_share.iter().copied().reduce(f).unwrap_or(0.0);
    r.set("sched.fabric_busy_share_min", share(f64::min))?;
    r.set("sched.fabric_busy_share_max", share(f64::max))?;
    r.set("apps.sw_ref_ms", bench.sw_ref_time().as_secs_f64() * 1e3)?;
    r.set("apps.fallback_calls", per(l.fallbacks))?;
    r.set(
        "apps.fallback_ms",
        mean(trace.fallback.ms(), trace.fallback.calls()),
    )?;
    r.set("bench.verify_ms", per_traced_request(traced.verify_s * 1e3))?;
    r.set(
        "bench.trace_overhead",
        traced.request_rate() / plain.request_rate(),
    )?;

    let same = plain.fingerprint == traced.fingerprint;
    let mut notes = vec![format!(
        "fingerprint untraced {} traced {}: {}",
        plain.fingerprint,
        traced.fingerprint,
        if same { "identical" } else { "DIFFERENT" }
    )];
    notes.extend(
        [&plain, &traced]
            .iter()
            .filter_map(|t| t.first_failure.as_ref())
            .map(|f| format!("first failure: {f}")),
    );
    let dir = ".bench_spans";
    let path = format!("{dir}/{}-seed{}.tsv", args.workload.name(), args.seed);
    fs::create_dir_all(dir)
        .and_then(|()| trace.write_spans(&mut BufWriter::new(fs::File::create(&path)?)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    notes.push(format!("spans written to {path}"));
    Ok(Outcome {
        correct: same && plain.wrong == 0 && traced.wrong == 0,
        attempted: plain.requests + traced.requests,
        failed: plain.failed + traced.failed,
        fingerprint: traced.fingerprint,
        metrics: r,
        notes,
    })
}

fn run(args: &Args, pass: usize) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args, pass)
    } else {
        run_end_to_end(args, pass)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args, args.workload.pass()).and_then(|o| o.json().map(|j| (o, j)));
    match outcome {
        Ok((o, json)) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            println!("fingerprint {}", o.fingerprint);
            for note in &o.notes {
                println!("{note}");
            }
            for line in o.metrics.lines() {
                println!("{line}");
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    /// A short pass per workload: enough calls to page, switch tenants
    /// and, under faults, reach every recovery tier.
    fn short_pass(w: Workload) -> usize {
        match w {
            Workload::FaultRecovery => 40,
            _ => 2,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(
            [
                "--workload",
                "serving_mix",
                "--seed",
                "3",
                "--seconds",
                "2.5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload, Workload::ServingMix);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.5, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "idea_stream", "--trace", "2"],
            &["--workload", "idea_stream", "--seconds", "-1"],
            &["--workload", "idea_stream", "--seed"],
            &["--seed", "1"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn smoke_every_workload_is_correct_and_repeatable() {
        for w in WORKLOADS {
            let pass = short_pass(w);
            let a = run(&args(w, false), pass).unwrap();
            let b = run(&args(w, false), pass).unwrap();
            assert!(a.correct, "{}: wrong output", w.name());
            assert_eq!(a.failed, 0, "{}: error_rate must be 0", w.name());
            a.json().unwrap();
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{}: fingerprint moved",
                w.name()
            );
        }
    }

    #[test]
    fn serving_replays_each_pass_on_a_fresh_platform() {
        let pass = 2;
        let mut bench = Bench::setup(Workload::ServingMix, 7, pass, None);
        let mut tally = Tally::default();
        for i in 0..3 * pass {
            bench.call(i, None, &mut tally);
        }
        assert_eq!(tally.failed, 0);
        let cycles: Vec<u64> = tally.calls.iter().map(|c| c.cycles).collect();
        assert_eq!(cycles[..pass], cycles[pass..2 * pass]);
        assert_eq!(cycles[..pass], cycles[2 * pass..]);
    }

    #[test]
    fn smoke_traced_run_reproduces_the_fingerprint() {
        for w in WORKLOADS {
            let o = run(&args(w, true), short_pass(w)).unwrap();
            assert!(o.correct, "{}: traced run diverged", w.name());
            assert_eq!(o.failed, 0);
            o.json().unwrap();
        }
        let _ = fs::remove_dir_all(".bench_spans");
    }
}
