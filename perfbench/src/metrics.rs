//! The metric registry: every metric the benchmark reports, by name,
//! with its unit and direction. `BENCHMARK.json` lists the same set.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Units starting with
/// `sim` are simulated (modelled-platform) time; all others are host.
pub const END_TO_END: &[Def] = &[
    def("host_requests_per_s", "1/s", Higher),
    def("sim_cycles_per_s", "cycles/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("sim_speedup_vs_sw", "x", Higher),
    def("sim_overhead_share", "ratio", Lower),
    def("sim_requests_per_s", "1/sim_s", Higher),
    def("sim_latency_us_p50", "sim_us", Lower),
    def("sim_latency_us_p99", "sim_us", Lower),
    def("success_rate", "ratio", Higher),
    def("hw_availability", "ratio", Higher),
];

/// Per-layer metrics, from the traced run and the public reports.
/// Counts marked `1/req` are per request served.
pub const PER_LAYER: &[Def] = &[
    def("core.execute_ms", "ms", Lower),
    def("core.execute_self_ms", "ms", Lower),
    def("core.map_us", "us", Lower),
    def("core.take_us", "us", Lower),
    def("core.load_ms", "ms", Lower),
    def("core.multi_run_ms", "ms", Lower),
    def("core.recovery_us", "sim_us", Lower),
    def("core.execute_attempts", "1/req", Lower),
    def("fabric.cp_step_calls", "1/req", Lower),
    def("fabric.cp_step_ms", "ms", Lower),
    def("fabric.cp_next_wake_calls", "1/req", Lower),
    def("fabric.cp_skip_calls", "1/req", Lower),
    def("fabric.cp_cycles", "1/req", Lower),
    def("fabric.load_sim_ms", "sim_ms", Lower),
    def("imu.tlb_hits", "1/req", Higher),
    def("imu.tlb_misses", "1/req", Lower),
    def("imu.hit_rate", "ratio", Higher),
    def("imu.edges", "1/req", Lower),
    def("imu.sw_imu_us", "sim_us", Lower),
    def("vim.faults", "1/req", Lower),
    def("vim.page_loads", "1/req", Lower),
    def("vim.page_writebacks", "1/req", Lower),
    def("vim.evictions", "1/req", Lower),
    def("vim.prefetches", "1/req", Higher),
    def("vim.sw_dp_us", "sim_us", Lower),
    def("vim.fault_stall_us_mean", "sim_us", Lower),
    def("vim.fault_stall_us_max", "sim_us", Lower),
    def("vim.transfer_retries", "1/req", Lower),
    def("vim.cross_asid_steals", "1/req", Lower),
    def("vim.fault_on_loading", "1/req", Lower),
    def("sim.dma_transfers", "1/req", Lower),
    def("sim.dma_cancelled_ratio", "ratio", Lower),
    def("sim.dma_hidden_us", "sim_us", Higher),
    def("sim.overlap_saved_us", "sim_us", Higher),
    def("sim.injected_faults", "1/req", Lower),
    def("sim.watchdog_resets", "1/req", Lower),
    def("sched.ctx_switches", "1/req", Lower),
    def("sched.ctx_switch_us", "sim_us", Lower),
    def("sched.stall_us", "sim_us", Lower),
    def("sched.fabric_busy_share_min", "ratio", Higher),
    def("sched.fabric_busy_share_max", "ratio", Higher),
    def("apps.sw_ref_ms", "ms", Lower),
    def("apps.fallback_calls", "1/req", Lower),
    def("apps.fallback_ms", "ms", Lower),
    def("bench.verify_ms", "ms", Lower),
    def("bench.trace_overhead", "ratio", Higher),
];

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Values for one fixed set of metric definitions. Only defined names
/// can be set, each exactly once, and rendering fails until every one
/// has a value: a misspelt or forgotten metric is an error, never a
/// silent zero.
#[derive(Debug)]
pub struct Registry {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Registry {
    /// A registry over `defs`.
    ///
    /// # Errors
    ///
    /// A name outside `[A-Za-z0-9_.-]` (or not starting with a letter
    /// or digit, or longer than 64), a bad unit, or a duplicate name.
    pub fn new(defs: &'static [Def]) -> Result<Self, String> {
        for (i, d) in defs.iter().enumerate() {
            if !valid_name(d.name) {
                return Err(format!("invalid metric name {:?}", d.name));
            }
            if !valid_unit(d.unit) {
                return Err(format!("invalid unit {:?} for {}", d.unit, d.name));
            }
            if defs[..i].iter().any(|e| e.name == d.name) {
                return Err(format!("duplicate metric name {}", d.name));
            }
        }
        Ok(Registry {
            defs,
            values: vec![None; defs.len()],
        })
    }

    /// Records `value` for `name`.
    ///
    /// # Errors
    ///
    /// An unknown name, a second value for the same name, or a value
    /// that is not finite.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| format!("unknown metric {name:?}"))?;
        if !value.is_finite() {
            return Err(format!("{name} = {value} is not finite"));
        }
        if self.values[i].is_some() {
            return Err(format!("{name} set twice"));
        }
        self.values[i] = Some(value);
        Ok(())
    }

    /// The `"metrics"` JSON object: `{"name": {"value": v, "unit": u}, ...}`.
    ///
    /// # Errors
    ///
    /// Names the first metric that has no value.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.defs.len());
        for (d, v) in self.defs.iter().zip(&self.values) {
            let v = v.ok_or_else(|| format!("metric {} was never set", d.name))?;
            parts.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// `name = value unit` lines for the human-readable report.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| match v {
            Some(v) => format!(
                "  {:<30} {v:>16.6} {} ({} is better)",
                d.name,
                d.unit,
                d.better.as_str()
            ),
            None => format!("  {:<30} {:>16} {}", d.name, "-", d.unit),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_definitions_are_valid() {
        Registry::new(END_TO_END).unwrap();
        Registry::new(PER_LAYER).unwrap();
    }

    #[test]
    fn rejects_bad_names_and_units() {
        static SPACE: [Def; 1] = [def("bad name", "ms", Lower)];
        static QUOTE: [Def; 1] = [def("bad\"name", "ms", Lower)];
        static LEADING_DOT: [Def; 1] = [def(".hidden", "ms", Lower)];
        static UNIT: [Def; 1] = [def("ok", "m s", Lower)];
        static DUP: [Def; 2] = [def("a", "ms", Lower), def("a", "ms", Lower)];
        for defs in [&SPACE[..], &QUOTE, &LEADING_DOT, &UNIT, &DUP] {
            assert!(Registry::new(defs).is_err(), "{defs:?} accepted");
        }
        static LONG: [Def; 1] = [def(
            "a234567890123456789012345678901234567890123456789012345678901234x",
            "ms",
            Lower,
        )];
        assert!(Registry::new(&LONG).is_err());
        static GOOD: [Def; 1] = [def("core.execute_ms-2_x", "1/req", Lower)];
        assert!(Registry::new(&GOOD).is_ok());
    }

    #[test]
    fn every_metric_must_be_set_once_by_known_name() {
        static DEFS: [Def; 2] = [def("a", "ms", Lower), def("b.c", "1/s", Higher)];
        let mut r = Registry::new(&DEFS).unwrap();
        assert!(r.set("nope", 1.0).is_err());
        assert!(r.set("a", f64::NAN).is_err());
        r.set("a", 1.5).unwrap();
        assert!(r.to_json().unwrap_err().contains("b.c"));
        assert!(r.set("a", 2.0).is_err());
        r.set("b.c", 0.1).unwrap();
        assert_eq!(
            r.to_json().unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b.c\": {\"value\": 0.1, \"unit\": \"1/s\"}}"
        );
    }

    #[test]
    fn benchmark_manifest_lists_the_same_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::WORKLOADS.len()
        );
    }
}
