//! The four workloads, their seeded inputs, and what each call records.
//!
//! Every workload is a closed loop: one call is issued only after the
//! previous one completed. A call is one request through `System`
//! (map, execute, take) or one round of `MultiSystem` serving (three
//! queued requests per tenant). The first `pass` calls form the fingerprinted
//! pass: the modelled metrics and the fingerprint are taken over them
//! only, so both are fixed by the seed, whatever the host speed. Host
//! metrics cover every call of the timed window.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vcop::{
    multi::CompletedRequest, Direction, ElemSize, FallbackFn, FaultPlan, FaultSite, MapHints,
    MultiReport, MultiSystem, MultiSystemBuilder, PrefetchMode, Request, RequestObject,
    SchedulerKind, SoftwareFallback, System, SystemBuilder,
};
use vcop_apps::adpcm::{codec as adpcm_codec, hw as adpcm_hw};
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::timing;
use vcop_bench::serving::AppKind;
use vcop_fabric::DeviceProfile;
use vcop_imu::imu::Imu;
use vcop_imu::tlb::Asid;
use vcop_sim::stats::Counters;
use vcop_sim::time::SimTime;
use vcop_vim::manager::Vim;

use crate::stats::{Fingerprint, Rng};
use crate::trace::{self, span, Trace};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9's 32 KB IDEA point on the paper prototype.
    IdeaStream,
    /// Fig. 8's 8 KB adpcmdecode with overlapped paging.
    AdpcmOverlap,
    /// 8 tenants on EPXA4 sharing a 16-frame pool.
    ServingMix,
    /// 4 KB adpcmdecode under injected faults with a software fallback.
    FaultRecovery,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::IdeaStream,
    Workload::AdpcmOverlap,
    Workload::ServingMix,
    Workload::FaultRecovery,
];

const SERVING_TENANTS: usize = 8;
/// Requests each tenant has queued per call; a tenant's requests run
/// one after another.
const SERVING_DEPTH: usize = 3;
const SERVING_FRAMES: usize = 16;
const SERVING_REQUEST_BYTES: usize = 1024;

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IdeaStream => "idea_stream",
            Workload::AdpcmOverlap => "adpcm_overlap",
            Workload::ServingMix => "serving_mix",
            Workload::FaultRecovery => "fault_recovery",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Calls in the fingerprinted pass. Sized so the pass holds at
    /// least 1000 requests where the modelled latency varies per
    /// request (the 99th percentile then has ten samples beyond it);
    /// on the two figure points every request takes the same simulated
    /// time. `fault_recovery` takes 2000: its modelled metrics depend
    /// on the seeded faults, and over 1000 requests their spread
    /// between seeds reached half the bound.
    pub fn pass(self) -> usize {
        match self {
            Workload::IdeaStream | Workload::AdpcmOverlap => 16,
            Workload::ServingMix => 1000usize.div_ceil(SERVING_TENANTS * SERVING_DEPTH),
            Workload::FaultRecovery => 2000,
        }
    }
}

/// Per-layer work done during the fingerprinted pass. Counts are
/// totals; `Tally::model.requests` turns them into per-request values.
#[derive(Debug, Default)]
pub struct Layers {
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub imu_edges: u64,
    pub cp_cycles: u64,
    pub faults: u64,
    pub page_loads: u64,
    pub page_writebacks: u64,
    pub evictions: u64,
    pub prefetches: u64,
    pub transfer_retries: u64,
    pub cross_asid_steals: u64,
    pub fault_on_loading: u64,
    pub dma_transfers: u64,
    pub dma_cancelled: u64,
    pub dma_hidden: SimTime,
    pub overlap_saved: SimTime,
    pub injected_faults: u64,
    pub watchdog_resets: u64,
    pub execute_attempts: u64,
    pub recovery: SimTime,
    pub fallbacks: u64,
    /// Demand-fault stalls: total and longest (single-tenant engine;
    /// `MultiSystem` reports only the total).
    pub fault_stall: SimTime,
    pub fault_stall_max: SimTime,
    pub ctx_switches: u64,
    pub ctx_switch: SimTime,
    pub tenant_stall: SimTime,
    /// Each tenant's fabric busy time over the pass's simulated time.
    pub busy_share: Vec<f64>,
}

/// Modelled-platform results of the fingerprinted pass.
#[derive(Debug, Default)]
pub struct Model {
    pub requests: u64,
    pub hw_served: u64,
    /// Simulated latency of each request; a failed request counts as
    /// `SimTime::MAX`, missing any latency limit.
    pub latency: Vec<SimTime>,
    /// Simulated time the pass took.
    pub sim_time: SimTime,
    /// Modelled pure-software time of the requests served.
    pub sw_ref: SimTime,
    pub sw_dp: SimTime,
    pub sw_imu: SimTime,
    pub layers: Layers,
}

/// Host time and work of one call into the program.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub ms: f64,
    /// Simulated coprocessor cycles plus IMU edges.
    pub cycles: u64,
}

/// Everything one timed window of a workload recorded.
#[derive(Debug, Default)]
pub struct Tally {
    pub calls: Vec<Call>,
    pub requests: u64,
    /// Requests that returned `Err` or wrong bytes.
    pub failed: u64,
    /// Requests that returned `Ok` with wrong bytes.
    pub wrong: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Host seconds the benchmark spent checking outputs.
    pub verify_s: f64,
    pub fingerprint: Fingerprint,
    pub model: Model,
}

impl Tally {
    fn record(&mut self, host: Duration, requests: u64, cycles: u64) {
        self.requests += requests;
        self.calls.push(Call {
            ms: host.as_secs_f64() * 1e3,
            cycles,
        });
    }

    /// Counts `requests` failed requests of call `call`: with `error`
    /// if the program returned one, as wrong bytes otherwise.
    fn fail(&mut self, call: usize, requests: u64, error: Option<&vcop::Error>) {
        self.failed += requests;
        if error.is_none() {
            self.wrong += requests;
        }
        self.first_failure.get_or_insert_with(|| match error {
            Some(e) => format!("call {call}: {e}"),
            None => format!("call {call}: wrong output bytes"),
        });
    }

    /// Host milliseconds of each call.
    pub fn host_ms(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.ms).collect()
    }

    /// Host seconds spent inside program calls.
    pub fn host_s(&self) -> f64 {
        self.calls.iter().map(|c| c.ms).sum::<f64>() / 1e3
    }

    /// Requests per host second spent inside program calls.
    pub fn request_rate(&self) -> f64 {
        self.requests as f64 / self.host_s()
    }
}

/// A workload's platform, warmed up and holding its seeded inputs.
#[derive(Debug)]
pub enum Bench {
    Single(Single),
    Serving(Serving),
}

impl Bench {
    /// Builds the platform, loads the bitstreams and generates the
    /// inputs with their software references.
    pub fn setup(workload: Workload, seed: u64, pass: usize, trace: Option<&Rc<Trace>>) -> Self {
        match workload {
            Workload::ServingMix => Bench::Serving(Serving::setup(seed, pass, trace)),
            w => Bench::Single(Single::setup(w, seed, pass, trace)),
        }
    }

    /// Runs call `i`, adding what it did to `tally`.
    pub fn call(&mut self, i: usize, trace: Option<&Rc<Trace>>, tally: &mut Tally) {
        match self {
            Bench::Single(s) => s.call(i, trace, tally),
            Bench::Serving(s) => s.call(i, trace, tally),
        }
    }

    /// Calls in the fingerprinted pass.
    pub fn pass(&self) -> usize {
        match self {
            Bench::Single(s) => s.pass,
            Bench::Serving(s) => s.pass,
        }
    }

    /// Host time spent computing the software references in setup.
    pub fn sw_ref_time(&self) -> Duration {
        match self {
            Bench::Single(s) => s.sw_ref_time,
            Bench::Serving(s) => s.sw_ref_time,
        }
    }

    /// Simulated configuration time of the bitstream load(s).
    pub fn load_time(&self) -> SimTime {
        match self {
            Bench::Single(s) => s.load_time,
            Bench::Serving(s) => s.load_time,
        }
    }
}

/// One generated request: the input object, the expected output bytes
/// and the modelled software time of the same computation.
#[derive(Debug)]
struct Job {
    input: Vec<u8>,
    input_elem: ElemSize,
    out_len: usize,
    params: Vec<u32>,
    expect: Vec<u8>,
    sw: SimTime,
}

const SEQUENTIAL: MapHints = MapHints {
    sequential: true,
    sticky: false,
};

impl Job {
    fn new(app: AppKind, bytes: usize, rng: &mut Rng, sw_ref_time: &mut Duration) -> Self {
        match app {
            AppKind::Idea => {
                let plaintext = rng.bytes(bytes);
                let start = Instant::now();
                let (ciphertext, sw) = timing::idea_sw(&plaintext, IDEA_KEY);
                *sw_ref_time += start.elapsed();
                let mut params = vec![(bytes / idea_cipher::BLOCK_BYTES) as u32];
                params.extend(idea_cipher::expand_key(IDEA_KEY).map(u32::from));
                Job {
                    input: idea_cipher::pack_words(&plaintext),
                    input_elem: ElemSize::U16,
                    out_len: bytes,
                    params,
                    expect: idea_cipher::pack_words(&ciphertext),
                    sw,
                }
            }
            AppKind::Adpcm => {
                // A bounded random walk: speech-like PCM that exercises
                // every step-size adaptation of the codec.
                let mut sample = 0i32;
                let pcm: Vec<i16> = (0..bytes * 2)
                    .map(|_| {
                        let step = (rng.next_u64() % 4097) as i32 - 2048;
                        sample = (sample + step).clamp(-32768, 32767);
                        sample as i16
                    })
                    .collect();
                let input = adpcm_codec::encode(&pcm, &mut ());
                let start = Instant::now();
                let (samples, sw) = timing::adpcm_sw(&input);
                *sw_ref_time += start.elapsed();
                Job {
                    input,
                    input_elem: ElemSize::U8,
                    out_len: bytes * 4,
                    params: vec![bytes as u32],
                    expect: adpcm_codec::samples_to_bytes(&samples),
                    sw,
                }
            }
        }
    }

    fn request(&self) -> Request {
        Request {
            objects: vec![
                RequestObject {
                    id: adpcm_hw::OBJ_INPUT,
                    data: self.input.clone(),
                    elem: self.input_elem,
                    direction: Direction::In,
                    hints: SEQUENTIAL,
                },
                RequestObject {
                    id: adpcm_hw::OBJ_OUTPUT,
                    data: vec![0; self.out_len],
                    elem: ElemSize::U16,
                    direction: Direction::Out,
                    hints: SEQUENTIAL,
                },
            ],
            params: self.params.clone(),
        }
    }
}

const IDEA_KEY: idea_cipher::IdeaKey = idea_cipher::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);

/// VIM and IMU statistics at one instant, for per-call deltas. Both
/// engines expose the same two components.
#[derive(Debug, Default)]
struct Snapshot {
    counters: Counters,
    sw_dp: SimTime,
    sw_imu: SimTime,
    dma_hidden: SimTime,
    tlb_hits: u64,
    tlb_misses: u64,
    imu_edges: u64,
}

impl Snapshot {
    fn take(vim: &Vim, imu: &Imu) -> Self {
        Snapshot {
            counters: vim.counters().clone(),
            sw_dp: vim.times().get("sw_dp"),
            sw_imu: vim.times().get("sw_imu"),
            dma_hidden: vim.times().get("dma_hidden"),
            tlb_hits: imu.tlb().hits(),
            tlb_misses: imu.tlb().misses(),
            imu_edges: imu.edges(),
        }
    }

    /// Adds the work done between `prev` and `self` to `model`.
    fn add_delta(&self, prev: &Snapshot, model: &mut Model) {
        let d = |name| self.counters.get(name) - prev.counters.get(name);
        let l = &mut model.layers;
        l.faults += d("fault");
        l.page_loads += d("page_load");
        l.page_writebacks += d("page_writeback");
        l.evictions += d("eviction");
        l.prefetches += d("prefetch");
        l.transfer_retries += d("transfer_retry");
        l.cross_asid_steals += d("cross_asid_steal");
        l.fault_on_loading += d("fault_on_loading");
        l.dma_transfers += d("dma_transfer");
        l.dma_cancelled += d("dma_cancelled");
        l.dma_hidden += self.dma_hidden - prev.dma_hidden;
        l.tlb_hits += self.tlb_hits - prev.tlb_hits;
        l.tlb_misses += self.tlb_misses - prev.tlb_misses;
        l.imu_edges += self.imu_edges - prev.imu_edges;
        model.sw_dp += self.sw_dp - prev.sw_dp;
        model.sw_imu += self.sw_imu - prev.sw_imu;
    }
}

/// A single-tenant `System` running one request per call.
#[derive(Debug)]
pub struct Single {
    system: System,
    jobs: Vec<Job>,
    /// Seed of the per-request fault plans (`fault_recovery` only).
    fault_seed: Option<u64>,
    snapshot: Snapshot,
    pass: usize,
    sw_ref_time: Duration,
    load_time: SimTime,
}

/// The fault mix of `fault_recovery`: every recovery tier fires.
fn fault_plan(seed: u64, call: usize) -> FaultPlan {
    let mut rng = Rng::new(seed ^ (call as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    FaultPlan::new(rng.next_u64())
        .rate(FaultSite::DmaCorrupt, 0.2)
        .rate(FaultSite::DmaTimeout, 0.1)
        .rate(FaultSite::TlbParity, 0.05)
}

fn adpcm_fallback() -> Box<dyn SoftwareFallback> {
    Box::new(FallbackFn::new("adpcm-sw", |io, params| {
        let n = params[0] as usize;
        let input = io.object(adpcm_hw::OBJ_INPUT).ok_or("input not mapped")?[..n].to_vec();
        let (samples, cpu) = timing::adpcm_sw(&input);
        let out = io
            .object_mut(adpcm_hw::OBJ_OUTPUT)
            .ok_or("output not mapped")?;
        for (chunk, s) in out.chunks_exact_mut(2).zip(&samples) {
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        Ok(cpu)
    }))
}

impl Single {
    fn setup(workload: Workload, seed: u64, pass: usize, trace: Option<&Rc<Trace>>) -> Self {
        let device = DeviceProfile::epxa1();
        // `fault_recovery` cycles through 16 inputs; its fault plans
        // differ on every request.
        let (app, bytes, pool) = match workload {
            Workload::IdeaStream => (AppKind::Idea, 32 * 1024, pass),
            Workload::AdpcmOverlap => (AppKind::Adpcm, 8 * 1024, pass),
            Workload::FaultRecovery => (AppKind::Adpcm, 4 * 1024, 16),
            Workload::ServingMix => unreachable!("served by MultiSystem"),
        };
        let builder = SystemBuilder::new(device).clocks(app.cp_freq(), app.imu_freq());
        let builder = match workload {
            Workload::AdpcmOverlap => builder
                .overlap(true)
                .dma_channels(2)
                .prefetch(PrefetchMode::HintedOnly),
            Workload::FaultRecovery => builder
                .overlap(true)
                .dma_channels(2)
                .faults(fault_plan(seed, 0)),
            _ => builder,
        };
        let mut system = builder.build();
        let bitstream = app.bitstream(&device);
        let core = trace::core(app.core(), trace);
        let t = trace.map(|t| &**t);
        let load_time = span(t, "core.load", || system.fpga_load(&bitstream, core))
            .expect("the workload's bitstream fits its device");
        let fault_seed = (workload == Workload::FaultRecovery).then_some(seed);
        if fault_seed.is_some() {
            system.set_software_fallback(trace::fallback(adpcm_fallback(), trace));
        }
        let mut rng = Rng::new(seed);
        let mut sw_ref_time = Duration::ZERO;
        let jobs = (0..pool)
            .map(|_| Job::new(app, bytes, &mut rng, &mut sw_ref_time))
            .collect();
        let snapshot = Snapshot::take(system.vim(), system.imu());
        Single {
            system,
            jobs,
            fault_seed,
            snapshot,
            pass,
            sw_ref_time,
            load_time,
        }
    }

    fn call(&mut self, i: usize, trace: Option<&Rc<Trace>>, tally: &mut Tally) {
        let t = trace.map(|t| &**t);
        if let Some(t) = t {
            t.set_call(i as u64);
        }
        if let Some(seed) = self.fault_seed {
            self.system.set_fault_plan(fault_plan(seed, i));
        }
        let job = &self.jobs[i % self.jobs.len()];
        let [input, output] = job.request().objects.try_into().expect("two objects");
        let sys = &mut self.system;

        let start = Instant::now();
        let result = span(t, "core.map", || {
            sys.fpga_map_object(
                input.id,
                input.data,
                input.elem,
                input.direction,
                input.hints,
            )
        })
        .and_then(|()| {
            span(t, "core.map", || {
                sys.fpga_map_object(
                    output.id,
                    output.data,
                    output.elem,
                    output.direction,
                    output.hints,
                )
            })
        })
        .and_then(|()| span(t, "core.execute", || sys.fpga_execute(&job.params)));
        let out = span(t, "core.take", || sys.take_object(output.id));
        span(t, "core.take", || sys.take_object(input.id));
        let host = start.elapsed();

        let check = Instant::now();
        let ok = result.is_ok() && out.as_deref() == Some(&job.expect[..]);
        tally.verify_s += check.elapsed().as_secs_f64();

        let cycles = result.as_ref().map_or(0, |r| r.cp_cycles + r.imu_edges);
        tally.record(host, 1, cycles);
        if !ok {
            tally.fail(i, 1, result.as_ref().err());
        }
        let now = Snapshot::take(sys.vim(), sys.imu());
        if i < self.pass {
            write!(tally.fingerprint, "{i}:{result:?};").expect("hashing cannot fail");
            let m = &mut tally.model;
            m.requests += 1;
            now.add_delta(&self.snapshot, m);
            match &result {
                Ok(r) if ok => {
                    m.latency.push(r.wall);
                    m.sim_time += r.wall;
                    m.sw_ref += job.sw;
                    m.hw_served += u64::from(!r.fallback_taken);
                    let l = &mut m.layers;
                    l.cp_cycles += r.cp_cycles;
                    l.overlap_saved += r.overlap_saved();
                    l.injected_faults += r.injected_faults;
                    l.watchdog_resets += r.watchdog_resets;
                    l.execute_attempts += r.execute_attempts.max(1);
                    l.recovery += r.recovery_time;
                    l.fallbacks += u64::from(r.fallback_taken);
                    l.fault_stall += r.fault_latency.sum();
                    l.fault_stall_max = l.fault_stall_max.max(r.fault_latency.max());
                }
                _ => m.latency.push(SimTime::MAX),
            }
        }
        self.snapshot = now;
    }
}

/// Cumulative `MultiSystem` statistics after a round.
#[derive(Debug, Default)]
struct MultiTotals {
    wall: SimTime,
    ctx_switches: u64,
    ctx_switch: SimTime,
    cp_cycles: u64,
    stall: SimTime,
    fallbacks: u64,
}

impl MultiTotals {
    fn of(r: &MultiReport) -> Self {
        let sum =
            |f: fn(&vcop::multi::TenantStats) -> u64| r.tenants.iter().map(|t| f(&t.stats)).sum();
        MultiTotals {
            wall: r.wall,
            ctx_switches: r.ctx_switches,
            ctx_switch: r.ctx_switch_time,
            cp_cycles: sum(|s| s.cp_cycles),
            stall: SimTime::from_ps(sum(|s| s.stall.as_ps())),
            fallbacks: sum(|s| s.fallbacks),
        }
    }
}

/// `MultiSystem` serving: each call is a round with `SERVING_DEPTH`
/// requests queued per tenant; a tenant's next request waits for its
/// previous one.
#[derive(Debug)]
pub struct Serving {
    system: MultiSystem,
    tenants: Vec<Asid>,
    /// The requests of round `r` are `jobs[r * n..(r + 1) * n]` with
    /// `n = tenants * SERVING_DEPTH`; request `k` goes to tenant
    /// `k % tenants`.
    jobs: Vec<Job>,
    /// Totals after the previous round; `None` before the first.
    totals: Option<MultiTotals>,
    snapshot: Snapshot,
    pass: usize,
    sw_ref_time: Duration,
    load_time: SimTime,
}

/// The tenant mix: alternating adpcmdecode and IDEA processes.
fn serving_app(tenant: usize) -> AppKind {
    if tenant.is_multiple_of(2) {
        AppKind::Adpcm
    } else {
        AppKind::Idea
    }
}

fn build_serving(trace: Option<&Rc<Trace>>) -> (MultiSystem, Vec<Asid>) {
    let mut system = MultiSystemBuilder::epxa4()
        .scheduler(SchedulerKind::RoundRobin)
        .frame_limit(SERVING_FRAMES)
        .build();
    let device = *system.device();
    let t = trace.map(|t| &**t);
    let tenants = (0..SERVING_TENANTS)
        .map(|i| {
            let app = serving_app(i);
            let bitstream = app.bitstream(&device);
            let core = trace::core(app.core(), trace);
            span(t, "core.load", || {
                system.add_tenant(
                    &format!("{}{i}", app.name()),
                    1,
                    app.cp_freq(),
                    app.imu_freq(),
                    &bitstream,
                    core,
                )
            })
            .expect("the serving bitstreams fit EPXA4")
        })
        .collect();
    (system, tenants)
}

impl Serving {
    fn setup(seed: u64, pass: usize, trace: Option<&Rc<Trace>>) -> Self {
        let (system, tenants) = build_serving(trace);
        let mut rng = Rng::new(seed);
        let mut sw_ref_time = Duration::ZERO;
        let jobs = (0..pass * SERVING_TENANTS * SERVING_DEPTH)
            .map(|k| {
                let app = serving_app(k % SERVING_TENANTS);
                Job::new(app, SERVING_REQUEST_BYTES, &mut rng, &mut sw_ref_time)
            })
            .collect();
        let snapshot = Snapshot::take(system.vim(), system.imu());
        Serving {
            system,
            tenants,
            jobs,
            totals: None,
            snapshot,
            pass,
            sw_ref_time,
            load_time: SimTime::ZERO,
        }
    }

    /// Replaces the platform with a freshly built one.
    fn restart(&mut self, trace: Option<&Rc<Trace>>) {
        (self.system, self.tenants) = build_serving(trace);
        self.totals = None;
        self.snapshot = Snapshot::take(self.system.vim(), self.system.imu());
    }

    fn call(&mut self, i: usize, trace: Option<&Rc<Trace>>, tally: &mut Tally) {
        // Every pass is served by a fresh platform, outside the timed
        // call: `MultiSystem`'s edge budget counts edges over the
        // system's whole life, not per `run`, so one system kept for a
        // long run fails with `Error::Timeout` after about 39 000
        // requests. A pass replays the same rounds, so each pass does
        // the same simulated work.
        if i > 0 && i % self.pass == 0 {
            self.restart(trace);
        }
        let t = trace.map(|t| &**t);
        if let Some(t) = t {
            t.set_call(i as u64);
        }
        let n = self.tenants.len() * SERVING_DEPTH;
        let round = i % (self.jobs.len() / n);
        // Request `k` of the round goes to tenant `k % tenants`.
        let jobs = &self.jobs[round * n..(round + 1) * n];
        let requests: Vec<Request> = jobs.iter().map(Job::request).collect();
        let sys = &mut self.system;

        let start = Instant::now();
        for (&asid, request) in self.tenants.iter().cycle().zip(requests) {
            span(t, "core.submit", || sys.submit(asid, request));
        }
        let result = span(t, "core.multi_run", || sys.run());
        let per_tenant: Vec<_> = self
            .tenants
            .iter()
            .map(|&asid| span(t, "core.take", || sys.take_completed(asid)))
            .collect();
        let host = start.elapsed();

        // Back into submission order: the d-th completion of tenant t
        // answers request d * tenants + t.
        let check = Instant::now();
        let tenants = self.tenants.len();
        let completed: Vec<Option<&CompletedRequest>> = (0..n)
            .map(|k| per_tenant[k % tenants].get(k / tenants))
            .collect();
        let drained = result.is_ok() && per_tenant.iter().all(|c| c.len() == SERVING_DEPTH);
        let served: Vec<bool> = completed
            .iter()
            .zip(jobs)
            .map(|(c, job)| {
                drained && c.is_some_and(|c| c.outputs.len() == 1 && c.outputs[0].1 == job.expect)
            })
            .collect();
        tally.verify_s += check.elapsed().as_secs_f64();

        let failed = served.iter().filter(|&&ok| !ok).count() as u64;
        if failed > 0 {
            tally.fail(i, failed, result.as_ref().err());
        }

        let report = match result {
            Ok(report) => report,
            Err(e) => {
                tally.record(host, n as u64, 0);
                // The engine's state is unknown after an error: count
                // the round as failed and continue on a fresh platform.
                if i < self.pass {
                    write!(tally.fingerprint, "{i}:{e:?};").expect("hashing cannot fail");
                    tally.model.requests += n as u64;
                    tally
                        .model
                        .latency
                        .extend(std::iter::repeat_n(SimTime::MAX, n));
                }
                self.restart(trace);
                return;
            }
        };
        let prev = self.totals.take().unwrap_or_else(|| MultiTotals {
            wall: report.config_time,
            ..Default::default()
        });
        if self.load_time == SimTime::ZERO {
            self.load_time = report.config_time;
        }
        let now = MultiTotals::of(&report);
        let now_snapshot = Snapshot::take(sys.vim(), sys.imu());
        let cycles =
            (now.cp_cycles - prev.cp_cycles) + (now_snapshot.imu_edges - self.snapshot.imu_edges);
        tally.record(host, n as u64, cycles);
        if i < self.pass {
            write!(tally.fingerprint, "{i}:{report:?}").expect("hashing cannot fail");
            for c in completed.iter().flatten() {
                write!(tally.fingerprint, ",{}", (c.finished - c.started).as_ps())
                    .expect("hashing cannot fail");
            }
            tally
                .fingerprint
                .write_char(';')
                .expect("hashing cannot fail");
            let m = &mut tally.model;
            m.requests += n as u64;
            now_snapshot.add_delta(&self.snapshot, m);
            for ((c, job), &ok) in completed.iter().zip(jobs).zip(&served) {
                match c {
                    Some(c) if ok => {
                        m.latency.push(c.finished - c.started);
                        m.sw_ref += job.sw;
                    }
                    _ => m.latency.push(SimTime::MAX),
                }
            }
            let fallbacks = now.fallbacks - prev.fallbacks;
            m.hw_served += (n as u64 - failed).saturating_sub(fallbacks);
            m.sim_time += now.wall - prev.wall;
            let l = &mut m.layers;
            l.cp_cycles += now.cp_cycles - prev.cp_cycles;
            l.fallbacks += fallbacks;
            l.ctx_switches += now.ctx_switches - prev.ctx_switches;
            l.ctx_switch += now.ctx_switch - prev.ctx_switch;
            l.tenant_stall += now.stall - prev.stall;
            l.fault_stall += now.stall - prev.stall;
            if i + 1 == self.pass {
                let serving = (now.wall - report.config_time).as_ps() as f64;
                l.busy_share = report
                    .tenants
                    .iter()
                    .map(|t| t.stats.fabric_busy.as_ps() as f64 / serving)
                    .collect();
            }
        }
        self.totals = Some(now);
        self.snapshot = now_snapshot;
    }
}
