//! Tracing from outside the program: spans around each public `core`
//! call, and delegating wrappers that count and time the coprocessor
//! and software-fallback callbacks. Nothing here is placed inside the
//! program; an untraced run passes `None` and pays nothing.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vcop::fallback::FallbackIo;
use vcop::{Coprocessor, SoftwareFallback};
use vcop_fabric::port::CoprocessorPort;
use vcop_sim::sched::Wake;
use vcop_sim::time::SimTime;

/// Call count and accumulated host time of one callback.
#[derive(Debug, Default)]
pub struct Probe {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Probe {
    fn record(&self, d: Duration) {
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + d.as_nanos() as u64);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host time inside the calls, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos.get() as f64 / 1e6
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the benchmark call (request or round) that caused it.
    pub call: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory trace of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    call: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    pub step: Probe,
    pub next_wake: Probe,
    pub skip: Probe,
    pub fallback: Probe,
}

impl Trace {
    pub fn new() -> Rc<Self> {
        Rc::new(Trace {
            epoch: Instant::now(),
            call: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            step: Probe::default(),
            next_wake: Probe::default(),
            skip: Probe::default(),
            fallback: Probe::default(),
        })
    }

    /// Tags the spans that follow with benchmark call `call`.
    pub fn set_call(&self, call: u64) {
        self.call.set(call);
    }

    fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.spans.borrow_mut().push(Span {
            name,
            call: self.call.get(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Number of spans named `name` and their total host time in ms.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, ms), s| {
                (n + 1, ms + (s.end_ns - s.start_ns) as f64 / 1e6)
            })
    }

    /// Writes every span as `name call start_ns end_ns` lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tcall\tstart_ns\tend_ns")?;
        for s in self.spans.borrow().iter() {
            writeln!(out, "{}\t{}\t{}\t{}", s.name, s.call, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Runs `f`, recording it as span `name` when tracing.
pub fn span<T>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.record(name, start, Instant::now());
            out
        }
    }
}

/// Wraps `core` so each callback is counted and timed when tracing.
pub fn core(inner: Box<dyn Coprocessor>, trace: Option<&Rc<Trace>>) -> Box<dyn Coprocessor> {
    match trace {
        None => inner,
        Some(t) => Box::new(TracedCore {
            inner,
            trace: Rc::clone(t),
        }),
    }
}

/// Wraps a software fallback so each run is counted and timed when
/// tracing.
pub fn fallback(
    inner: Box<dyn SoftwareFallback>,
    trace: Option<&Rc<Trace>>,
) -> Box<dyn SoftwareFallback> {
    match trace {
        None => inner,
        Some(t) => Box::new(TracedFallback {
            inner,
            trace: Rc::clone(t),
        }),
    }
}

#[derive(Debug)]
struct TracedCore {
    inner: Box<dyn Coprocessor>,
    trace: Rc<Trace>,
}

impl Coprocessor for TracedCore {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn step(&mut self, port: &mut CoprocessorPort) {
        let t = Instant::now();
        self.inner.step(port);
        self.trace.step.record(t.elapsed());
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn next_wake(&self, port: &CoprocessorPort) -> Wake {
        let t = Instant::now();
        let w = self.inner.next_wake(port);
        self.trace.next_wake.record(t.elapsed());
        w
    }

    fn skip(&mut self, n: u64) {
        let t = Instant::now();
        self.inner.skip(n);
        self.trace.skip.record(t.elapsed());
    }
}

struct TracedFallback {
    inner: Box<dyn SoftwareFallback>,
    trace: Rc<Trace>,
}

impl fmt::Debug for TracedFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TracedFallback({})", self.inner.name())
    }
}

impl SoftwareFallback for TracedFallback {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, io: &mut dyn FallbackIo, params: &[u32]) -> Result<SimTime, String> {
        let t = Instant::now();
        let out = self.inner.run(io, params);
        self.trace.fallback.record(t.elapsed());
        out
    }
}
