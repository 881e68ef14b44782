//! The traced run's span recorder and per-operation counter deltas.
//!
//! Spans are taken from the outside, around the benchmark's own calls
//! into each layer: set-up steps, every run-phase operation and every
//! layer probe. Each span records both clocks — wall time from
//! [`Instant`] and virtual time from this thread's
//! [`sgx_sim::thread_charges`] — and stays in memory until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sgx_sim::{thread_charges, ThreadCharges};

use crate::run::OpSample;
use crate::system::{Role, System};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the recorder (also the span's id).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name.
    pub name: &'static str,
    /// Wall nanoseconds since the recorder started, at entry.
    pub wall_start_ns: u64,
    /// Wall nanoseconds since the recorder started, at exit.
    pub wall_end_ns: u64,
    /// Charges this thread had made at entry.
    pub virt_start: ThreadCharges,
    /// Charges this thread had made at exit.
    pub virt_end: ThreadCharges,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns - self.wall_start_ns
    }

    /// Virtual charges made inside the span.
    pub fn charges(&self) -> ThreadCharges {
        self.virt_end.since(&self.virt_start)
    }
}

/// What one traced run-phase operation did, from counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct OpTrace {
    /// The operation's sample.
    pub sample: OpSample,
    /// Memtable flushes it triggered, over all nodes.
    pub flushes: u64,
    /// Compactions it triggered, over all nodes.
    pub compactions: u64,
    /// Virtual nanoseconds charged on replica platforms.
    pub replica_ns: u64,
    /// Virtual nanoseconds charged on every platform, router included.
    pub platform_ns: u64,
}

impl OpTrace {
    /// Builds the record of `sample` from counters read around it.
    pub fn new(sample: OpSample, before: &OpCounters, after: &OpCounters) -> Self {
        let clock = |role: Option<Role>| -> u64 {
            after
                .clocks
                .iter()
                .zip(&before.clocks)
                .filter(|((r, _), _)| role.is_none_or(|role| *r == role))
                .map(|((_, a), (_, b))| a - b)
                .sum()
        };
        OpTrace {
            sample,
            flushes: after.flushes - before.flushes,
            compactions: after.compactions - before.compactions,
            replica_ns: clock(Some(Role::Replica)),
            platform_ns: clock(None) + after.router_ns - before.router_ns,
        }
    }
}

/// The few counters read around every traced operation (the full
/// [`crate::counters::Counters`] are read around the whole run).
#[derive(Debug, Clone)]
pub struct OpCounters {
    clocks: Vec<(Role, u64)>,
    router_ns: u64,
    flushes: u64,
    compactions: u64,
}

impl OpCounters {
    /// Reads every node's clock and store counters, and the router clock.
    pub fn snapshot(system: &System) -> Self {
        let (mut flushes, mut compactions) = (0, 0);
        let clocks = system
            .nodes()
            .iter()
            .map(|node| {
                let stats = node.store.db().stats();
                flushes += stats.flushes;
                compactions += stats.compactions;
                (node.role, node.store.platform().clock().now_ns())
            })
            .collect();
        OpCounters {
            clocks,
            router_ns: system.router().map_or(0, |r| r.clock().now_ns()),
            flushes,
            compactions,
        }
    }
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<OpTrace>,
    max_replica_lag: u64,
}

/// Run-phase operation spans written out per run (the rest stay in
/// memory only, for self times).
pub const WRITTEN_OP_SPANS: usize = 20_000;

/// The in-memory span recorder of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: RefCell<TraceState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), state: RefCell::default() }
    }
}

/// Runs `f` inside a span named `name` when `tracer` is set.
pub fn in_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut state = self.state.borrow_mut();
            let id = state.spans.len();
            let parent = state.open.last().copied();
            let start = thread_charges();
            state.spans.push(Span {
                id,
                parent,
                name,
                wall_start_ns: self.origin.elapsed().as_nanos() as u64,
                wall_end_ns: 0,
                virt_start: start,
                virt_end: start,
            });
            state.open.push(id);
            id
        };
        let out = f();
        let mut state = self.state.borrow_mut();
        state.open.pop();
        let span = &mut state.spans[id];
        span.wall_end_ns = self.origin.elapsed().as_nanos() as u64;
        span.virt_end = thread_charges();
        out
    }

    /// Records one run-phase operation's counter deltas.
    pub fn note_op(&self, op: OpTrace) {
        self.state.borrow_mut().ops.push(op);
    }

    /// Records an observed replica lag.
    pub fn note_lag(&self, lag_epochs: u64) {
        let mut state = self.state.borrow_mut();
        state.max_replica_lag = state.max_replica_lag.max(lag_epochs);
    }

    /// Largest replica lag observed.
    pub fn max_replica_lag(&self) -> u64 {
        self.state.borrow().max_replica_lag
    }

    /// Every closed span, in entry order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Wall nanoseconds of every span named `name`, in entry order.
    pub fn span_walls(&self, name: &str) -> Vec<u64> {
        self.state.borrow().spans.iter().filter(|s| s.name == name).map(Span::wall_ns).collect()
    }

    /// Every traced run-phase operation, in execution order.
    pub fn ops(&self) -> Vec<OpTrace> {
        self.state.borrow().ops.clone()
    }

    /// Self time per span name, in both clocks: each span's duration
    /// minus what its direct children cover. Returns
    /// `name -> (spans, wall self ns, virtual self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let state = self.state.borrow();
        let mut child_wall = vec![0u64; state.spans.len()];
        let mut child_virt = vec![0u64; state.spans.len()];
        for span in &state.spans {
            if let Some(parent) = span.parent {
                child_wall[parent] += span.wall_ns();
                child_virt[parent] += span.charges().ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in &state.spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.wall_ns().saturating_sub(child_wall[span.id]);
            entry.2 += span.charges().ns.saturating_sub(child_virt[span.id]);
        }
        out
    }

    /// Writes the spans as one JSON object per line: a header with the
    /// span counts, then every span except run-phase operations beyond
    /// the first [`WRITTEN_OP_SPANS`] (self times cover all of them).
    ///
    /// # Errors
    ///
    /// Returns the IO error of creating or writing `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let state = self.state.borrow();
        let is_op = |span: &&Span| span.name.starts_with("op.");
        let ops = state.spans.iter().filter(is_op).count();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans\":{},\"op_spans\":{ops},\"op_spans_written\":{}}}",
            state.spans.len(),
            ops.min(WRITTEN_OP_SPANS)
        )?;
        let mut ops_written = 0;
        for span in &state.spans {
            if is_op(&span) {
                if ops_written == WRITTEN_OP_SPANS {
                    continue;
                }
                ops_written += 1;
            }
            let c = span.charges();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"wall_start_ns\":{},\"wall_end_ns\":{},\
                 \"virt_start_ns\":{},\"virt_end_ns\":{},\"enclave_ns\":{},\"host_ns\":{},\
                 \"boundary_ns\":{}}}",
                span.id,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.name,
                span.wall_start_ns,
                span.wall_end_ns,
                span.virt_start.ns,
                span.virt_end.ns,
                c.enclave_ns,
                c.host_ns,
                c.boundary_ns,
            )?;
        }
        out.flush()
    }
}
