//! The benchmark's own instrumentation: a wrapper around every
//! instruction stream it hands to a chip, and host-time spans around
//! every call it makes into a layer.
//!
//! Both live outside the simulator. The wrapper counts the ops the
//! `isa`/`workloads` layer generates (always — the count is an output
//! check) and, when tracing, the host time spent generating them. Spans
//! are kept in memory and written out once, when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smarco_isa::{Instr, InstructionStream, Op};

/// Totals shared by every wrapped stream of one job.
#[derive(Debug, Default)]
pub struct StreamTotals {
    ops: AtomicU64,
    finished: AtomicU64,
    gen_ns: AtomicU64,
}

impl StreamTotals {
    /// Ops the wrapped streams have handed out and been dropped since.
    /// Streams fold their counts in when dropped, so read this after the
    /// chip that owned them is gone.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Dropped streams that had handed out their `Exit`: threads that
    /// ran to completion.
    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Host seconds spent inside the wrapped `next_instr` calls (traced
    /// jobs only; 0 otherwise).
    pub fn gen_s(&self) -> f64 {
        self.gen_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Ops per lap of [`take_marks`].
const LAP_OPS: u64 = 250_000;

thread_local! {
    static PULLED: Cell<u64> = const { Cell::new(0) };
    static MARKS: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

/// Host instants at which this thread's wrapped streams had handed out
/// each further [`LAP_OPS`] ops since the last call; resets the count.
///
/// On a chip with one PDES worker every stream is pulled on the calling
/// thread in simulated order, so the k-th mark closes the same simulated
/// work in every repetition of a job: laps between marks compare across
/// repetitions.
pub fn take_marks() -> Vec<Instant> {
    PULLED.with(|p| p.set(0));
    MARKS.with(|m| std::mem::take(&mut *m.borrow_mut()))
}

/// An [`InstructionStream`] that counts what it hands out and, when
/// `timed`, how long the inner generator took to produce it.
pub struct Probed {
    inner: Box<dyn InstructionStream + Send>,
    totals: Arc<StreamTotals>,
    timed: bool,
    ops: u64,
    exited: bool,
    gen_ns: u64,
}

impl Probed {
    /// Wraps `inner`, folding its counts into `totals` when dropped.
    pub fn wrap(
        inner: Box<dyn InstructionStream + Send>,
        totals: &Arc<StreamTotals>,
        timed: bool,
    ) -> Box<dyn InstructionStream + Send> {
        Box::new(Self {
            inner,
            totals: Arc::clone(totals),
            timed,
            ops: 0,
            exited: false,
            gen_ns: 0,
        })
    }
}

impl InstructionStream for Probed {
    fn next_instr(&mut self) -> Option<Instr> {
        let instr = if self.timed {
            let start = Instant::now();
            let instr = self.inner.next_instr();
            self.gen_ns += start.elapsed().as_nanos() as u64;
            instr
        } else {
            self.inner.next_instr()
        };
        if let Some(Instr { op, .. }) = instr {
            self.ops += 1;
            self.exited |= matches!(op, Op::Exit);
            let pulled = PULLED.with(|p| {
                p.set(p.get() + 1);
                p.get()
            });
            if pulled.is_multiple_of(LAP_OPS) {
                MARKS.with(|m| m.borrow_mut().push(Instant::now()));
            }
        }
        instr
    }

    fn segment(&self) -> Option<(u64, u64)> {
        self.inner.segment()
    }
}

impl Drop for Probed {
    fn drop(&mut self) {
        self.totals.ops.fetch_add(self.ops, Ordering::Relaxed);
        self.totals
            .finished
            .fetch_add(u64::from(self.exited), Ordering::Relaxed);
        self.totals.gen_ns.fetch_add(self.gen_ns, Ordering::Relaxed);
    }
}

/// One host-time span around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Job the span belongs to (one id per simulated job).
    pub run: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Layer call, e.g. `core::chip.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next job: later spans carry a fresh run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Times `f` as a span named `name`, nested in any open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            run: self.run,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s
                    .parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string());
                format!(
                    "{{\"run\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.run, parent, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", body.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::stream::FnStream;

    /// Three computes plus the implicit `Exit`: four ops.
    fn four_ops() -> Box<dyn InstructionStream + Send> {
        let mut n = 0;
        Box::new(FnStream::new(move || {
            n += 1;
            (n <= 3).then(Op::compute)
        }))
    }

    #[test]
    fn wrapper_counts_ops_on_drop() {
        let totals = Arc::new(StreamTotals::default());
        for timed in [false, true] {
            let mut s = Probed::wrap(four_ops(), &totals, timed);
            while let Some(Instr { op, .. }) = s.next_instr() {
                if matches!(op, Op::Exit) {
                    break;
                }
            }
        }
        assert_eq!(totals.ops(), 8);
        assert_eq!(totals.finished(), 2);
        assert!(take_marks().is_empty(), "8 ops close no lap");
    }

    #[test]
    fn spans_nest_and_carry_the_run_id() {
        let mut t = Tracer::new(true);
        t.next_run();
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].run), ("outer", None, 1));
        assert_eq!((s[1].name, s[1].parent, s[1].run), ("inner", Some(0), 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(Tracer::new(false).span("x", |t| t.spans().is_empty()));
    }
}
