//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions. Each span carries its name,
//! start, end, parent, rank and step id; spans stay in memory and are
//! written out when the run ends. A layer's self time is its span minus
//! the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are seconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Layer call, e.g. `"oscillator.step"`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// World rank that recorded it.
    pub rank: usize,
    /// Bridge step (0-based boundary index) the span belongs to.
    pub step: u64,
}

impl SpanRec {
    /// Inclusive duration, seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Per-rank recorder. When recording is off, [`Tracer::open`] and
/// [`Tracer::close`] still return timestamps (the step loop needs them for
/// step times and result lag) but store nothing.
pub struct Tracer {
    epoch: Instant,
    rank: usize,
    step: u64,
    recording: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// A tracer shared by the step loop and the analysis wrappers of one
/// rank.
pub type SharedTracer = Arc<Mutex<Tracer>>;

/// Lock a tracer (or any benchmark-side state) on the rank thread.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("benchmark state lock poisoned by a panicked rank")
}

/// Handle returned by [`Tracer::open`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    index: Option<usize>,
    /// Start time, seconds since the epoch.
    pub start: f64,
}

impl Tracer {
    /// A tracer for `rank`, not recording.
    pub fn new(epoch: Instant, rank: usize) -> Self {
        Tracer {
            epoch,
            rank,
            step: 0,
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A new shared tracer.
    pub fn shared(epoch: Instant, rank: usize) -> SharedTracer {
        Arc::new(Mutex::new(Tracer::new(epoch, rank)))
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Start or stop storing spans.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Step id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Open a span; it nests under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = self.now();
        if !self.recording {
            return Open { index: None, start };
        }
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            rank: self.rank,
            step: self.step,
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            start,
        }
    }

    /// Close a span opened by [`Tracer::open`]; returns its end time.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = self.now();
        if let Some(i) = open.index {
            self.spans[i].end = end;
            if let Some(pos) = self.stack.iter().rposition(|&s| s == i) {
                self.stack.truncate(pos);
            }
        }
        end
    }

    /// The recorded spans, leaving the tracer empty.
    pub fn take_spans(&mut self) -> Vec<SpanRec> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span of one rank's list: its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Render spans as JSON (one object per line inside an array), with
/// parents given as indices into the same rank's list.
pub fn to_json(workload: &str, seed: u64, spans: &[SpanRec]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \
             \"rank\": {}, \"step\": {}}}",
            s.name, s.start, s.end, s.rank, s.step
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            rank: 0,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("solve", 0.0, 4.0, Some(0)),
            span("execute", 4.5, 9.0, Some(0)),
            span("histogram", 5.0, 7.0, Some(2)),
            span("autocorrelation", 7.0, 8.5, Some(2)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 1.5).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 4.0).abs() < 1e-12);
        assert!((st[2] - 1.0).abs() < 1e-12);
        assert!((st[3] - 2.0).abs() < 1e-12);
        assert!((st[4] - 1.5).abs() < 1e-12);
        // Self times of a tree add back up to the root's duration.
        let total: f64 = st.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 1.0, 5.0, None),
            span("a", 0.0, 2.0, Some(0)),
            span("b", 1.5, 3.0, Some(0)),
            span("c", 4.5, 6.0, Some(0)),
        ];
        let st = self_times(&spans);
        // Covered: [1, 3] and [4.5, 5] → 2.5 of the parent's 4.
        assert!((st[0] - 1.5).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn tracer_nests_and_records_only_when_on() {
        let mut t = Tracer::new(Instant::now(), 3);
        let off = t.open("x");
        t.close(off);
        assert!(t.take_spans().is_empty());
        t.set_recording(true);
        t.set_step(7);
        let root = t.open("step");
        let child = t.open("solve");
        t.close(child);
        let sib = t.open("execute");
        t.close(sib);
        t.close(root);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rank == 3 && s.step == 7));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let json = to_json("w", 1, &spans);
        assert!(json.contains("\"parent\": 0"));
    }
}
