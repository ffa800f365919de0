//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions; nothing inside the program is instrumented. A span
//! covers one call, or a run of calls to one function under one parent
//! (an *aggregate*: `calls` counts them, `busy_ns` sums their durations,
//! `start_ns`/`end_ns` bound the first and the last). A layer's self time
//! is its busy time minus its children's busy time.
//!
//! A disabled tracer records nothing: [`Tracer::span`] and
//! [`Tracer::call`] then only call the wrapped function.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub parent: Option<usize>,
    /// Request id: which app (or replica set, or op stream) the span
    /// served.
    pub req: u64,
}

/// An open span and the aggregates recorded under it so far.
struct Frame {
    span: Option<usize>,
    aggregates: Vec<(&'static str, usize)>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: vec![Frame { span: None, aggregates: Vec::new() }],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> Option<usize> {
        self.stack.last().and_then(|f| f.span)
    }

    /// Run `f` inside a new span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.parent();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, busy_ns: 0, calls: 1, parent, req });
        self.stack.push(Frame { span: Some(idx), aggregates: Vec::new() });
        let r = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - s.start_ns;
        r
    }

    /// Run `f` as one more call of the `name` aggregate under the current
    /// span (a leaf: `f` opens no spans).
    pub fn call<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let parent = self.parent();
        let frame = self.stack.last_mut().expect("the root frame is never popped");
        match frame.aggregates.iter().find(|(n, _)| *n == name) {
            Some(&(_, idx)) => {
                let s = &mut self.spans[idx];
                s.end_ns = end;
                s.busy_ns += end - start;
                s.calls += 1;
            }
            None => {
                frame.aggregates.push((name, self.spans.len()));
                self.spans.push(Span {
                    name,
                    start_ns: start,
                    end_ns: end,
                    busy_ns: end - start,
                    calls: 1,
                    parent,
                    req,
                });
            }
        }
        r
    }

    /// Summed busy time of every span called `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9
    }

    /// Summed call count of every span called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.calls).sum()
    }

    /// Self time of each span: busy time minus its children's busy time.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.busy_ns)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.busy_ns);
            }
        }
        own.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// |wall − Σ self| / wall: how much of the traced region's wall time
    /// the spans fail to account for (or over-count).
    pub fn reconcile_err(&self, wall_ns: u64) -> f64 {
        let total: u64 = self.self_ns().iter().sum();
        (wall_ns as f64 - total as f64).abs() / (wall_ns.max(1) as f64)
    }

    /// The spans as JSON, one object per line, with their self times.
    pub fn to_json(&self, header: &str) -> String {
        let own = self.self_ns();
        let mut out = format!("{{{header},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"busy_ns\": {}, \"self_ns\": {}, \"calls\": {}, \"parent\": {parent}, \
                 \"req\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                own[i],
                s.calls,
                s.req,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates_merge() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            for _ in 0..3 {
                t.call("leaf", 0, || std::hint::black_box(1 + 1));
            }
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.calls("leaf"), 3);
        let own = t.self_ns();
        assert_eq!(own[0] + own[1], t.spans[0].busy_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", 0, |t| t.call("leaf", 0, || 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
