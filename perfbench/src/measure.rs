//! The two ways a workload is timed: untraced rounds for the end-to-end
//! metrics, and the traced run for the per-layer metrics.
//!
//! Every round runs the same generated inputs on freshly built engines
//! and must reproduce the first round's outputs and counters exactly. The
//! first round itself is a warm-up whose outputs are checked against the
//! VM and whose host times are not used.
//!
//! Untraced rounds are timed against a [`Yardstick`]: a fixed memory
//! kernel run between the round's pieces of work, whose speed scales the
//! round's host seconds to a nominal host (see `README.md`).

use std::time::Instant;

use crate::common::Digest;
use crate::trace::Tracer;
use crate::{host_fingerprint, Args, Layers};

/// What a round reports to the timing loop.
pub trait Round {
    /// Host seconds from ELF bytes to ready engines.
    fn setup_s(&self) -> f64;
    /// Host seconds running the workload's inputs.
    fn run_s(&self) -> f64;
    /// Digest of every output and counter the round produced.
    fn digest(&self) -> Digest;
}

fn checked<R: Round>(want: Digest, r: Result<R, String>) -> Result<R, String> {
    let r = r?;
    if r.digest() != want {
        return Err("a repeated round produced different outputs or counters".into());
    }
    Ok(r)
}

/// Table of the yardstick: 64 MiB, far past the private caches, so its
/// speed is that of the shared cache and memory. Of the tables and access
/// patterns tried on the recording host (16 and 64 MiB; independent
/// read-modify-writes and a dependent pointer chase), this one tracked the
/// simulator's own slow-downs most closely.
const YARD_WORDS: usize = 8 << 20;
/// Random read-modify-writes per yardstick reading (about 2 ms).
const YARD_ACCESSES: u32 = 100_000;
/// Nanoseconds per yardstick access on the nominal host (about the quiet
/// speed of the recording host). Scaled host seconds are the seconds a
/// round would take on a host where the yardstick runs at this speed.
pub const YARD_NOMINAL_NS: f64 = 22.0;

/// A fixed memory kernel that shares no code with the repository. On a
/// shared host the simulator's speed moves with the contention for the
/// shared cache and memory that other tenants cause, minute to minute, by
/// more than the bounds of the host metrics; the yardstick moves with it.
/// Each untraced round reads the yardstick every few tens of milliseconds
/// of its work and scales its host seconds by the nominal speed over the
/// speed it read. A faster or slower program still moves the scaled
/// seconds; a busier host moves both clocks and cancels.
pub struct Yardstick {
    table: Vec<u64>,
    x: u64,
    readings: u32,
    spent_s: f64,
}

impl Yardstick {
    /// A yardstick that does nothing: the first round and traced rounds
    /// are not scaled.
    pub fn off() -> Yardstick {
        Yardstick { table: Vec::new(), x: 0, readings: 0, spent_s: 0.0 }
    }

    fn on() -> Yardstick {
        Yardstick {
            table: vec![1; YARD_WORDS],
            x: 0x9e37_79b9_7f4a_7c15,
            readings: 0,
            spent_s: 0.0,
        }
    }

    /// Take one reading (outside the pieces' own timers).
    pub fn read(&mut self) {
        if self.table.is_empty() {
            return;
        }
        let t = Instant::now();
        let n = self.table.len();
        for _ in 0..YARD_ACCESSES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let w = &mut self.table[self.x as usize % n];
            *w = w.wrapping_add(self.x);
        }
        self.spent_s += t.elapsed().as_secs_f64();
        self.readings += 1;
    }

    /// Seconds spent in readings so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Nanoseconds per access over the readings after the first `readings`,
    /// which took `spent_s`.
    fn ns_per_access_since(&self, (readings, spent_s): (u32, f64)) -> f64 {
        let accesses = f64::from((self.readings - readings) * YARD_ACCESSES);
        (self.spent_s - spent_s) * 1e9 / accesses
    }
}

/// An untraced round with the yardstick's speed over it.
pub struct Timed<R> {
    pub round: R,
    /// Yardstick nanoseconds per access read during the round.
    yard_ns: f64,
}

impl<R: Round> Timed<R> {
    fn scale(&self) -> f64 {
        YARD_NOMINAL_NS / self.yard_ns
    }

    /// Set-up seconds, scaled to the nominal host.
    pub fn setup_s(&self) -> f64 {
        self.round.setup_s() * self.scale()
    }

    /// Run seconds, scaled to the nominal host.
    pub fn run_s(&self) -> f64 {
        self.round.run_s() * self.scale()
    }
}

/// Untraced rounds until `args.seconds` have passed (at least three).
/// `round` must read the yardstick before each of its pieces of work and,
/// where it drives the work itself, every few tens of milliseconds within
/// it.
pub fn rounds<R: Round>(
    args: &Args,
    want: Digest,
    mut round: impl FnMut(&mut Tracer, &mut Yardstick) -> Result<R, String>,
) -> Result<Vec<Timed<R>>, String> {
    let mut off = Tracer::new(false);
    let mut yard = Yardstick::on();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let before = (yard.readings, yard.spent_s);
        let round = checked(want, round(&mut off, &mut yard))?;
        // Close the round, so its last piece has a reading on each side.
        yard.read();
        out.push(Timed { round, yard_ns: yard.ns_per_access_since(before) });
    }
    println!("{}", unscaled_line(&out));
    Ok(out)
}

/// Median over rounds of `f`.
pub fn median<R>(rounds: &[R], f: impl Fn(&R) -> f64) -> f64 {
    crate::common::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The unscaled host figures beside the scaled ones, as a JSON line: the
/// yardstick's median speed and the median raw set-up and run seconds.
fn unscaled_line<R: Round>(rounds: &[Timed<R>]) -> String {
    format!(
        "{{\"unscaled\": {{\"yard_ns_per_access\": {}, \"setup_s\": {}, \"run_s\": {}}}}}",
        median(rounds, |t| t.yard_ns),
        median(rounds, |t| t.round.setup_s()),
        median(rounds, |t| t.round.run_s()),
    )
}

/// The traced run: three traced rounds interleaved with three untraced
/// ones. Returns the fastest traced round and its spans, having set
/// `trace.overhead_frac` (min-of-3 traced against min-of-3 untraced wall
/// time) and `trace.reconcile_err_frac`, and written the spans to
/// `.bench_trace/<workload>-<seed>.json`. Fails when the spans' self times
/// miss more than 5% of the traced wall time.
pub fn traced<R: Round>(
    args: &Args,
    want: Digest,
    mut round: impl FnMut(&mut Tracer, &mut Yardstick) -> Result<R, String>,
    layers: &mut Layers,
) -> Result<(R, Tracer), String> {
    let mut off = Tracer::new(false);
    let mut no_yard = Yardstick::off();
    let wall = |r: &R| r.setup_s() + r.run_s();
    let (mut base, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut best: Option<(R, Tracer)> = None;
    for _ in 0..3 {
        let mut tr = Tracer::new(true);
        let r = checked(want, round(&mut tr, &mut no_yard))?;
        traced = traced.min(wall(&r));
        if best.as_ref().is_none_or(|(b, _)| wall(&r) < wall(b)) {
            best = Some((r, tr));
        }
        base = base.min(wall(&checked(want, round(&mut off, &mut no_yard))?));
    }
    let (best, tr) = best.expect("three traced rounds ran");
    let wall_ns = (wall(&best) * 1e9) as u64;
    let overhead = traced / base - 1.0;
    let err = tr.reconcile_err(wall_ns);
    layers.set("trace.overhead_frac", overhead);
    layers.set("trace.reconcile_err_frac", err);
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, {}, \"wall_ns\": {wall_ns}, \
         \"overhead_frac\": {overhead}, \"reconcile_err_frac\": {err}",
        args.workload,
        args.seed,
        host_fingerprint(),
    );
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tr.to_json(&header)).map_err(|e| format!("{}: {e}", path.display()))?;
    if err > 0.05 {
        return Err(format!(
            "span self times miss {:.1}% of the traced wall time (gate: 5%)",
            err * 100.0
        ));
    }
    Ok((best, tr))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        setup_s: f64,
        run_s: f64,
    }

    impl Round for Fixed {
        fn setup_s(&self) -> f64 {
            self.setup_s
        }

        fn run_s(&self) -> f64 {
            self.run_s
        }

        fn digest(&self) -> Digest {
            Digest::default()
        }
    }

    #[test]
    fn a_host_twice_as_slow_halves_the_scaled_seconds() {
        let t =
            Timed { round: Fixed { setup_s: 0.02, run_s: 1.0 }, yard_ns: 2.0 * YARD_NOMINAL_NS };
        assert_eq!(t.setup_s(), 0.01);
        assert_eq!(t.run_s(), 0.5);
    }

    #[test]
    fn only_a_yardstick_that_is_on_takes_readings() {
        let mut off = Yardstick::off();
        off.read();
        assert_eq!((off.readings, off.spent_s()), (0, 0.0));
        let mut on = Yardstick::on();
        on.read();
        on.read();
        assert_eq!(on.readings, 2);
        assert!(on.ns_per_access_since((0, 0.0)) > 0.0);
    }
}
