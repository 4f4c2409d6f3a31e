//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark's own code, around its
//! calls into the library crates. A span has a name (`<layer>.<call>`),
//! the identifier of the operation that caused it (an epoch, a request, a
//! swap), its parent span and its start and end in nanoseconds since the
//! tracer's origin. Everything stays in memory until the run ends and is
//! then written out as one TSV file.
//!
//! Hot loops (one training triple, one evaluated user) would produce
//! millions of spans per epoch, so their per-call spans are *folded* as
//! they close: one record per `(parent, name)` keeps the call count and
//! the summed duration. Calls made by one thread never overlap, so the
//! parent's self time is exactly the same as if every call had been
//! kept.
//!
//! A span's **self time** is its duration minus the part of its interval
//! that its child spans cover (the union, so overlapping children from
//! several threads are not double-counted) minus its folded children.
//! The layer of a span is the prefix of its name; the self time of a
//! phase's root span (`phase.*`) is time no layer claimed, and is
//! reported as unattributed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Identifier shared by every span one operation causes.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// The folded per-call spans of one hot loop under one parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The span every folded call ran under.
    pub parent: SpanId,
    /// Number of calls.
    pub count: u64,
    /// Summed duration of the calls.
    pub total_ns: u64,
}

/// Handle of a fold slot returned by [`Tracer::fold_slot`].
pub type FoldId = usize;

/// A span recorder. One per thread; thread tracers share the main
/// tracer's origin and are merged into it with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    folds: Vec<Fold>,
}

impl Tracer {
    /// A tracer whose clock starts now, recording as thread 0.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            folds: Vec::new(),
        }
    }

    /// An empty tracer for another thread, on this tracer's clock.
    pub fn for_thread(&self, thread: u32) -> Self {
        Self {
            origin: self.origin,
            thread,
            spans: Vec::new(),
            folds: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Mean cost of one clock read, in nanoseconds: the overhead every
    /// folded call carries.
    pub fn clock_cost_ns(&self) -> f64 {
        const READS: u32 = 100_000;
        let t = Instant::now();
        for _ in 0..READS {
            std::hint::black_box(self.now());
        }
        t.elapsed().as_nanos() as f64 / f64::from(READS)
    }

    /// An instant on this tracer's clock, in nanoseconds since the origin.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        debug_assert!(start_ns <= end_ns);
        self.spans.push(Span {
            name,
            op,
            parent,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A fold slot for calls named `name` under `parent`.
    pub fn fold_slot(&mut self, parent: SpanId, name: &'static str) -> FoldId {
        self.folds.push(Fold {
            name,
            parent,
            count: 0,
            total_ns: 0,
        });
        self.folds.len() - 1
    }

    /// Folds one call that ran from `start_ns` to `end_ns`.
    #[inline]
    pub fn add(&mut self, slot: FoldId, start_ns: u64, end_ns: u64) {
        let f = &mut self.folds[slot];
        f.count += 1;
        f.total_ns += end_ns - start_ns;
    }

    /// Moves every span and fold of a thread tracer into this one; the
    /// thread's root spans get `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
        for mut f in other.folds {
            f.parent += base;
            self.folds.push(f);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut folded = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for f in &self.folds {
            folded[f.parent] += f.total_ns;
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| self_time(s.start_ns, s.end_ns, &children[i], folded[i]))
            .collect()
    }

    /// Whether `id` lies in the subtree rooted at `root`.
    fn in_subtree(&self, mut id: SpanId, root: SpanId) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Summed self time and count of the spans and folded calls named
    /// `name` in the subtree of `root`.
    pub fn name_total(&self, root: SpanId, name: &str) -> (u64, u64) {
        let selfs = self.self_times();
        let mut total = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && self.in_subtree(i, root) {
                total.0 += selfs[i];
                total.1 += 1;
            }
        }
        for f in &self.folds {
            if f.name == name && self.in_subtree(f.parent, root) {
                total.0 += f.total_ns;
                total.1 += f.count;
            }
        }
        total
    }

    /// Self time per layer in the subtree of the phase span `root`; the
    /// root's own self time is the `unattributed` line.
    pub fn accounting(&self, root: SpanId) -> Accounting {
        let selfs = self.self_times();
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i != root && self.in_subtree(i, root) {
                *layers.entry(layer_of(s.name)).or_default() += selfs[i];
            }
        }
        for f in &self.folds {
            if self.in_subtree(f.parent, root) {
                *layers.entry(layer_of(f.name)).or_default() += f.total_ns;
            }
        }
        let r = &self.spans[root];
        Accounting {
            wall_ns: r.end_ns - r.start_ns,
            unattributed_ns: selfs[root],
            layers,
        }
    }

    /// The whole trace as TSV: one line per span and per fold.
    pub fn to_tsv(&self) -> String {
        let selfs = self.self_times();
        let mut out =
            String::from("kind\tid\top\tparent\tthread\tname\tstart_ns\tend_ns\tcount\tself_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t1\t{}",
                s.op, s.thread, s.name, s.start_ns, s.end_ns, selfs[i]
            );
        }
        for (i, f) in self.folds.iter().enumerate() {
            let _ = writeln!(
                out,
                "fold\t{i}\t-\t{}\t-\t{}\t-\t-\t{}\t{}",
                f.parent, f.name, f.count, f.total_ns
            );
        }
        out
    }
}

/// Where the wall time of one traced phase went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Duration of the phase's root span.
    pub wall_ns: u64,
    /// The root's self time: covered by no layer's span.
    pub unattributed_ns: u64,
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, u64>,
}

impl Accounting {
    /// Unattributed time as a share of the phase's wall time.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// `|wall − Σ layer self − unattributed| / wall`: zero when the
    /// phase's spans nest without overlap, so any other value means spans
    /// escaped their parents.
    pub fn imbalance(&self) -> f64 {
        let attributed: u64 = self.layers.values().sum::<u64>() + self.unattributed_ns;
        (self.wall_ns as f64 - attributed as f64).abs() / self.wall_ns.max(1) as f64
    }
}

/// The layer a span name belongs to: its prefix before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of a span over `[start, end)`: its duration minus the union
/// of its children's intervals (clipped to the span) minus `folded_ns` of
/// folded calls.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)], folded_ns: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in iv {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (end - start)
        .saturating_sub(covered)
        .saturating_sub(folded_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_no_children() {
        assert_eq!(self_time(10, 110, &[], 0), 100);
    }

    #[test]
    fn self_time_back_to_back_children() {
        // [10,30) and [30,60) touch: 50 covered, no gap counted twice.
        assert_eq!(self_time(0, 100, &[(10, 30), (30, 60)], 0), 50);
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 30)], 0), 50);
    }

    #[test]
    fn self_time_overlapping_children_count_once() {
        // Two threads' children overlap on [30,40): union is [10,70).
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 70)], 0), 40);
        // A child inside another child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)], 0), 20);
    }

    #[test]
    fn self_time_clips_children_to_parent() {
        assert_eq!(self_time(0, 100, &[(90, 120)], 0), 90);
        assert_eq!(self_time(50, 100, &[(0, 10)], 0), 50);
    }

    #[test]
    fn self_time_subtracts_folded_calls() {
        assert_eq!(self_time(0, 100, &[(0, 20)], 30), 50);
        assert_eq!(self_time(0, 100, &[], 130), 0, "saturates, never wraps");
    }

    #[test]
    fn nested_tree_self_times_sum_to_root() {
        // root [0,100) > a [10,50) > b [20,30); root > c [50,80) back to
        // back with a; plus 5 ns of folded calls under c.
        let mut t = Tracer::new();
        let root = t.record("phase.x", 0, None, 0, 100);
        let a = t.record("trainer.a", 1, Some(root), 10, 50);
        t.record("sampler.b", 1, Some(a), 20, 30);
        let c = t.record("model.c", 2, Some(root), 50, 80);
        let slot = t.fold_slot(c, "model.d");
        t.add(slot, 60, 63);
        t.add(slot, 70, 72);
        assert_eq!(t.self_times(), vec![30, 30, 10, 25]);
        let acc = t.accounting(root);
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.unattributed_ns, 30);
        assert_eq!(acc.layers["trainer"], 30);
        assert_eq!(acc.layers["sampler"], 10);
        assert_eq!(acc.layers["model"], 30);
        assert_eq!(acc.imbalance(), 0.0);
        assert_eq!(t.name_total(root, "model.d"), (5, 2));
        assert_eq!(t.name_total(a, "sampler.b"), (10, 1));
        assert_eq!(t.name_total(c, "sampler.b"), (0, 0));
    }

    #[test]
    fn absorb_remaps_thread_spans() {
        let mut main = Tracer::new();
        let root = main.record("phase.wire", 0, None, 0, 100);
        let mut th = main.for_thread(1);
        let client = th.record("phase.client", 0, None, 5, 95);
        th.record("wire.request", 7, Some(client), 10, 20);
        let slot = th.fold_slot(client, "wire.tick");
        th.add(slot, 30, 31);
        main.absorb(th, Some(root));
        assert_eq!(main.spans()[1].parent, Some(root));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].thread, 1);
        assert_eq!(main.self_times()[1], 90 - 10 - 1);
        assert!(main.to_tsv().contains("fold\t0\t-\t1\t-\twire.tick"));
    }

    #[test]
    fn layer_prefix() {
        assert_eq!(layer_of("sampler.sample_batch"), "sampler");
        assert_eq!(layer_of("phase"), "phase");
    }
}
