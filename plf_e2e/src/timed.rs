//! The harness clock: a transparent [`Evaluator`] wrapper that records
//! one span per call into a preallocated buffer.
//!
//! Spans inside the program are a later change; until then the search
//! layer's own time (`search.self_s`) and the engine's non-kernel time
//! (`core.traversal_overhead_s`) are residuals, and are named so.

use phylo_models::GtrParams;
use phylo_search::{Evaluator, MlSearch, SearchResult};
use phylo_tree::{EdgeId, Tree};
use std::time::Instant;

/// Spans one run may record before further ones are dropped (and
/// counted). The busiest workload records under 100 000.
const CAPACITY: usize = 1 << 20;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole `MlSearch::run`.
    Run,
    /// `Evaluator::log_likelihood`.
    Eval,
    /// `Evaluator::prepare_branch`.
    Prepare,
    /// `Evaluator::branch_derivatives`.
    Deriv,
    /// `Evaluator::set_alpha` or `Evaluator::set_model`.
    SetModel,
}

impl SpanKind {
    /// Name written to `--trace-out`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Eval => "log_likelihood",
            SpanKind::Prepare => "prepare_branch",
            SpanKind::Deriv => "branch_derivatives",
            SpanKind::SetModel => "set_model",
        }
    }
}

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Begin.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the span that caused it, [`NO_PARENT`] for a run.
    pub parent: u32,
}

/// The spans of one traced search.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Closed spans; the run span is first.
    pub spans: Vec<Span>,
    /// Spans lost to a full buffer.
    pub dropped: u64,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Per-kind totals under the run span, and the run's self time.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for s in &self.spans {
            let ns = s.end_ns - s.start_ns;
            let slot = match s.kind {
                SpanKind::Run => {
                    b.run_ns += ns;
                    continue;
                }
                SpanKind::Eval => &mut b.eval,
                SpanKind::Prepare => &mut b.prepare,
                SpanKind::Deriv => &mut b.deriv,
                SpanKind::SetModel => &mut b.set_model,
            };
            slot.ns += ns;
            slot.calls += 1;
        }
        b
    }

    /// The spans as JSONL, one object per line, tagged with the run.
    pub fn to_jsonl(&self, run_id: usize, scheme: &str, out: &mut String) {
        use std::fmt::Write as _;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"run\":{run_id},\"scheme\":\"{scheme}\",\"span\":{i},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
        }
    }
}

/// Time and call count of one span kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Summed duration.
    pub ns: u64,
    /// Spans.
    pub calls: u64,
}

/// Where one traced search's wall time went, by evaluator entry point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// The run span.
    pub run_ns: u64,
    /// `log_likelihood`.
    pub eval: KindTotal,
    /// `prepare_branch`.
    pub prepare: KindTotal,
    /// `branch_derivatives`.
    pub deriv: KindTotal,
    /// `set_alpha` + `set_model`.
    pub set_model: KindTotal,
}

impl Breakdown {
    /// Time inside evaluator calls.
    pub fn children_ns(&self) -> u64 {
        self.eval.ns + self.prepare.ns + self.deriv.ns + self.set_model.ns
    }

    /// The run span's self time: the search layer's own work.
    pub fn search_self_ns(&self) -> u64 {
        self.run_ns - self.children_ns()
    }
}

/// Wraps an evaluator and records a span around every call. Results
/// pass through untouched.
pub struct TimedEvaluator<E> {
    inner: E,
    log: SpanLog,
}

impl<E: Evaluator> TimedEvaluator<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        TimedEvaluator {
            inner,
            log: SpanLog::new(),
        }
    }

    /// Runs `search` on the wrapped evaluator under a run span.
    pub fn run(&mut self, search: &MlSearch, tree: &mut Tree) -> SearchResult {
        // The run span is pushed first so that its index (0) can be
        // every call's parent; its end is patched in afterwards.
        let start_ns = self.log.now_ns();
        self.log.push(Span {
            kind: SpanKind::Run,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
        });
        let result = search.run(self, tree);
        self.log.spans[0].end_ns = self.log.now_ns();
        result
    }

    /// The wrapped evaluator and what was recorded.
    pub fn into_parts(self) -> (E, SpanLog) {
        (self.inner, self.log)
    }

    #[inline]
    fn timed<T>(&mut self, kind: SpanKind, call: impl FnOnce(&mut E) -> T) -> T {
        let start_ns = self.log.now_ns();
        let out = call(&mut self.inner);
        let end_ns = self.log.now_ns();
        self.log.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: 0,
        });
        out
    }
}

impl<E: Evaluator> Evaluator for TimedEvaluator<E> {
    fn log_likelihood(&mut self, tree: &Tree, root_edge: EdgeId) -> f64 {
        self.timed(SpanKind::Eval, |e| e.log_likelihood(tree, root_edge))
    }
    fn prepare_branch(&mut self, tree: &Tree, edge: EdgeId) {
        self.timed(SpanKind::Prepare, |e| e.prepare_branch(tree, edge))
    }
    fn branch_derivatives(&mut self, t: f64) -> (f64, f64) {
        self.timed(SpanKind::Deriv, |e| e.branch_derivatives(t))
    }
    fn set_alpha(&mut self, alpha: f64) {
        self.timed(SpanKind::SetModel, |e| e.set_alpha(alpha))
    }
    fn set_model(&mut self, params: GtrParams) {
        self.timed(SpanKind::SetModel, |e| e.set_model(params))
    }
    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }
    fn model(&self) -> GtrParams {
        self.inner.model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;
    use crate::spec::WORKLOADS;
    use phylo_bio::{phylip, CompressedAlignment};
    use phylo_search::SearchConfig;
    use phylo_tree::newick;
    use plf_core::{EngineConfig, LikelihoodEngine};

    #[test]
    fn wrapper_is_transparent_and_layers_sum_to_wall() {
        let w = WORKLOADS[2].shrunk(20); // model optimisation: every entry point is called
        let inputs = generate(&w, 3);
        let aln = CompressedAlignment::from_alignment(&phylip::parse_str(&inputs.phylip).unwrap());
        let start = newick::parse(inputs.start_newick.trim()).unwrap();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 1,
            ..Default::default()
        });

        let mut plain_tree = start.clone();
        let mut plain = LikelihoodEngine::new(&plain_tree, &aln, EngineConfig::default());
        let expected = search.run(&mut plain, &mut plain_tree);

        let mut tree = start.clone();
        let mut timed =
            TimedEvaluator::new(LikelihoodEngine::new(&tree, &aln, EngineConfig::default()));
        let got = timed.run(&search, &mut tree);
        let (engine, log) = timed.into_parts();

        assert_eq!(
            got.log_likelihood.to_bits(),
            expected.log_likelihood.to_bits()
        );
        assert_eq!(got.newick, expected.newick);
        assert_eq!(
            (got.rounds, got.spr_evaluated, got.spr_accepted),
            (
                expected.rounds,
                expected.spr_evaluated,
                expected.spr_accepted
            )
        );
        assert_eq!(engine.stats().total_calls(), plain.stats().total_calls());

        assert_eq!(log.dropped, 0);
        assert_eq!(log.spans[0].kind, SpanKind::Run);
        let b = log.breakdown();
        assert!(b.eval.calls > 0 && b.prepare.calls > 0 && b.deriv.calls > 0);
        assert!(b.set_model.calls > 0, "model optimisation sets parameters");
        assert!(
            b.children_ns() <= b.run_ns,
            "children fit inside the run span"
        );
        assert_eq!(
            b.eval.ns + b.prepare.ns + b.deriv.ns + b.set_model.ns + b.search_self_ns(),
            b.run_ns,
            "layers plus the residual are the wall, exactly"
        );
        let run = log.spans[0];
        assert!(log.spans[1..]
            .iter()
            .all(|s| s.parent == 0 && s.start_ns >= run.start_ns && s.end_ns <= run.end_ns));
    }
}
