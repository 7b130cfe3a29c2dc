//! Source-based PT-k entry points over progressive ranked retrieval.
//!
//! [`evaluate_ptk_source`] is the paper's Figure 3 algorithm wired to the
//! retrieval abstraction of `ptk-access` instead of a materialized
//! [`RankedView`](ptk_core::RankedView): tuples are pulled one at a time in
//! ranking order, the compressed dominant set is maintained incrementally
//! (rules are discovered as their members arrive), and the pruning rules of
//! §4.4 stop *retrieval itself* — the point of progressive access. The
//! threshold-algorithm middleware (`ptk_access::TaSource`) then only ever
//! descends its sorted lists as far as the scan actually reached.
//!
//! Since the planner/executor unification these are thin wrappers over the
//! same [`PtkExecutor`] the view path uses, taking [`EngineOptions`] and
//! returning [`PtkResult`]. Streaming-specific behavior now lives in
//! the source hints: a source that cannot report rule layout
//! ([`RankedSource::rule_len`] /
//! [`RankedSource::rule_member_rank`](ptk_access::RankedSource::rule_member_rank))
//! gets absorption-recency ordering of open rule-tuples (correct, shares
//! less), and Theorem 3(2) pruning applies only when
//! [`RankedSource::rule_mass`](ptk_access::RankedSource::rule_mass) is
//! available — skipping it is always safe.

use ptk_access::RankedSource;
use ptk_obs::{Noop, Recorder};

use crate::exec::{AnswerTuple, PtkExecutor, PtkResult};
use crate::plan::{EngineOptions, PtkPlan};

/// Answers a PT-k query over a progressive ranked source.
///
/// Pulls tuples from `source` in ranking order, computing each retrieved
/// tuple's exact top-k probability, and stops retrieving as soon as the
/// pruning rules certify that no further tuple can pass `threshold`.
/// Delegates to [`PtkExecutor`].
///
/// # Panics
/// Panics if `k == 0`, `threshold` is outside `(0, 1]`, or the source
/// delivers scores out of order.
pub fn evaluate_ptk_source<S: RankedSource + ?Sized>(
    source: &mut S,
    k: usize,
    threshold: f64,
    options: &EngineOptions,
) -> PtkResult {
    evaluate_ptk_source_recorded(source, k, threshold, options, &Noop)
}

/// [`evaluate_ptk_source`] with observability: execution counters (under
/// the [`counters`](crate::counters) names), the answer count, and
/// per-phase wall-clock spans (`engine.phase.retrieval`,
/// `engine.phase.reorder`, `engine.phase.dp`, `engine.phase.bound`, all
/// under an `engine.query` umbrella span) are recorded into `recorder`.
/// With a disabled recorder this is exactly [`evaluate_ptk_source`] — no
/// clock is ever read.
///
/// # Panics
/// Panics if `k == 0`, `threshold` is outside `(0, 1]`, or the source
/// delivers scores out of order.
pub fn evaluate_ptk_source_recorded<S: RankedSource + ?Sized>(
    source: &mut S,
    k: usize,
    threshold: f64,
    options: &EngineOptions,
    recorder: &dyn Recorder,
) -> PtkResult {
    let plan = PtkPlan::new(k, threshold, options);
    PtkExecutor::with_recorder(&plan, recorder).execute(source)
}

/// Answers the same top-k query for several probability thresholds in one
/// scan of `source`: `result[i]` lists the answers for `thresholds[i]`.
///
/// The source-path twin of
/// [`evaluate_ptk_multi`](crate::evaluate_ptk_multi): the scan's pruning is
/// keyed to the smallest threshold, so one retrieval pass (and one shared
/// DP prefix) serves the whole sweep over *any* [`RankedSource`].
///
/// # Panics
/// Panics if `k == 0`, `thresholds` is empty, any threshold is outside
/// `(0, 1]`, or the source delivers scores out of order.
pub fn evaluate_ptk_multi_source<S: RankedSource + ?Sized>(
    source: &mut S,
    k: usize,
    thresholds: &[f64],
    options: &EngineOptions,
) -> Vec<Vec<AnswerTuple>> {
    let plan = PtkPlan::multi(k, thresholds, options);
    let result = PtkExecutor::new(&plan).execute(source);
    thresholds.iter().map(|&p| result.answers_at(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptk_access::{SortedVecSource, ViewSource};
    use ptk_core::{RankedView, TupleId};

    use crate::exact::evaluate_ptk;

    fn panda() -> RankedView {
        RankedView::from_ranked_probs(&[0.3, 0.4, 0.8, 0.5, 1.0, 0.2], &[vec![1, 3], vec![2, 5]])
            .unwrap()
    }

    #[test]
    fn stream_matches_view_engine_on_panda() {
        let view = panda();
        let batch = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
        let mut source = ViewSource::new(&view);
        let stream = evaluate_ptk_source(&mut source, 2, 0.35, &EngineOptions::default());
        assert_eq!(stream.answers.len(), batch.answers.len());
        for (s, b) in stream.answers.iter().zip(&batch.answers) {
            assert_eq!(s.id, view.tuple(b.rank).id);
            assert!((s.probability - b.probability).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_stops_retrieval_early() {
        let probs = vec![0.999; 500];
        let view = RankedView::from_ranked_probs(&probs, &[]).unwrap();
        let mut source = ViewSource::new(&view);
        let result = evaluate_ptk_source(&mut source, 5, 0.5, &EngineOptions::default());
        assert!(result.stats.stopped_early());
        assert!(source.retrieved() < 500, "retrieved {}", source.retrieved());
        assert_eq!(result.answers.len(), 5);
    }

    #[test]
    fn stream_from_unsorted_rows() {
        // The panda example fed as raw (score, prob, rule) rows.
        let mut source = SortedVecSource::from_unsorted(vec![
            (25.0, 0.3, None),
            (21.0, 0.4, Some(0)),
            (13.0, 0.5, Some(0)),
            (12.0, 1.0, None),
            (17.0, 0.8, Some(1)),
            (11.0, 0.2, Some(1)),
        ])
        .unwrap();
        let result = evaluate_ptk_source(&mut source, 2, 0.35, &EngineOptions::default());
        let ids: Vec<usize> = result.answers.iter().map(|a| a.id.index()).collect();
        assert_eq!(ids, vec![1, 4, 2]); // R2, R5, R3 in ranking order
        assert!((result.answers[1].probability - 0.704).abs() < 1e-12);
        assert_eq!(result.answers[1].score, 17.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_sources_are_rejected() {
        struct Bad(usize);
        impl RankedSource for Bad {
            fn next_ranked(&mut self) -> Option<ptk_access::SourceTuple> {
                self.0 += 1;
                (self.0 <= 2).then(|| ptk_access::SourceTuple {
                    id: TupleId::new(self.0),
                    score: self.0 as f64, // increasing: illegal
                    prob: 0.5,
                    rule: None,
                })
            }
            fn retrieved(&self) -> usize {
                self.0
            }
        }
        let _ = evaluate_ptk_source(&mut Bad(0), 2, 0.5, &EngineOptions::default());
    }

    #[test]
    fn pruning_off_scans_everything() {
        let view = panda();
        let mut source = ViewSource::new(&view);
        let options = EngineOptions {
            pruning: false,
            ..Default::default()
        };
        let result = evaluate_ptk_source(&mut source, 2, 0.35, &options);
        assert_eq!(result.stats.scanned, 6);
        assert_eq!(result.stats.evaluated, 6);
        assert_eq!(result.answers.len(), 3);
    }

    #[test]
    fn multi_source_matches_per_threshold_runs() {
        let view = panda();
        let thresholds = [0.9, 0.35, 0.1, 0.5];
        let mut source = ViewSource::new(&view);
        let multi =
            evaluate_ptk_multi_source(&mut source, 2, &thresholds, &EngineOptions::default());
        for (i, &p) in thresholds.iter().enumerate() {
            let mut fresh = ViewSource::new(&view);
            let single = evaluate_ptk_source(&mut fresh, 2, p, &EngineOptions::default());
            let ids: Vec<usize> = multi[i].iter().map(|a| a.id.index()).collect();
            let expect: Vec<usize> = single.answers.iter().map(|a| a.id.index()).collect();
            assert_eq!(ids, expect, "threshold {p}");
        }
    }
}
