//! # `ptk-engine` — the exact PT-k query engine
//!
//! The paper's primary contribution (§4): answering probabilistic threshold
//! top-k queries with **one scan** of the ranked tuple list instead of
//! enumerating the exponentially many possible worlds.
//!
//! Since the planner/executor unification, every entry point — view-based,
//! source-based, single- or multi-threshold — is a thin wrapper over one
//! pipeline: a [`PtkPlan`] validates the request and lowers it into the
//! stage list of DESIGN.md §9, and a [`PtkExecutor`] drives that plan over
//! any [`RankedSource`](ptk_access::RankedSource). The pieces, each in its
//! own module:
//!
//! * [`dp`] — the subset-probability (Poisson-binomial) dynamic program of
//!   Theorem 2, truncated at `k`;
//! * [`PtkPlan`] / [`PlanStage`] — planning and validation: ranked
//!   retrieval, rule compression (Corollaries 1–2), prefix-shared DP with
//!   the reordering strategies of §4.3.2 (selected by [`SharingVariant`]),
//!   pruning (§4.4), answer emission;
//! * [`PtkExecutor`] — the full algorithm of Figure 3 with the pruning
//!   rules of Theorems 3–5 and an early-exit upper bound, over any ranked
//!   source;
//! * [`evaluate_ptk`] / [`evaluate_ptk_source`] — the classic view-based
//!   and source-based entry points, now wrappers over the executor;
//! * [`PtkExecutor::execute_semantics`] — the other ranking semantics
//!   ([`RankSemantics`]: U-TopK, U-KRanks, Global-Topk, expected rank),
//!   each a finisher over one unpruned generating-function scan;
//! * [`Scanner`] — the step-at-a-time view of the compressed dominant set,
//!   kept for instrumentation;
//! * [`topk_probabilities`] / [`position_probabilities`] — full-scan
//!   variants exposing the exact distributions.
//!
//! ```
//! use ptk_core::RankedView;
//! use ptk_engine::{evaluate_ptk, EngineOptions};
//!
//! // The paper's running example (Table 1), ranked by duration:
//! // R1 (0.3), R2 (0.4), R5 (0.8), R3 (0.5), R4 (1.0), R6 (0.2),
//! // with rules R2⊕R3 and R5⊕R6.
//! let view = RankedView::from_ranked_probs(
//!     &[0.3, 0.4, 0.8, 0.5, 1.0, 0.2],
//!     &[vec![1, 3], vec![2, 5]],
//! ).unwrap();
//!
//! // PT-2 query with p = 0.35 returns {R2, R5, R3} (Example 1).
//! let result = evaluate_ptk(&view, 2, 0.35, &EngineOptions::default());
//! assert_eq!(result.answer_ranks(), vec![1, 2, 3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dp;
mod exact;
mod exec;
mod gf;
mod layout;
mod plan;
mod scanner;
mod stats;
mod stream;

pub use exact::{
    evaluate_ptk, evaluate_ptk_multi, evaluate_ptk_recorded, position_probabilities,
    topk_probabilities,
};
pub use exec::{AnswerTuple, PtkExecutor, PtkResult};
pub use gf::{RankSemantics, SemanticsAnswer, SemanticsError, SemanticsRow, UTOPK_MAX_STATES};
pub use plan::{EngineOptions, PlanError, PlanStage, PtkBatch, PtkPlan, SharingVariant};
pub use scanner::{Entry, Scanner, StepRow};
pub use stats::{counters, ExecStats, StopReason};
pub use stream::{evaluate_ptk_multi_source, evaluate_ptk_source, evaluate_ptk_source_recorded};
