//! # looprag-retrieval
//!
//! Demonstration retrieval for LOOPRAG: an in-memory Okapi BM25 index
//! (the Elasticsearch substitute), renaming-invariant loop-feature
//! extraction (Appendix D) and the loop-aware LAScore of §4.2 that
//! balances similarity and diversity.
//!
//! Two implementations rank examples:
//!
//! * [`Retriever`] — the straightforward string-keyed reference path;
//! * [`KnowledgeBase`] — the production path: interned terms, CSR
//!   postings, a flat feature arena, exact max-score pruning, sharded
//!   scoring and incremental [`KnowledgeBase::insert`]. Its rankings are
//!   pinned bit-for-bit equal to [`Retriever`]'s.
//!
//! ```
//! use looprag_retrieval::{KnowledgeBase, RetrievalMode};
//! let ex = looprag_ir::compile(
//!     "param N = 8;\narray A[N];\nout A;\n#pragma scop\n\
//!      for (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n",
//!     "ex0",
//! )?;
//! let mut kb = KnowledgeBase::build([(0usize, &ex)]);
//! kb.insert(1, &ex);
//! let hits = kb.query(&ex, RetrievalMode::LoopAware, 5);
//! assert_eq!(hits.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod bm25;
mod features;
mod knowledge;
mod lascore;

pub use bm25::{tokenize, Bm25Index, Bm25Params};
pub use features::{extract_features, intersection_count, StmtFeatures, NUM_FEATURE_TYPES};
pub use knowledge::KnowledgeBase;
pub use lascore::{weighted_score, LaWeights, RetrievalMode, Retriever};
