"""Whole-program dataflow engine over the DirectiveProgram IR.

Where the four local lint passes pattern-match event windows and the
sanitizer steps the coherence engine once over an *executed* schedule,
this package reasons about the whole program statically:

* :mod:`~repro.analyze.dataflow.graph` — a :class:`DependenceGraph` over
  :class:`~repro.analyze.program.AccEvent`\\ s: RAW/WAR/WAW edges from
  ``accesses(conservative=True)`` joined with the happens-before order
  induced by queues, ``wait``/``wait_all`` and send/recv message edges,
  with reachability queries and Graphviz export;
* :mod:`~repro.analyze.dataflow.absint` — the coherence engine: the
  transfer functions of the five coherence rules over per-array
  host/device dirty byte intervals. Its static driver closes the step
  loop (the body iterates to a fixpoint) so steady-state facts hold and
  the rules become compile-time ``DF*`` diagnostics with event-chain
  witnesses; the sanitizer is its dynamic driver;
* :mod:`~repro.analyze.dataflow.crossrank` — send/recv matching across
  per-rank programs: unmatched messages and wait-cycle deadlocks;
* :mod:`~repro.analyze.dataflow.opportunities` — ``OptimizationOpportunity``
  records (kernel fusion, update hoisting, cancellable update pairs) with
  machine-checked proofs: each candidate replays its transformed schedule
  through the coherence engine and must land bitwise-equal.

``repro lint --deep`` runs the coherence engine beside the default
passes; ``repro deps`` exposes the graph (``--dot``) and the opportunity
artifact (``--opportunities``) consumed — hash-gated — by the
fused-kernel compiler, :mod:`repro.compile`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "absint": ("CoherenceSummary", "interpret_program"),
    "crossrank": ("CrossRankResult", "check_ranks", "match_messages"),
    "graph": ("DepEdge", "DependenceGraph", "LoopRegion", "detect_loops"),
    "opportunities": (
        "OPPORTUNITY_SCHEMA", "OpportunityReport", "OptimizationOpportunity", "apply_opportunity",
        "find_opportunities", "replay_fingerprint", "reports_to_json", "validate_opportunities",
        "verify_opportunity",
    ),
    "passes": ("DataflowCoherencePass",),
})
