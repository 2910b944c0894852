"""Static enforcement of the repro's certification contracts.

Every speedup this reproduction ships is sold on a contract —
bit-for-bit seeded equivalence (PRs 1-3), a pinned fp32 moment envelope
and zero Fig. 4 / safety-book flips (PRs 5 and 7).  Those contracts
are guarded at runtime by the test matrix, but a single stray
``np.random.seed``, a silent float64 promotion past the
``Module.__call__`` firewall, or a stray environment read can
invalidate them in ways the seeded tests may not sample.  This package
is the diff-time gate: a self-contained AST-based invariant linter
(stdlib :mod:`ast` only, no third-party dependencies) run by
``scripts/check.sh`` as its first stage::

    PYTHONPATH=src python -m repro.analysis --strict

Shipped rules (``python -m repro.analysis --list-rules``):

* **RNG discipline** (:mod:`repro.analysis.checkers.rng`) — no numpy
  legacy global-state RNG calls, no unseeded ``default_rng()`` outside
  :mod:`repro.utils.rng`.
* **fp32 firewall** (:mod:`repro.analysis.checkers.fp32`) — no
  float64-introducing patterns in the inference-path packages, with a
  documented allowlist for the deliberate float64 islands.
* **Engine-mode hygiene** (:mod:`repro.analysis.checkers.engine_mode`)
  — environment toggles (``REPRO_MONITOR_SHARED``, ...) are read
  only at their sanctioned sites and never mutated directly.
* **Knob-surface drift** (:mod:`repro.analysis.checkers.knobs`) —
  every ``EngineConfig``/``MonitorConfig``/``DecisionConfig`` field is
  documented in its class docstring and the README.
* **Monitor fail-closed form** (:mod:`repro.analysis.checkers
  .monitor_rule`) — Eq. (2)'s threshold tests in ``core/monitor.py``
  and ``eval/monitor_metrics.py`` are never written ``x > tau``, which
  counts a NaN statistic as safe.

False positives are silenced per line with ``# repro-lint:
disable=RULE`` (plus a one-line justification) or grandfathered via
the committed baseline file (``scripts/repro_lint_baseline.json``,
maintained with ``--update-baseline``).
"""

from __future__ import annotations

from repro.analysis.base import BaseChecker, CheckContext, Rule
from repro.analysis.findings import Finding
from repro.analysis.runner import (
    DEFAULT_PATHS,
    all_checkers,
    lint_source,
    lint_tree,
)

__all__ = [
    "BaseChecker",
    "CheckContext",
    "Rule",
    "Finding",
    "DEFAULT_PATHS",
    "all_checkers",
    "lint_source",
    "lint_tree",
]
