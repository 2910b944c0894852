"""The shipped checkers, one module per invariant family."""

from __future__ import annotations

from repro.analysis.checkers.engine_mode import EngineModeChecker
from repro.analysis.checkers.fp32 import Fp32FirewallChecker
from repro.analysis.checkers.knobs import KnobSurfaceChecker
from repro.analysis.checkers.monitor_rule import MonitorRuleChecker
from repro.analysis.checkers.rng import RngDisciplineChecker

#: Instantiation order fixes the report order of equal-position
#: findings; keep alphabetical by invariant name.
CHECKER_CLASSES = (
    EngineModeChecker,
    Fp32FirewallChecker,
    KnobSurfaceChecker,
    MonitorRuleChecker,
    RngDisciplineChecker,
)

__all__ = [
    "CHECKER_CLASSES",
    "EngineModeChecker",
    "Fp32FirewallChecker",
    "KnobSurfaceChecker",
    "MonitorRuleChecker",
    "RngDisciplineChecker",
]
