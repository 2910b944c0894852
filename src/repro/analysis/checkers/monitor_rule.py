"""Monitor threshold form: Eq. (2) tests must count NaN as unsafe.

Eq. (2) accepts a pixel when ``mu + 3*sigma <= tau``.  Its complement
written as ``upper > tau`` fails open: a NaN compares False, so a
non-finite statistic counts as safe and its zone can be accepted.
The runtime threshold tests are written ``~(x <= tau)``; this rule
keeps both homes of Eq. (2) (``core/monitor.py``, the runtime rule, and
``eval/monitor_metrics.py``, its offline ROC twin) in that form.

One rule:

* ``MON-FAIL-OPEN`` — a comparison ``x > T``, ``x >= T``, ``T < x`` or
  ``T <= x`` where ``T`` is a name or attribute called ``tau`` or
  ``max_unsafe_fraction``.  Write the test as ``~(x <= T)`` (flags
  NaN) or as the accepting ``x <= T`` (NaN not accepted).
"""

from __future__ import annotations

import ast

from repro.analysis.base import BaseChecker, CheckContext, Rule

#: The two homes of Eq. (2).
SCOPE_PATHS = frozenset({
    "src/repro/core/monitor.py",
    "src/repro/eval/monitor_metrics.py",
})

#: Threshold operand names (bare or as an attribute).
THRESHOLD_NAMES = frozenset({"tau", "max_unsafe_fraction"})


def _is_threshold(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in THRESHOLD_NAMES
    return isinstance(node, ast.Attribute) and node.attr in THRESHOLD_NAMES


class MonitorRuleChecker(BaseChecker):
    name = "monitor-fail-closed"
    rules = (
        Rule("MON-FAIL-OPEN",
             "threshold test that counts NaN as safe (x > tau); write "
             "~(x <= tau)",
             contract="the monitor fails closed on non-finite "
                      "statistics (Eq. (2))"),
    )

    def check(self, ctx: CheckContext):
        if ctx.rel_path not in SCOPE_PATHS:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if (isinstance(op, (ast.Gt, ast.GtE))
                        and _is_threshold(right)) or \
                        (isinstance(op, (ast.Lt, ast.LtE))
                         and _is_threshold(left)):
                    yield self.finding(
                        ctx, node, "MON-FAIL-OPEN",
                        "threshold test is False for NaN, so a NaN "
                        "statistic counts as safe",
                        hint="write the flag as ~(x <= tau), which is "
                             "True for NaN (fails closed)")
