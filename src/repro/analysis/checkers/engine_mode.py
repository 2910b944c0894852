"""Engine-mode hygiene: environment toggles stay at their sanctioned sites.

One environment variable (``REPRO_MONITOR_SHARED``) reroutes a whole
engine family at run time — that is how ``scripts/check.sh`` re-runs
the tier-1 suites under the shared-context engine.  It is sanctioned
because the certification rerun needs a process-default switch that
flips *every* joint monitoring call without editing each
``MonitorConfig``, and the read lives at the single documented site in
``core/monitor.py`` (``shared_context_default``), consulted per call
so tests can monkeypatch it.  The flip side: a test or bench that sets
a toggle and fails to restore it silently changes what every *later*
test measures, and an ``os.environ`` read scattered outside the
sanctioned sites turns the environment into an undocumented knob
surface.

Two rules:

* ``ENG-ENV-READ`` — inside ``src/repro``, ``os.environ``/
  ``os.getenv`` may only be consulted at the sanctioned sites (the
  shared-context toggle in ``core/monitor.py``, the trained-system
  cache root in ``eval/harness.py`` and the strict-seed switch in
  ``utils/rng.py``).
* ``ENG-ENV-WRITE`` — nobody mutates ``os.environ`` directly; tests
  use ``monkeypatch.setenv`` (auto-restoring) and subprocesses get an
  explicit ``env=`` mapping.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    BaseChecker,
    CheckContext,
    Rule,
    dotted_name,
)

#: The sanctioned ``os.environ`` readers inside ``src/repro``.
SANCTIONED_ENV_READERS = frozenset({
    "src/repro/core/monitor.py",    # REPRO_MONITOR_SHARED toggle
    "src/repro/eval/harness.py",    # REPRO_CACHE weight-cache root
    "src/repro/utils/rng.py",       # REPRO_REQUIRE_SEED strict mode
})

_ENV_MUTATORS = frozenset({"update", "setdefault", "pop", "clear",
                           "popitem"})


class EngineModeChecker(BaseChecker):
    name = "engine-mode-hygiene"
    rules = (
        Rule("ENG-ENV-READ",
             "os.environ consulted outside the sanctioned sites in "
             "src/repro",
             contract="engine-mode certification reruns "
                      "(REPRO_MONITOR_SHARED)"),
        Rule("ENG-ENV-WRITE",
             "direct os.environ mutation (leaks process-wide)",
             contract="engine-mode certification reruns "
                      "(REPRO_MONITOR_SHARED)"),
    )

    def check(self, ctx: CheckContext):
        visitor = _EngineVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


class _EngineVisitor(ast.NodeVisitor):
    def __init__(self, checker: EngineModeChecker, ctx: CheckContext):
        self.checker = checker
        self.ctx = ctx
        self.findings = []

    def report(self, node, rule_id, message, hint=""):
        self.findings.append(
            self.checker.finding(self.ctx, node, rule_id, message,
                                 hint=hint))

    # -- environment reads --------------------------------------------
    def visit_Attribute(self, node: ast.Attribute):
        name = dotted_name(node, self.ctx.imports)
        if name == "os.environ" \
                and isinstance(node.ctx, ast.Load) \
                and self.ctx.rel_path.startswith("src/repro/") \
                and self.ctx.rel_path \
                not in SANCTIONED_ENV_READERS:
            self.report(
                node, "ENG-ENV-READ",
                "os.environ read outside the sanctioned sites",
                hint="route run-time toggles through the documented "
                     "knob surfaces (EngineConfig, MonitorConfig) or "
                     "add the site to SANCTIONED_ENV_READERS with a "
                     "documented reason")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        base = dotted_name(node.value, self.ctx.imports)
        if base == "os.environ" \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.report(
                node, "ENG-ENV-WRITE",
                "direct os.environ mutation",
                hint="use pytest's monkeypatch.setenv (auto-restores) "
                     "or pass an explicit env= mapping to the "
                     "subprocess")
        self.generic_visit(node)

    # -- env-mutator calls, getenv -------------------------------------
    def visit_Call(self, node: ast.Call):
        name = dotted_name(node.func, self.ctx.imports)
        if name is not None:
            if name == "os.getenv" \
                    and self.ctx.rel_path.startswith("src/repro/") \
                    and self.ctx.rel_path \
                    not in SANCTIONED_ENV_READERS:
                self.report(
                    node, "ENG-ENV-READ",
                    "os.getenv outside the sanctioned sites",
                    hint="route run-time toggles through the "
                         "documented knob surfaces (EngineConfig, "
                         "MonitorConfig)")
            elif name in ("os.putenv", "os.unsetenv"):
                self.report(
                    node, "ENG-ENV-WRITE",
                    f"{name} mutates the process environment",
                    hint="use monkeypatch.setenv or subprocess "
                         "env= mappings")
            elif name.startswith("os.environ.") \
                    and name.rsplit(".", 1)[1] in _ENV_MUTATORS:
                self.report(
                    node, "ENG-ENV-WRITE",
                    f"{name} mutates the process environment",
                    hint="use monkeypatch.setenv or subprocess "
                         "env= mappings")
        self.generic_visit(node)
