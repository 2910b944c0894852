"""fp32 firewall: no silent float64 on the inference path.

PR 2 rebuilt the inference stack on strict float32 discipline — the
``Module.__call__`` boundary casts inputs once, and everything
downstream (im2col, GEMM, batch-norm folding, resize, softmax) is
dtype-preserving.  PR 5's moment envelope is *measured in* and
*certified for* float32: a stray float64 promotion silently doubles
memory traffic and invalidates the certified error model without
failing a single seeded test.

Scope: the inference-path packages ``repro.nn``, ``repro.segmentation``
and ``repro.core``.  Four rules:

* ``FP32-FLOAT64`` — any direct use of ``np.float64``.
* ``FP32-DTYPELESS`` — ``np.zeros/ones/empty/arange/linspace`` without
  an explicit ``dtype`` (numpy defaults them to float64/int64; the
  firewall wants the choice written down).
* ``FP32-ASTYPE-WIDEN`` — ``.astype(float)`` / ``.astype(np.float64)``
  / ``.astype("float64")``.
* ``FP32-INT8-QUANT`` — ``np.int8`` / ``np.int16`` / ``np.int32`` (as
  attributes or ``.astype`` strings).  Quantised-integer tensors on
  the inference path change the certified working precision exactly
  like a float64 promotion does, and the inference path has no
  quantised engine, so this rule has no island.  (``np.uint8``
  pool-count masks and ``np.int64``/``np.intp`` index vectors are not
  value quantisation and stay legal.)

The *documented float64 islands* — places that deliberately leave
float32 and cast at a single boundary — are allowlisted in
``FLOAT64_ISLANDS`` with their justification.  Monte-Carlo moments have
exactly one: ``BayesianSegmenter``'s ``_RunningMoments``, which every
MC path (the episode engine's joint, shared and serve passes included)
accumulates through.  Anything new either stays float32 or earns an
inline ``# repro-lint: disable=...`` with a one-line reason.
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    BaseChecker,
    CheckContext,
    Rule,
    ScopedVisitor,
    dotted_name,
)

#: Packages behind the firewall (repo-relative path prefixes).
SCOPE_PREFIXES = (
    "src/repro/nn/",
    "src/repro/segmentation/",
    "src/repro/core/",
)

#: The documented float64 islands: ``(path, qualname prefix or None
#: for the whole module, justification)``.  Each island computes in
#: float64 deliberately and casts (or stays off the tensor hot path)
#: at a single boundary.
FLOAT64_ISLANDS: tuple[tuple[str, str | None, str], ...] = (
    ("src/repro/nn/gradcheck.py", None,
     "gradient checking runs in float64 for stable finite "
     "differences (module docstring; float32_boundary_disabled)"),
    ("src/repro/nn/layers.py", "BatchNorm2d",
     "batch-norm running statistics accumulate in float64; the "
     "fused eval scale/shift casts once to float32"),
    ("src/repro/nn/losses.py", "class_weights_from_frequencies",
     "class-frequency statistics (training-time, off the inference "
     "path); the loss itself casts back to the logit dtype"),
    ("src/repro/nn/functional.py", "linear_resize_weights",
     "resize weights: fractional coordinates in float64, single cast "
     "on the final memoised weight matrix"),
    ("src/repro/nn/functional.py", "resize_nearest_forward",
     "nearest-neighbour source coordinates in float64, rounded to "
     "integer indices once"),
    ("src/repro/segmentation/metrics.py", None,
     "confusion-matrix metrics (evaluation-time): IoU/accuracy "
     "ratios in float64, never on the inference path"),
    ("src/repro/segmentation/bayesian.py", "_RunningMoments",
     "float64 running sum / sum-of-squares in strict sample order — "
     "the accumulator behind every bit-for-bit moments contract"),
    ("src/repro/core/landing_zone.py", "LandingZoneSelector",
     "clearance maps are metric distances (metres), not tensors; "
     "scipy's distance transform returns float64"),
)

#: Constructors whose numpy default dtype is not float32.
DTYPELESS_CTORS = frozenset(
    {"zeros", "ones", "empty", "arange", "linspace"})

#: Positional index at which each constructor accepts ``dtype``.
_DTYPE_POS = {"zeros": 1, "ones": 1, "empty": 1, "arange": 3,
              "linspace": 5}

_WIDENING_STRINGS = frozenset({"float64", "f8", "<f8", ">f8", "d",
                               "double"})

#: Quantised-integer dtype spellings caught by ``FP32-INT8-QUANT``.
_QUANT_INT_ATTRS = frozenset(
    {"numpy.int8", "numpy.int16", "numpy.int32"})
_QUANT_INT_STRINGS = frozenset(
    {"int8", "int16", "int32", "i1", "i2", "i4",
     "<i1", "<i2", "<i4", ">i1", ">i2", ">i4", "b"})


class Fp32FirewallChecker(BaseChecker):
    name = "fp32-firewall"
    rules = (
        Rule("FP32-FLOAT64",
             "np.float64 on the inference path outside a documented "
             "island",
             contract="fp32 error envelopes (PR 2 discipline, PR 5 "
                      "moments)"),
        Rule("FP32-DTYPELESS",
             "numpy constructor without an explicit dtype in the "
             "firewall scope",
             contract="fp32 error envelopes (PR 2 discipline, PR 5 "
                      "moments)"),
        Rule("FP32-ASTYPE-WIDEN",
             ".astype to float64/builtin float on the inference path",
             contract="fp32 error envelopes (PR 2 discipline, PR 5 "
                      "moments)"),
        Rule("FP32-INT8-QUANT",
             "quantised-integer dtype (np.int8/int16/int32) on the "
             "inference path",
             contract="fp32 working precision of the inference path "
                      "(no quantised engine)"),
    )

    def check(self, ctx: CheckContext):
        if not ctx.rel_path.startswith(SCOPE_PREFIXES):
            return
        visitor = _Fp32Visitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings

    def island_for(self, rel_path: str, qualname: str,
                   islands=FLOAT64_ISLANDS) -> str | None:
        """Justification text if the location is an allowlisted island."""
        for path, prefix, why in islands:
            if rel_path != path:
                continue
            if prefix is None or qualname == prefix \
                    or qualname.startswith(prefix + "."):
                return why
        return None


class _Fp32Visitor(ScopedVisitor):
    def __init__(self, checker: Fp32FirewallChecker, ctx: CheckContext):
        super().__init__()
        self.checker = checker
        self.ctx = ctx
        self.findings = []

    def _report(self, node, rule_id, message, hint="",
                islands=FLOAT64_ISLANDS):
        if self.checker.island_for(self.ctx.rel_path, self.qualname,
                                   islands=islands):
            return
        self.findings.append(
            self.checker.finding(self.ctx, node, rule_id, message,
                                 hint=hint))

    # -- np.float64 / quantised int dtypes anywhere -------------------
    def visit_Attribute(self, node: ast.Attribute):
        name = dotted_name(node, self.ctx.imports)
        if name == "numpy.float64":
            self._report(
                node, "FP32-FLOAT64",
                "np.float64 on the inference path",
                hint="stay in float32 (the certified working "
                     "precision), or document the island in "
                     "repro.analysis.checkers.fp32.FLOAT64_ISLANDS / "
                     "add an inline justified disable")
        elif name in _QUANT_INT_ATTRS:
            self._report(
                node, "FP32-INT8-QUANT",
                f"{name.replace('numpy.', 'np.')} on the inference "
                "path",
                hint="keep tensors float32, or add an inline "
                     "justified disable",
                islands=())
        self.generic_visit(node)

    # -- dtype-less constructors and astype ---------------------------
    def visit_Call(self, node: ast.Call):
        name = dotted_name(node.func, self.ctx.imports)
        if name is not None and name.startswith("numpy."):
            fn = name.rsplit(".", 1)[1]
            if fn in DTYPELESS_CTORS and not self._has_dtype(node, fn):
                self._report(
                    node, "FP32-DTYPELESS",
                    f"np.{fn}(...) without an explicit dtype "
                    "(numpy defaults to float64/int64)",
                    hint="write the dtype down — np.float32 for "
                         "tensors, an integer dtype for index "
                         "vectors")
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "astype" and node.args:
            target = node.args[0]
            widened = (
                (isinstance(target, ast.Name) and target.id == "float")
                or dotted_name(target, self.ctx.imports)
                == "numpy.float64"
                or (isinstance(target, ast.Constant)
                    and isinstance(target.value, str)
                    and target.value in _WIDENING_STRINGS))
            if widened:
                self._report(
                    node, "FP32-ASTYPE-WIDEN",
                    ".astype to float64 on the inference path",
                    hint="cast to np.float32, or keep the input "
                         "dtype (dtype-preserving kernels)")
            # The np.int8-as-attribute form is caught by
            # visit_Attribute; only the string spellings need a hook
            # here.
            if isinstance(target, ast.Constant) \
                    and isinstance(target.value, str) \
                    and target.value in _QUANT_INT_STRINGS:
                self._report(
                    node, "FP32-INT8-QUANT",
                    f".astype({target.value!r}) on the inference path",
                    hint="keep tensors float32, or add an inline "
                         "justified disable",
                    islands=())
        self.generic_visit(node)

    @staticmethod
    def _has_dtype(node: ast.Call, fn: str) -> bool:
        if any(kw.arg == "dtype" for kw in node.keywords):
            return True
        return len(node.args) > _DTYPE_POS[fn]
