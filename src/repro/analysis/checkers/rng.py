"""RNG discipline: every random draw comes from a seeded Generator.

The bit-for-bit contracts of PRs 1-3 (batched == sequential,
engine == per-episode pipelines) hold because
every stochastic component threads an explicit seeded
:class:`numpy.random.Generator` — coerced once by
:func:`repro.utils.rng.ensure_rng`, split with
:func:`repro.utils.rng.spawn`.  A single call into numpy's *legacy
global-state* API (``np.random.seed``, ``np.random.rand``, ...) or an
*unseeded* ``default_rng()`` reintroduces hidden cross-component
coupling or nondeterminism that the seeded test matrix cannot reliably
catch.

Two rules:

* ``RNG-GLOBAL-STATE`` — any call through ``numpy.random``'s legacy
  global-state functions (or the stdlib ``random`` module's
  module-level functions, the same hazard in stdlib clothing).
* ``RNG-UNSEEDED`` — ``numpy.random.default_rng()`` with no seed (or
  an explicit ``None``) anywhere outside its one sanctioned home,
  :mod:`repro.utils.rng` — whose ``ensure_rng(None)`` escape hatch is
  itself auditable at run time via ``REPRO_REQUIRE_SEED=1`` (see that
  module).
"""

from __future__ import annotations

import ast

from repro.analysis.base import (
    BaseChecker,
    CheckContext,
    Rule,
    dotted_name,
)

#: The one module allowed to mint unseeded generators (its ``None``
#: path is the documented, strict-mode-auditable escape hatch).
SANCTIONED_UNSEEDED = ("src/repro/utils/rng.py",)

#: numpy.random module-level functions that read or mutate the hidden
#: global RandomState.  ``default_rng``/``Generator``/``SeedSequence``/
#: bit generators are deliberately absent — they are the sanctioned
#: API.
LEGACY_NUMPY_FNS = frozenset({
    "seed", "get_state", "set_state",
    "rand", "randn", "randint", "random_integers",
    "random", "random_sample", "ranf", "sample", "bytes",
    "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "lognormal",
    "binomial", "poisson", "beta", "gamma", "exponential",
    "chisquare", "dirichlet", "multinomial", "multivariate_normal",
    "laplace", "logistic", "pareto", "power", "rayleigh",
    "triangular", "vonmises", "wald", "weibull", "zipf", "geometric",
    "gumbel", "hypergeometric", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_t", "f",
    "RandomState",
})

#: stdlib ``random`` module-level functions — the same global-state
#: hazard.  Instantiating a local ``random.Random(seed)`` is fine and
#: not listed.
LEGACY_STDLIB_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "betavariate", "expovariate", "gammavariate", "lognormvariate",
    "paretovariate", "triangular", "vonmisesvariate", "weibullvariate",
    "getstate", "setstate", "getrandbits",
})


class RngDisciplineChecker(BaseChecker):
    name = "rng-discipline"
    rules = (
        Rule("RNG-GLOBAL-STATE",
             "call into a process-global RNG (numpy legacy API or "
             "stdlib random module)",
             contract="bit-for-bit seeded equivalence (PRs 1-3)"),
        Rule("RNG-UNSEEDED",
             "unseeded default_rng() outside repro.utils.rng",
             contract="bit-for-bit seeded equivalence (PRs 1-3)"),
    )

    def check(self, ctx: CheckContext):
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, imports)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                fn = name.rsplit(".", 1)[1]
                if fn in LEGACY_NUMPY_FNS:
                    yield self.finding(
                        ctx, node, "RNG-GLOBAL-STATE",
                        f"`{name}` draws from numpy's hidden global "
                        "RandomState",
                        hint="thread a seeded numpy.random.Generator "
                             "through the call chain instead "
                             "(repro.utils.rng.ensure_rng / spawn / "
                             "derive_seed)")
                elif fn == "default_rng" and self._unseeded(node) \
                        and ctx.rel_path not in SANCTIONED_UNSEEDED:
                    yield self.finding(
                        ctx, node, "RNG-UNSEEDED",
                        "default_rng() without a seed is "
                        "nondeterministic",
                        hint="pass an int seed or an existing "
                             "Generator (repro.utils.rng.ensure_rng); "
                             "the only sanctioned unseeded path is "
                             "ensure_rng(None) in repro/utils/rng.py, "
                             "auditable via REPRO_REQUIRE_SEED=1")
            elif name.startswith("random.") \
                    and name.count(".") == 1 \
                    and name.rsplit(".", 1)[1] in LEGACY_STDLIB_FNS \
                    and any(v == "random" or v.startswith("random.")
                            for v in imports.values()):
                yield self.finding(
                    ctx, node, "RNG-GLOBAL-STATE",
                    f"`{name}` draws from the stdlib random module's "
                    "global state",
                    hint="use a seeded numpy Generator "
                         "(repro.utils.rng.ensure_rng) — stdlib "
                         "random is process-global and unseedable "
                         "per-component")

    @staticmethod
    def _unseeded(call: ast.Call) -> bool:
        if not call.args and not call.keywords:
            return True
        if call.args:
            first = call.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for kw in call.keywords:
            if kw.arg == "seed":
                return isinstance(kw.value, ast.Constant) \
                    and kw.value.value is None
        return False
