"""Per-checker meta-tests: a bad fixture flags, its good twin is silent.

Every fixture is linted as a source *string* at a virtual repo-relative
path (``lint_source``), so the path-scoping of each rule is exercised
without planting files in the real tree.
"""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.checkers.engine_mode import EngineModeChecker
from repro.analysis.checkers.fp32 import Fp32FirewallChecker
from repro.analysis.checkers.knobs import KnobSurfaceChecker
from repro.analysis.checkers.monitor_rule import MonitorRuleChecker
from repro.analysis.checkers.rng import RngDisciplineChecker


def rules_of(result):
    return {f.rule for f in result.active}


def run(source, rel_path, root, checker):
    return lint_source(textwrap.dedent(source), rel_path, root,
                       checkers=[checker])


class TestRngDiscipline:
    def test_legacy_numpy_calls_flag(self, tmp_path):
        result = run(
            """
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
            y = np.random.RandomState(1)
            """,
            "src/repro/foo.py", tmp_path, RngDisciplineChecker())
        assert len(result.active) == 3
        assert rules_of(result) == {"RNG-GLOBAL-STATE"}
        assert all(f.line in (3, 4, 5) for f in result.active)

    def test_import_from_alias_resolves(self, tmp_path):
        result = run(
            """
            from numpy import random as nr
            nr.shuffle([1, 2, 3])
            """,
            "src/repro/foo.py", tmp_path, RngDisciplineChecker())
        assert rules_of(result) == {"RNG-GLOBAL-STATE"}

    def test_stdlib_random_flags(self, tmp_path):
        result = run(
            """
            import random
            random.choice([1, 2])
            """,
            "benchmarks/foo.py", tmp_path, RngDisciplineChecker())
        assert rules_of(result) == {"RNG-GLOBAL-STATE"}

    def test_local_name_random_without_import_silent(self, tmp_path):
        result = run(
            """
            def f(random):
                return random.choice([1, 2])
            """,
            "src/repro/foo.py", tmp_path, RngDisciplineChecker())
        assert not result.active

    def test_unseeded_default_rng_flags(self, tmp_path):
        result = run(
            """
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng(None)
            c = np.random.default_rng(seed=None)
            """,
            "src/repro/foo.py", tmp_path, RngDisciplineChecker())
        assert len(result.active) == 3
        assert rules_of(result) == {"RNG-UNSEEDED"}

    def test_good_twin_silent(self, tmp_path):
        result = run(
            """
            import numpy as np
            from repro.utils.rng import ensure_rng, spawn
            rng = ensure_rng(3)
            child, = spawn(rng, 1)
            other = np.random.default_rng(7)
            keyed = np.random.default_rng(seed=11)
            gen = np.random.Generator(np.random.PCG64(5))
            """,
            "src/repro/foo.py", tmp_path, RngDisciplineChecker())
        assert not result.active

    def test_sanctioned_unseeded_home_silent(self, tmp_path):
        result = run(
            """
            import numpy as np
            def ensure_rng(seed_or_rng=None):
                if seed_or_rng is None:
                    return np.random.default_rng()
            """,
            "src/repro/utils/rng.py", tmp_path, RngDisciplineChecker())
        assert not result.active


class TestFp32Firewall:
    BAD = """
        import numpy as np
        acc = np.zeros((4, 4))
        idx = np.arange(10)
        wide = acc.astype(np.float64)
        builtin = acc.astype(float)
        named = acc.astype("float64")
        scalar = np.float64(1.5)
        """

    def test_bad_fixture_flags_all_three_rules(self, tmp_path):
        result = run(self.BAD, "src/repro/nn/foo.py", tmp_path,
                     Fp32FirewallChecker())
        assert rules_of(result) == {
            "FP32-DTYPELESS", "FP32-ASTYPE-WIDEN", "FP32-FLOAT64"}
        dtypeless = [f for f in result.active
                     if f.rule == "FP32-DTYPELESS"]
        widen = [f for f in result.active
                 if f.rule == "FP32-ASTYPE-WIDEN"]
        assert len(dtypeless) == 2   # zeros + arange
        assert len(widen) == 3       # np.float64 / float / "float64"

    @pytest.mark.parametrize("prefix", [
        "src/repro/nn/", "src/repro/segmentation/", "src/repro/core/"])
    def test_all_firewall_packages_in_scope(self, tmp_path, prefix):
        result = run(self.BAD, prefix + "foo.py", tmp_path,
                     Fp32FirewallChecker())
        assert result.active

    def test_outside_scope_silent(self, tmp_path):
        result = run(self.BAD, "src/repro/eval/foo.py", tmp_path,
                     Fp32FirewallChecker())
        assert not result.active

    def test_good_twin_silent(self, tmp_path):
        result = run(
            """
            import numpy as np
            acc = np.zeros((4, 4), dtype=np.float32)
            idx = np.arange(10, dtype=np.intp)
            narrow = acc.astype(np.float32)
            same = acc.astype(acc.dtype)
            """,
            "src/repro/nn/foo.py", tmp_path, Fp32FirewallChecker())
        assert not result.active

    def test_documented_island_silent(self, tmp_path):
        # gradcheck.py is a whole-module float64 island.
        result = run(self.BAD, "src/repro/nn/gradcheck.py", tmp_path,
                     Fp32FirewallChecker())
        assert not result.active

    def test_island_qualname_scoping(self, tmp_path):
        # _RunningMoments is an island inside bayesian.py; a sibling
        # class in the same file is not.
        source = """
            import numpy as np
            class _RunningMoments:
                def update(self, scores):
                    self.s = scores.astype(np.float64)
            class Other:
                def update(self, scores):
                    self.s = scores.astype(np.float64)
            """
        result = run(source, "src/repro/segmentation/bayesian.py",
                     tmp_path, Fp32FirewallChecker())
        assert len(result.active) == 2  # WIDEN + FLOAT64, Other only
        assert {f.line for f in result.active} == {8}

    # -- FP32-INT8-QUANT: quantised-integer tensors ------------------
    BAD_INT8 = """
        import numpy as np
        codes = np.rint(x).astype(np.int8)
        acc = codes.astype(np.int32)
        named = x.astype("int8")
        short = x.astype("i1")
        scalar = np.int16(7)
        """

    def test_int8_bad_fixture_flags_every_spelling(self, tmp_path):
        result = run(self.BAD_INT8, "src/repro/nn/foo.py", tmp_path,
                     Fp32FirewallChecker())
        assert rules_of(result) == {"FP32-INT8-QUANT"}
        # np.int8 / np.int32 / np.int16 attrs + "int8" + "i1" strings.
        assert len(result.active) == 5

    def test_int8_good_twin_silent(self, tmp_path):
        # Pool-count masks (uint8) and index vectors (int64/intp) are
        # not value quantisation; they stay legal in scope.
        result = run(
            """
            import numpy as np
            mask = counts.astype(np.uint8)
            idx = rows.astype(np.int64)
            pos = cols.astype(np.intp)
            named = rows.astype("int64")
            """,
            "src/repro/nn/foo.py", tmp_path, Fp32FirewallChecker())
        assert not result.active

    def test_int8_has_no_island(self, tmp_path):
        # gradcheck.py is a *float64* island; the int8 rule still
        # applies there — it has no island anywhere.
        result = run(self.BAD_INT8, "src/repro/nn/gradcheck.py",
                     tmp_path, Fp32FirewallChecker())
        assert rules_of(result) == {"FP32-INT8-QUANT"}

    def test_int8_outside_scope_silent(self, tmp_path):
        result = run(self.BAD_INT8, "src/repro/eval/foo.py", tmp_path,
                     Fp32FirewallChecker())
        assert not result.active


class TestEngineModeHygiene:
    def test_env_read_outside_sanctioned_sites_flags(self, tmp_path):
        result = run(
            """
            import os
            mode = os.environ.get("REPRO_NEW_TOGGLE")
            other = os.getenv("REPRO_MONITOR_SHARED")
            """,
            "src/repro/core/new_module.py", tmp_path,
            EngineModeChecker())
        assert rules_of(result) == {"ENG-ENV-READ"}
        assert len(result.active) == 2

    def test_env_read_in_sanctioned_site_silent(self, tmp_path):
        result = run(
            """
            import os
            strict = os.environ.get("REPRO_REQUIRE_SEED") == "1"
            """,
            "src/repro/utils/rng.py", tmp_path, EngineModeChecker())
        assert not result.active

    def test_env_read_outside_src_silent(self, tmp_path):
        result = run(
            """
            import os
            mode = os.environ.get("REPRO_MONITOR_SHARED")
            """,
            "benchmarks/foo.py", tmp_path, EngineModeChecker())
        assert not result.active

    def test_env_writes_flag_everywhere(self, tmp_path):
        result = run(
            """
            import os
            os.environ["REPRO_MONITOR_SHARED"] = "1"
            del os.environ["REPRO_MONITOR_SHARED"]
            os.environ.update({"A": "1"})
            os.environ.pop("A", None)
            os.putenv("B", "2")
            """,
            "benchmarks/foo.py", tmp_path, EngineModeChecker())
        assert rules_of(result) == {"ENG-ENV-WRITE"}
        assert len(result.active) == 5


class TestKnobSurface:
    CONFIG = """
        class EngineConfig:
            '''Engine knobs.

            Attributes
            ----------
            max_batch:
                Documented knob.
            '''

            max_batch: int = 8
            new_knob: int = 1
            _private: int = 0
        """

    def test_undocumented_field_flags(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "Knobs: `max_batch` only.\n")
        result = run(self.CONFIG, "src/repro/core/engine.py",
                     tmp_path, KnobSurfaceChecker())
        assert rules_of(result) == {"KNOB-DOCSTRING", "KNOB-README"}
        assert all("new_knob" in f.message for f in result.active)

    def test_documented_twin_silent(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "Knobs: `max_batch`, `new_knob`.\n")
        source = self.CONFIG.replace(
            "Documented knob.",
            "Documented knob.\n            new_knob:\n"
            "                Also documented.")
        result = run(source, "src/repro/core/engine.py", tmp_path,
                     KnobSurfaceChecker())
        assert not result.active

    def test_private_fields_exempt(self, tmp_path):
        (tmp_path / "README.md").write_text("`max_batch` `new_knob`\n")
        result = run(self.CONFIG, "src/repro/core/engine.py",
                     tmp_path, KnobSurfaceChecker())
        assert not any("_private" in f.message for f in result.active)

    def test_other_classes_and_paths_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text("nothing\n")
        elsewhere = run(self.CONFIG, "src/repro/core/other.py",
                        tmp_path, KnobSurfaceChecker())
        assert not elsewhere.active
        other_class = run(self.CONFIG.replace("EngineConfig", "Cfg"),
                          "src/repro/core/engine.py", tmp_path,
                          KnobSurfaceChecker())
        assert not other_class.active


class TestMonitorFailClosed:
    """``MON-FAIL-OPEN``: Eq. (2) tests that count NaN as safe flag in
    the rule's two homes; the fail-closed twins are silent."""

    HOMES = ("src/repro/core/monitor.py",
             "src/repro/eval/monitor_metrics.py")

    @pytest.mark.parametrize("rel_path", HOMES)
    def test_fail_open_forms_flag(self, tmp_path, rel_path):
        result = run(
            """
            def rule(upper, cfg, tau, fraction):
                a = upper > cfg.tau
                b = upper >= tau
                c = cfg.tau < upper
                d = tau <= upper
                e = fraction > cfg.max_unsafe_fraction
                return a, b, c, d, e
            """,
            rel_path, tmp_path, MonitorRuleChecker())
        assert rules_of(result) == {"MON-FAIL-OPEN"}
        assert sorted(f.line for f in result.active) == [3, 4, 5, 6, 7]

    @pytest.mark.parametrize("rel_path", HOMES)
    def test_fail_closed_twin_silent(self, tmp_path, rel_path):
        result = run(
            """
            def rule(upper, cfg, tau, fraction, limit):
                a = ~(upper <= cfg.tau)
                b = ~(tau >= upper)
                accepted = fraction <= cfg.max_unsafe_fraction
                unrelated = fraction > limit
                return a, b, accepted, unrelated
            """,
            rel_path, tmp_path, MonitorRuleChecker())
        assert result.active == []

    def test_outside_homes_silent(self, tmp_path):
        result = run(
            """
            def f(upper, cfg):
                return upper > cfg.tau
            """,
            "src/repro/core/decision.py", tmp_path, MonitorRuleChecker())
        assert result.active == []
