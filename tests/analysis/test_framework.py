"""Framework meta-tests: suppressions, baseline round-trip, CLI."""

import json
import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.baseline import Baseline
from repro.analysis.checkers.rng import RngDisciplineChecker
from repro.analysis.cli import main
from repro.analysis.suppress import is_suppressed, suppressed_rules

BAD_RNG = textwrap.dedent(
    """
    import numpy as np
    np.random.seed(0)
    """)


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self, tmp_path):
        source = ("import numpy as np\n"
                  "np.random.seed(0)  "
                  "# repro-lint: disable=RNG-GLOBAL-STATE  demo\n")
        result = lint_source(source, "src/repro/foo.py", tmp_path,
                             checkers=[RngDisciplineChecker()])
        assert not result.active
        assert len(result.suppressed) == 1

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        source = ("import numpy as np\n"
                  "# repro-lint: disable=RNG-GLOBAL-STATE  demo\n"
                  "np.random.seed(0)\n")
        result = lint_source(source, "src/repro/foo.py", tmp_path,
                             checkers=[RngDisciplineChecker()])
        assert not result.active
        assert len(result.suppressed) == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = ("import numpy as np\n"
                  "np.random.seed(0)  "
                  "# repro-lint: disable=FP32-FLOAT64\n")
        result = lint_source(source, "src/repro/foo.py", tmp_path,
                             checkers=[RngDisciplineChecker()])
        assert len(result.active) == 1

    def test_disable_all_and_multiple_rules(self):
        table = suppressed_rules([
            "x = 1  # repro-lint: disable=all",
            "# repro-lint: disable=A, B  reason",
            "y = 2",
        ])
        assert is_suppressed("ANYTHING", 1, table)
        assert is_suppressed("A", 3, table)
        assert is_suppressed("B", 3, table)
        assert not is_suppressed("C", 3, table)
        assert not is_suppressed("A", 2, table)


class TestBaseline:
    def test_round_trip_absorbs_then_exhausts(self, tmp_path):
        checker = RngDisciplineChecker()
        first = lint_source(BAD_RNG, "src/repro/foo.py", tmp_path,
                            checkers=[checker])
        assert len(first.active) == 1
        finding = first.active[0]

        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path,
                       [(finding, "np.random.seed(0)")])
        baseline = Baseline.load(baseline_path)
        absorbed = lint_source(BAD_RNG, "src/repro/foo.py", tmp_path,
                               checkers=[checker], baseline=baseline)
        assert not absorbed.active
        assert len(absorbed.baselined) == 1

        # A second identical violation exceeds the entry's budget.
        doubled = BAD_RNG + "np.random.seed(0)\n"
        over = lint_source(doubled, "src/repro/foo.py", tmp_path,
                           checkers=[checker],
                           baseline=Baseline.load(baseline_path))
        assert len(over.active) == 1
        assert len(over.baselined) == 1

    def test_edited_line_invalidates_entry(self, tmp_path):
        checker = RngDisciplineChecker()
        finding = lint_source(BAD_RNG, "src/repro/foo.py", tmp_path,
                              checkers=[checker]).active[0]
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path,
                       [(finding, "np.random.seed(0)")])
        edited = BAD_RNG.replace("seed(0)", "seed(1)")
        result = lint_source(edited, "src/repro/foo.py", tmp_path,
                             checkers=[checker],
                             baseline=Baseline.load(baseline_path))
        assert len(result.active) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0


@pytest.fixture
def bad_repo(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text(BAD_RNG)
    return tmp_path


class TestCli:
    def test_advisory_run_exits_zero(self, bad_repo, capsys):
        assert main(["--root", str(bad_repo)]) == 0
        out = capsys.readouterr().out
        assert "RNG-GLOBAL-STATE" in out

    def test_strict_run_exits_one(self, bad_repo):
        assert main(["--root", str(bad_repo), "--strict"]) == 1

    def test_update_baseline_then_strict_passes(self, bad_repo):
        baseline = bad_repo / "baseline.json"
        assert main(["--root", str(bad_repo), "--update-baseline",
                     "--baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        assert data["entries"]
        assert main(["--root", str(bad_repo), "--strict",
                     "--baseline", str(baseline)]) == 0

    def test_parse_error_is_a_strict_failure(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def f(:\n")
        assert main(["--root", str(tmp_path), "--strict"]) == 1

    def test_clean_tree_strict_passes(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text(
            "from repro.utils.rng import ensure_rng\n"
            "rng = ensure_rng(0)\n")
        assert main(["--root", str(tmp_path), "--strict"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RNG-GLOBAL-STATE", "RNG-UNSEEDED",
                     "FP32-FLOAT64", "FP32-DTYPELESS",
                     "FP32-ASTYPE-WIDEN", "ENG-ENV-READ",
                     "ENG-ENV-WRITE", "FP32-INT8-QUANT",
                     "KNOB-DOCSTRING", "KNOB-README",
                     "MON-FAIL-OPEN"):
            assert rule in out
