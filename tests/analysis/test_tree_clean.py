"""Whole-tree smoke: the repo itself lints clean, and the linter
actually bites when the guarded invariants are reintroduced."""

import re
import textwrap
from pathlib import Path

from repro.analysis import lint_source, lint_tree
from repro.analysis.baseline import (
    Baseline,
    DEFAULT_BASELINE_RELPATH,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_has_zero_active_findings():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_RELPATH)
    result = lint_tree(REPO_ROOT, baseline=baseline)
    assert result.files > 100  # the walk really covered the tree
    details = "\n".join(f.format(show_hint=False)
                        for f in result.active)
    assert not result.active, f"repro-lint findings:\n{details}"


def test_reintroduced_global_seed_is_caught():
    # The acceptance scenario: a global np.random.seed anywhere in the
    # tree must fail `python -m repro.analysis --strict` (check.sh's
    # first stage).
    result = lint_source(
        "import numpy as np\nnp.random.seed(1234)\n",
        "src/repro/nn/injected.py", REPO_ROOT)
    assert any(f.rule == "RNG-GLOBAL-STATE" for f in result.active)


def test_reintroduced_dtypeless_zeros_is_caught():
    result = lint_source(
        "import numpy as np\nbuf = np.zeros((8, 8))\n",
        "src/repro/nn/injected.py", REPO_ROOT)
    assert any(f.rule == "FP32-DTYPELESS" for f in result.active)


def test_fp32_islands_still_exist():
    # Every allowlisted float64 island must still resolve to a real
    # file (and, when scoped, a real qualname) — otherwise the
    # allowlist rots into a blanket hole.
    from repro.analysis.checkers.fp32 import FLOAT64_ISLANDS

    for path, prefix, _why in FLOAT64_ISLANDS:
        target = REPO_ROOT / path
        assert target.exists(), f"island file vanished: {path}"
        if prefix is not None:
            head = prefix.split(".")[0]
            text = target.read_text()
            assert (f"def {head}" in text or f"class {head}" in text), \
                f"island qualname vanished: {path}::{prefix}"


def test_sanctioned_env_reader_list_matches_tree():
    # The engine-mode allowlist names exactly the files that actually
    # read the environment inside src/repro.
    from repro.analysis.checkers.engine_mode import (
        SANCTIONED_ENV_READERS,
    )

    for rel in SANCTIONED_ENV_READERS:
        path = REPO_ROOT / rel
        assert path.exists(), f"sanctioned reader vanished: {rel}"
        text = path.read_text()
        assert "os.environ" in text or "os.getenv" in text, \
            f"{rel} no longer reads the environment — drop it from " \
            "SANCTIONED_ENV_READERS"


def test_require_seed_documented_in_rng_rule():
    # Satellite contract: the linter's RNG rule points at the runtime
    # strict mode and vice versa.
    from repro.analysis.checkers import rng as rng_checker

    assert "REPRO_REQUIRE_SEED" in (rng_checker.__doc__ or "")
    rng_module = REPO_ROOT / "src/repro/utils/rng.py"
    assert "rng-discipline" in rng_module.read_text()


def test_env_read_in_serve_broker_flagged():
    # The broker reads no environment toggle, so a read there is a
    # finding like anywhere else outside the sanctioned sites.
    source = "import os\nWORKERS = os.environ.get('X', '1')\n"
    flagged = lint_source(source, "src/repro/serve/broker.py",
                          REPO_ROOT)
    assert any(f.rule == "ENG-ENV-READ" for f in flagged.active)


def test_env_read_in_nn_functional_flagged():
    # nn/functional.py is not a sanctioned reader: the conv path has
    # no environment toggle, so a read there is a finding.
    source = "import os\nMODE = os.environ.get('X', '')\n"
    flagged = lint_source(source, "src/repro/nn/functional.py",
                          REPO_ROOT)
    assert any(f.rule == "ENG-ENV-READ" for f in flagged.active)


def test_check_sh_runs_strict_lint_first():
    script = (REPO_ROOT / "scripts" / "check.sh").read_text()
    lint_pos = script.find("python -m repro.analysis --strict")
    pytest_pos = script.find("python -m pytest")
    assert lint_pos != -1, "check.sh does not run the linter"
    assert pytest_pos == -1 or lint_pos < pytest_pos, \
        "the lint stage must run before the test suite"


def _mode_rerun_toggles(script: str) -> list[str]:
    """The toggle each ``MODE_RERUNS=(...)`` entry of a check.sh names."""
    block = re.search(r"^MODE_RERUNS=\($(.*?)^\)$", script,
                      re.MULTILINE | re.DOTALL)
    assert block, "check.sh has no MODE_RERUNS array"
    toggles = []
    for line in block.group(1).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            toggles.append(line.strip('"').split()[0])
    return toggles


def _dead_toggles(toggles: list[str]) -> list[str]:
    """Toggles that no sanctioned environment reader mentions."""
    from repro.analysis.checkers.engine_mode import (
        SANCTIONED_ENV_READERS,
    )

    readers = [(REPO_ROOT / rel).read_text()
               for rel in sorted(SANCTIONED_ENV_READERS)]
    return [t for t in toggles if not any(t in text for text in readers)]


def test_check_sh_reruns_name_live_toggles():
    # A rerun under a toggle nothing reads silently repeats the default
    # path, yet reads as a certification of a mode that is gone.
    script = (REPO_ROOT / "scripts" / "check.sh").read_text()
    toggles = _mode_rerun_toggles(script)
    assert toggles, "check.sh MODE_RERUNS has no entries"
    dead = _dead_toggles(toggles)
    assert not dead, \
        f"check.sh reruns toggles no sanctioned reader consults: {dead}"


def test_dead_rerun_toggle_is_caught():
    script = textwrap.dedent(
        """
        MODE_RERUNS=(
            "REPRO_MONITOR_SHARED tests/core tests/integration"
            # "REPRO_COMMENTED_OUT tests/core"
            "REPRO_NO_SUCH_TOGGLE tests/core"
        )
        """)
    toggles = _mode_rerun_toggles(script)
    assert toggles == ["REPRO_MONITOR_SHARED", "REPRO_NO_SUCH_TOGGLE"]
    assert _dead_toggles(toggles) == ["REPRO_NO_SUCH_TOGGLE"]


def test_example_suppression_parses():
    # The documented suppression idiom keeps working end to end.
    source = textwrap.dedent(
        """
        import numpy as np
        # repro-lint: disable=RNG-UNSEEDED  interactive demo path
        rng = np.random.default_rng()
        """)
    result = lint_source(source, "examples/demo.py", REPO_ROOT)
    assert not result.active
    assert any(f.rule == "RNG-UNSEEDED" for f in result.suppressed)
