"""The typed deadline outcome: fail safe, never open.

:func:`conservative_reject` is the verdict a timed-out zone check
carries, so every field a caller might read must say "do not land
here" and "nothing was measured".
"""

import numpy as np
import pytest

from repro.serve import CheckTimedOut, conservative_reject
from repro.utils.geometry import Box


@pytest.mark.parametrize("box", [Box(0, 0, 1, 1), Box(2, 3, 10, 14),
                                 Box(5, 0, 7, 3)])
def test_conservative_reject_refuses_the_whole_box(box):
    verdict = conservative_reject(box)
    assert verdict.accepted is False
    assert verdict.unsafe_fraction == 1.0
    assert verdict.box == box
    assert verdict.unsafe_mask.shape == (box.height, box.width)
    assert verdict.unsafe_mask.dtype == bool
    assert verdict.unsafe_mask.all()
    # A refusal to certify, not a measurement.
    assert verdict.num_samples == 0
    dist = verdict.distribution
    assert dist.num_samples == 0
    assert dist.mean.shape == dist.std.shape == (1, box.height, box.width)
    assert dist.mean.dtype == np.float32
    assert not dist.mean.any() and not dist.std.any()


def test_conservative_reject_arrays_are_not_shared():
    """Each reject owns its buffers: a caller editing one verdict's
    mask cannot open another zone."""
    box = Box(0, 0, 4, 4)
    first = conservative_reject(box)
    first.unsafe_mask[:] = False
    first.distribution.mean[:] = 1.0
    second = conservative_reject(box)
    assert second.unsafe_mask.all()
    assert not second.distribution.mean.any()


def test_check_timed_out_carries_its_deadline_scope_and_verdict():
    verdict = conservative_reject(Box(1, 1, 3, 3))
    exc = CheckTimedOut(250, "wave", verdict)
    assert isinstance(exc, RuntimeError)
    assert exc.deadline_ms == 250.0
    assert isinstance(exc.deadline_ms, float)
    assert exc.scope == "wave"
    assert exc.verdict is verdict
    assert "250 ms" in str(exc)
    assert "(wave)" in str(exc)


def test_check_timed_out_defaults_to_no_verdict():
    """Episode steps time out with no partial result."""
    exc = CheckTimedOut(12.5, "admission")
    assert exc.verdict is None
    assert exc.scope == "admission"
    assert "12.5 ms" in str(exc)
