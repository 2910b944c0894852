"""Typed deadline outcome of the serving layer.

The backpressure contract of :mod:`repro.serve` says a safety check is
*served or shed, never silently dropped*.  This module extends the
contract past admission to missed deadlines: :class:`CheckTimedOut`
says a per-request deadline expired.  A timed-out safety check must
**fail safe, never fail open**: when the request was a zone check, the
exception carries a conservative *reject* verdict
(:func:`conservative_reject`) so even a caller that only looks at
``exc.verdict.accepted`` sees "do not land here".  It is a
``RuntimeError`` subclass, so callers that catch broad execution
failures keep working; new callers can match on the type.
"""

from __future__ import annotations

import numpy as np

from repro.core.monitor import ZoneVerdict
from repro.segmentation.bayesian import PixelDistribution
from repro.utils.geometry import Box

__all__ = ["CheckTimedOut", "conservative_reject"]


def conservative_reject(box: Box) -> ZoneVerdict:
    """The fail-safe verdict for a zone check that produced no answer.

    Every pixel is flagged unsafe (``unsafe_fraction=1.0``,
    ``accepted=False``) and ``num_samples=0`` marks that no Monte-Carlo
    sampling actually happened — the verdict is a *refusal to certify*,
    not a measurement.  The attached distribution is an empty
    placeholder of the right shape so downstream shape-based code does
    not crash on it.
    """
    height, width = box.height, box.width
    zeros = np.zeros((1, height, width), dtype=np.float32)
    return ZoneVerdict(
        accepted=False,
        unsafe_fraction=1.0,
        unsafe_mask=np.ones((height, width), dtype=bool),
        box=box,
        num_samples=0,
        distribution=PixelDistribution(mean=zeros, std=zeros,
                                       num_samples=0),
    )


class CheckTimedOut(RuntimeError):
    """A safety check missed its deadline — resolved fail-safe.

    ``scope`` says which layer enforced the deadline: ``"admission"``
    (the request expired before its wave was even assembled) or
    ``"wave"`` (the broker's monotonic-clock wrapper around wave
    execution fired).  ``verdict`` is the conservative reject for zone
    checks (see :func:`conservative_reject`) and ``None`` for episode
    steps, whose callers get no partial results by design.
    """

    def __init__(self, deadline_ms: float, scope: str,
                 verdict: ZoneVerdict | None = None):
        super().__init__(
            f"safety check missed its {deadline_ms:g} ms deadline "
            f"({scope}); failing safe with a conservative reject")
        self.deadline_ms = float(deadline_ms)
        self.scope = scope
        self.verdict = verdict

