"""Monitoring as a service: an async micro-batching broker.

The paper's architecture is evaluated one frame at a time; the episode
engine (:mod:`repro.core.engine`) scaled that to many concurrent
streams inside one process.  This package is the *serving* layer on
top of it:

* :class:`ServeBroker` — an asyncio front-end accepting zone-check and
  episode-step requests from many concurrent clients.  It takes
  everything already queued into one wave, closes the wave when
  arrivals stop (capped by ``ServeConfig.max_wave``), and feeds it
  into one shared :class:`repro.core.engine.EpisodeScheduler` as a
  single joint pass.  Backpressure is explicit: the admission queue is
  bounded and an over-capacity or invalid request is *shed with a
  typed rejection* (:class:`AdmissionRejected`) — a safety check is
  never silently dropped or partially answered.
* **Deadlines** — requests carry monotonic-clock deadlines resolved
  with a typed fail-safe :class:`CheckTimedOut` whose zone verdict is
  a :func:`conservative_reject`.
* :func:`run_doctor` — a doctor-style operational self-check (platform
  facts and a live broker end-to-end probe), runnable as
  ``python -m repro.serve.doctor``.
"""

from repro.serve.broker import (
    AdmissionRejected,
    ServeBroker,
    ServeConfig,
)
from repro.serve.faults import CheckTimedOut, conservative_reject

__all__ = [
    "AdmissionRejected",
    "CheckTimedOut",
    "ServeBroker",
    "ServeConfig",
    "conservative_reject",
    "format_doctor_report",
    "run_doctor",
]


def __getattr__(name: str):
    # The doctor is imported lazily so `python -m repro.serve.doctor`
    # does not re-execute a module the package import already loaded
    # (runpy would warn about unpredictable double execution).
    if name in ("format_doctor_report", "run_doctor"):
        from repro.serve import doctor

        return getattr(doctor, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
