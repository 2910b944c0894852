"""Persistent fork-worker pool behind ``EpisodeScheduler(workers=N)``.

This replaces the fork-per-call ``multiprocessing.Pool`` the engine
used to build inside every ``run()``: that design paid fork + model
pickling per wavefront (the ROADMAP measured ``workers=2`` at 0.72x)
and parked the model in a module global (``_WORKER_MODEL``) that was
only cleared on the happy path.

The persistent pool fixes the economics and the hygiene:

* **Workers fork once** per pool.  The model, pipeline config and
  engine config travel to the children as inherited copy-on-write
  memory at fork time — shipped once, never pickled again.
* **Frames travel through shared memory** (:class:`repro.serve.shm.
  FrameRing`): the per-task message is a tiny ticket + RNG state, and
  the worker reads the frame as a zero-copy numpy view.  The ring
  segment itself is inherited at fork, so ring-slot tasks never even
  re-attach.
* **Determinism is unchanged**: every task carries its episode's
  monitor RNG state and returns the advanced state, exactly like the
  old pool, so ``workers=N`` stays bit-for-bit identical to inline for
  any worker count.
* **Deterministic lifecycle**: ``close()`` (also via context manager)
  sends shutdown sentinels, joins the workers with a bounded timeout
  and an escalation ladder (join -> terminate -> kill), and unlinks
  the shared segment.  No module-global model reference exists at all.

**Transport: one private pipe per worker.**  Tasks and replies travel
over a per-worker duplex :func:`multiprocessing.Pipe`, never a shared
``multiprocessing.Queue``.  Shared queues synchronise their readers
and writers with locks held *inside the worker processes*; a worker
SIGKILLed while its queue feeder holds the shared write lock leaves
that lock held forever and silently wedges every surviving sibling —
an unsupervisable failure (all processes look alive).  With private
pipes, a dying worker can only tear its own channel, and the tear
*is* the death signal: the parent's ``connection.wait`` wakes on EOF
immediately.  The parent dispatches one task per idle worker and
backlogs the rest, so it always knows exactly which task each worker
holds — supervision needs no worker-side cooperation.

**Supervision.**  A dead or hung worker is an operational fact, not a
protocol violation:

* a **dead worker** (SIGKILL, OOM, crash) is respawned — capped
  exponential backoff, at most ``max_respawns`` per pool — and the
  task it was holding is resubmitted under a bumped *attempt* number.
  Replies already buffered in the dead worker's pipe are drained
  first (a reply outlives its writer until EOF), stale attempts are
  discarded, and because tasks are pure functions of ``(frame,
  rng_state)`` the re-executed task's reply is bit-for-bit the one
  the dead worker would have produced.
* a task that misses the **collect deadline** fails with a typed
  :class:`~repro.serve.faults.CheckTimedOut` and its worker is killed
  (a hung task cannot be cancelled any other way) and replaced; the
  task's ring ticket is reclaimed.
* when the respawn budget is exhausted the pool reclaims every
  in-flight ticket and raises :class:`~repro.serve.faults.
  WorkerPoolError` — callers (the broker's circuit breaker) degrade
  to the bit-identical inline path.

Workers are daemonic, so an abandoned pool cannot outlive its parent
even if ``close()`` is never called.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.serve.faults import CheckTimedOut, WorkerPoolError
from repro.serve.shm import FrameRing, attach_frame, detach_frame

__all__ = ["PersistentWorkerPool", "fork_available"]

_SHUTDOWN = None
_JOIN_TIMEOUT_S = 5.0
_COLLECT_POLL_S = 0.05
#: Capped exponential backoff between respawns: base * 2**n, capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 1.0
#: Grace for a killed hung worker to actually exit before respawning.
_KILL_JOIN_S = 2.0


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def _pool_worker(worker_id, incarnation, conn, stale_conns,
                 ring_shm, model, config, engine, fault_plan):
    """Worker loop: one pipeline built at startup, then task -> reply.

    ``model``/``config``/``engine`` arrive by fork inheritance — this
    function runs only in the child, and all mutable state lives in
    locals (fork-task purity: no module-level writes).

    ``conn`` is this worker's private end of its task/reply pipe;
    ``stale_conns`` are the parent-side connection objects inherited
    at fork, closed immediately so a sibling's death yields EOF in the
    parent (an inherited copy of a pipe end would keep it open).

    Task: ``(index, attempt, ticket, rng_state)``.  Reply: ``(index,
    attempt, result, new_rng_state)`` on success, or ``(index,
    attempt, exc, None)`` — the parent re-raises instead of hanging.
    """
    from repro.core.pipeline import LandingPipeline
    from repro.serve.chaos import apply_fault

    for stale in stale_conns:
        try:
            stale.close()
        except OSError:
            pass
    pipeline = LandingPipeline(model, config, rng=0, engine=engine)
    segments = {ring_shm.name: ring_shm}
    started = 0
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone
        if task is _SHUTDOWN:
            break
        index, attempt, ticket, rng_state = task
        fault = None
        if fault_plan is not None:
            fault = fault_plan.fault_for(worker_id, incarnation, started)
        started += 1
        try:
            if fault is not None:
                apply_fault(fault)  # may never return (kill/hang)
            frame = attach_frame(ticket, segments)
            pipeline.segmenter.rng.bit_generator.state = rng_state
            result = pipeline.run(frame)
            del frame  # drop the buffer export before any segment close
            detach_frame(ticket, segments)
            reply = (
                index,
                attempt,
                result,
                pipeline.segmenter.rng.bit_generator.state,
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            reply = (index, attempt, exc, None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break  # parent is gone


@dataclass
class _Inflight:
    """Parent-side record of one submitted, unanswered task."""

    attempt: int
    ticket: object
    rng_state: object
    submitted_at: float
    corrupt: bool = False


class PersistentWorkerPool:
    """A fixed set of long-lived, supervised fork workers.

    Construction forks ``workers`` daemon processes that each build one
    :class:`~repro.core.pipeline.LandingPipeline` from the inherited
    ``(model, config, engine)`` and then serve tasks over a private
    pipe until ``close()``.  ``submit`` parks the frame in the
    shared-memory ring and dispatches (or backlogs) a ticket;
    ``collect`` gathers replies (in completion order — callers key on
    the submitted index), recycles the ring slots, and supervises
    worker liveness while it waits (see the module docstring for the
    respawn/deadline/reclamation contract).  ``stats`` counts
    ``worker_deaths``, ``respawns``, ``resubmitted``,
    ``tasks_timed_out`` and ``tickets_reclaimed``.

    The pool snapshots the process state at fork, which is exactly what
    the model-shipped-once contract wants; if the parent mutates the
    model afterwards, build a new pool.
    Respawned workers fork from the parent's *current* state under the
    same assumption.
    """

    def __init__(self, model, config, engine, workers: int,
                 ring_slots: int | None = None,
                 max_respawns: int | None = None,
                 fault_plan=None,
                 join_timeout_s: float | None = None):
        if workers < 1:
            raise ValueError(f"PersistentWorkerPool needs workers >= 1, got {workers}")
        if not fork_available():
            raise RuntimeError(
                "PersistentWorkerPool requires the 'fork' start method; "
                "check repro.serve.pool.fork_available() first"
            )
        self.workers = int(workers)
        self.max_respawns = (max_respawns if max_respawns is not None
                             else getattr(engine, "max_respawns", 3))
        self._join_timeout_s = (join_timeout_s if join_timeout_s is not None
                                else _JOIN_TIMEOUT_S)
        self._ctx = mp.get_context("fork")
        self._model = model
        self._config = config
        self._engine = engine
        self._fault_plan = fault_plan
        slots = ring_slots if ring_slots is not None else max(16, 4 * self.workers)
        self._ring = FrameRing(slots=slots)
        self._inflight: dict[int, _Inflight] = {}
        self._backlog: deque[int] = deque()
        self._replies: deque[tuple[int, tuple]] = deque()
        self._submits = 0
        self._closed = False
        self._failed = False
        self.stats: dict[str, int] = {
            "worker_deaths": 0,
            "respawns": 0,
            "resubmitted": 0,
            "tasks_timed_out": 0,
            "tickets_reclaimed": 0,
        }
        self._incarnations = [0] * self.workers
        self._assigned: list[int | None] = [None] * self.workers
        self._conns: list = [None] * self.workers
        self._procs: list = [None] * self.workers
        for w in range(self.workers):
            self._start_worker(w)

    def _start_worker(self, worker_id: int) -> None:
        """Fork one worker on a fresh private pipe.

        Sequenced strictly as pipe -> fork -> close child end, so no
        process ever inherits another's *child* pipe end; the parent
        ends it does inherit are closed first thing in the worker.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._conns[worker_id] = parent_conn
        stale = [c for c in self._conns if c is not None]
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(worker_id, self._incarnations[worker_id],
                  child_conn, stale, self._ring.segment, self._model,
                  self._config, self._engine, self._fault_plan),
            daemon=True,
            name=(f"repro-serve-worker-{worker_id}"
                  f".{self._incarnations[worker_id]}"),
        )
        self._procs[worker_id] = proc
        self._assigned[worker_id] = None
        proc.start()
        child_conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, index: int, frame, rng_state) -> None:
        """Park ``frame`` in shared memory and dispatch one task."""
        if self._closed:
            raise WorkerPoolError("closed", "submit after close()")
        if self._failed:
            raise WorkerPoolError(
                "respawn_budget_exhausted",
                "pool gave up after repeated worker deaths")
        ticket = self._ring.put(frame)
        corrupt = (self._fault_plan is not None
                   and self._fault_plan.corrupts_submit(self._submits))
        self._submits += 1
        self._inflight[index] = _Inflight(
            attempt=0, ticket=ticket, rng_state=rng_state,
            submitted_at=time.monotonic(), corrupt=corrupt)
        self._backlog.append(index)
        self._dispatch()

    def collect(self, count: int, deadline_s: float | None = None) -> list:
        """Return ``count`` outcomes ``(index, result, rng_state)``.

        Replies are returned in completion order — callers key on the
        submitted index.  All ``count`` outcomes are drained (and their
        ring slots recycled) before any failure is re-raised, so one
        failing task cannot strand the others' replies.  While waiting
        the pool supervises: a dead worker's pipe EOF wakes the wait
        immediately, the worker is respawned (its task resubmitted,
        answered bit-for-bit by the replacement), and with
        ``deadline_s`` set, a task older than the deadline gets its
        hung worker killed and is counted as a typed timeout.  Raises
        ``RuntimeError`` for a task that failed in its worker,
        :class:`CheckTimedOut` when any task timed out, and
        :class:`WorkerPoolError` when supervision ran out of respawn
        budget (all in-flight tickets reclaimed first).
        """
        out = []
        failure = None
        timed_out = 0
        while len(out) + timed_out < count:
            if self._replies:
                worker_id, reply = self._replies.popleft()
                index, attempt, payload, rng_state = reply
                entry = self._inflight.get(index)
                if entry is None or entry.attempt != attempt:
                    continue  # stale reply from a superseded attempt
                del self._inflight[index]
                self._ring.release(entry.ticket)
                if self._assigned[worker_id] == index:
                    self._assigned[worker_id] = None
                self._dispatch()
                if rng_state is None and isinstance(payload, BaseException):
                    if failure is None:
                        failure = (index, payload)
                    out.append(None)  # placeholder: counted, not returned
                else:
                    out.append((index, payload, rng_state))
                continue
            try:
                self._pump(deadline_s)
                timed_out += self._expire(deadline_s)
            except WorkerPoolError:
                self._failed = True
                self._reclaim_inflight()
                raise
        out = [o for o in out if o is not None]
        if failure is not None:
            raise RuntimeError(
                f"episode frame task {failure[0]} failed in worker: {failure[1]!r}"
            ) from failure[1]
        if timed_out:
            raise CheckTimedOut(deadline_s * 1000.0, scope="task")
        return out

    def _pump(self, deadline_s: float | None) -> None:
        """Wait briefly for pipe activity; drain replies, reap deaths."""
        ready = mp_connection.wait(
            [c for c in self._conns if c is not None and not c.closed],
            timeout=self._poll_s(deadline_s))
        for conn in ready:
            worker_id = self._conns.index(conn)
            try:
                while conn.poll(0):
                    self._replies.append((worker_id, conn.recv()))
            except Exception:  # noqa: BLE001 - EOF or a write torn by
                # SIGKILL mid-pickle; either way the channel is dead
                # and respawn + resubmit is the safe response.
                self._handle_death(worker_id)
        if not ready:
            # Nothing moved: belt-and-braces liveness sweep (a worker
            # that died before its pipe ever carried data still EOFs,
            # but is_alive() is authoritative and free).
            for worker_id, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._handle_death(worker_id)

    def _handle_death(self, worker_id: int,
                      unexpected: bool = True) -> None:
        """Reap + respawn worker ``worker_id``; rescue its task."""
        proc = self._procs[worker_id]
        proc.join(timeout=_KILL_JOIN_S)
        if unexpected:
            self.stats["worker_deaths"] += 1
        lost = self._assigned[worker_id]
        try:
            self._conns[worker_id].close()
        except OSError:
            pass
        self._respawn(worker_id)
        entry = self._inflight.get(lost) if lost is not None else None
        answered = any(r[0] == lost and r[1] == entry.attempt
                       for _, r in self._replies) if entry else False
        if entry is not None and not answered:
            # The reply died with the worker: resubmit under the next
            # attempt number (stale replies are discarded by tag).
            entry.attempt += 1
            self._backlog.appendleft(lost)
            self.stats["resubmitted"] += 1
        self._dispatch()

    def _respawn(self, worker_id: int) -> None:
        """Replace worker ``worker_id`` (capped exponential backoff)."""
        if self.stats["respawns"] >= self.max_respawns:
            raise WorkerPoolError(
                "respawn_budget_exhausted",
                f"{self.stats['respawns']} respawns already spent "
                f"(max_respawns={self.max_respawns})")
        backoff = min(_BACKOFF_BASE_S * (2 ** self.stats["respawns"]),
                      _BACKOFF_MAX_S)
        time.sleep(backoff)
        self._incarnations[worker_id] += 1
        self._start_worker(worker_id)
        self.stats["respawns"] += 1

    def _dispatch(self) -> None:
        """Hand backlogged tasks to idle workers, one task each."""
        for worker_id in range(self.workers):
            if not self._backlog:
                return
            if self._assigned[worker_id] is not None:
                continue
            if not self._procs[worker_id].is_alive():
                continue  # death handled on its pipe's EOF
            index = None
            while self._backlog:
                candidate = self._backlog.popleft()
                if candidate in self._inflight:
                    index = candidate
                    break  # expired/cancelled entries just drop out
            if index is None:
                return
            entry = self._inflight[index]
            wire_ticket = entry.ticket
            if entry.corrupt and entry.attempt == 0:
                from repro.serve.chaos import corrupt_ticket

                wire_ticket = corrupt_ticket(entry.ticket)
            try:
                self._conns[worker_id].send(
                    (index, entry.attempt, wire_ticket,
                     entry.rng_state))
            except (BrokenPipeError, OSError):
                self._backlog.appendleft(index)
                continue  # the pipe's EOF will surface the death
            self._assigned[worker_id] = index

    def _poll_s(self, deadline_s: float | None) -> float:
        """Poll interval: short, and never sleeping past a deadline."""
        poll = _COLLECT_POLL_S
        if deadline_s is not None and self._inflight:
            now = time.monotonic()
            nearest = min(e.submitted_at for e in self._inflight.values())
            poll = min(poll, max(nearest + deadline_s - now, 0.005))
        return poll

    def _expire(self, deadline_s: float | None) -> int:
        """Fail tasks past the deadline; kill the workers holding them."""
        if deadline_s is None:
            return 0
        now = time.monotonic()
        expired = [index for index, entry in self._inflight.items()
                   if now - entry.submitted_at > deadline_s]
        for index in expired:
            entry = self._inflight.pop(index)
            if self._ring.reclaim(entry.ticket):
                self.stats["tickets_reclaimed"] += 1
            self.stats["tasks_timed_out"] += 1
            if index in self._assigned:
                # A hung task cannot be cancelled; kill its worker and
                # respawn.  (A task still in the backlog just ages out
                # — _dispatch skips entries no longer in flight.)
                worker_id = self._assigned.index(index)
                proc = self._procs[worker_id]
                if proc.is_alive():
                    proc.kill()
                self._handle_death(worker_id, unexpected=False)
        return len(expired)

    def _reclaim_inflight(self) -> None:
        """Recycle every in-flight ticket (fault/abort paths)."""
        for entry in self._inflight.values():
            if self._ring.reclaim(entry.ticket):
                self.stats["tickets_reclaimed"] += 1
        self._inflight.clear()
        self._backlog.clear()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut workers down deterministically and unlink shared memory.

        Bounded: each worker gets ``join_timeout_s`` to drain its
        sentinel, then the escalation ladder runs — ``terminate()``
        (SIGTERM), another bounded join, then ``kill()`` (SIGKILL,
        which nothing can ignore).  A hung worker can therefore never
        wedge ``EpisodeScheduler.close()`` or the ``weakref.finalize``
        backstop.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(_SHUTDOWN)
            except (BrokenPipeError, OSError, ValueError):
                pass  # worker already dead / pipe torn
        for proc in self._procs:
            proc.join(timeout=self._join_timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._join_timeout_s)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self._join_timeout_s)
        self._reclaim_inflight()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._ring.close()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
