"""Closing the control loop: SLO-driven adaptive batching and load shedding.

The PR 5 histograms (:mod:`repro.serving.metrics`) made serving latency
*observable*; until now nothing acted on them.  This module is the feedback
half of the serving stack:

* :class:`SloController` — an AIMD controller that periodically reads each
  model's latency histogram, computes the p99 **over the interval since its
  last tick** (a windowed quantile from the difference of two bucket-count
  snapshots, so one overloaded minute an hour ago cannot dominate today's
  decision), and retunes that model's micro-batch budgets through
  :meth:`~repro.serving.router.ModelRouter.configure_model`:

  - **under the target p99**: grow the batch budget *additively*
    (``+increase_by`` rows) and relax the flush deadline back toward the
    configured base — probe for throughput while latency has headroom;
  - **over the target p99**: back off *multiplicatively* (``x backoff`` on
    both the row budget and the deadline) — shed latency fast, the classic
    TCP-shaped response to congestion.

  Reconfiguration is safe under load because the
  :class:`~repro.serving.batcher.MicroBatcher` snapshots both limits
  atomically at each batch boundary — a mid-flush batch always runs under
  one consistent configuration.

* :class:`OverloadedError` — raised by the service's queue-depth admission
  check *before* a request is parked on a batch ticket.  The HTTP frontend
  maps it to ``429 Too Many Requests`` with a ``Retry-After`` hint, so
  overload is answered with a cheap rejection before the matmul, not with a
  timeout after it.  The retry hint is the estimated drain time of the
  queue the request would have joined.

Neither mechanism touches the data plane's one promise: budgets and
admission change *when* a matmul runs and *whether* a request is accepted —
never the numbers a served request returns, which stay bitwise equal to
offline ``decision_scores``.

The controller tunes batch budgets; it does not judge the SLO.  Whether a
latency objective is burning is a rule over the
``repro_request_latency_seconds`` histogram that ``GET /metrics`` exports,
owned by whatever scrapes it (``docs/observability.md``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.serving.metrics import LATENCY_BUCKETS, bucket_quantile


class OverloadedError(ReproError):
    """A request was shed by admission control (queue depth over the cap).

    ``retry_after`` is the estimated seconds until the model's queue has
    drained — what the HTTP frontend serialises into the ``Retry-After``
    header (rounded up to whole seconds, as the header requires).
    """

    def __init__(self, message: str, *, retry_after: float, label: str,
                 depth: int, max_queue_depth: int):
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.label = label
        self.depth = int(depth)
        self.max_queue_depth = int(max_queue_depth)

    @property
    def retry_after_header(self) -> int:
        """``Retry-After`` header value: whole seconds, at least 1."""
        return max(1, math.ceil(self.retry_after))


def estimate_drain_seconds(depth: int, max_batch_size: int,
                           max_latency: float) -> float:
    """Rough drain time of a queue ``depth`` tickets deep: each flush clears
    up to ``max_batch_size`` tickets and a forming batch waits at most
    ``max_latency`` — a floor of 10 ms keeps the hint non-zero even for
    deadline-free queues."""
    flushes = math.ceil(max(depth, 1) / max(max_batch_size, 1))
    return flushes * max(max_latency, 0.010)


@dataclass
class ModelBudget:
    """The controller's per-model state: current budgets plus the audit
    trail ``/stats`` exposes."""

    max_batch_size: int
    max_latency: float
    last_p99: float = 0.0
    last_window: int = 0      # requests observed in the last non-empty window
    ticks_under: int = 0      # windows at or under the target p99
    ticks_over: int = 0       # windows over the target p99
    grown: int = 0            # additive increases applied
    backed_off: int = 0       # multiplicative backoffs applied
    _counts: tuple = field(default=(), repr=False)  # last snapshot

    @property
    def slo_attainment(self) -> float:
        """Fraction of observed windows that met the target (1.0 when the
        model has not seen traffic yet — an idle model is not violating)."""
        windows = self.ticks_under + self.ticks_over
        return self.ticks_under / windows if windows else 1.0

    def as_dict(self) -> dict:
        return {
            "max_batch_size": self.max_batch_size,
            "max_latency_seconds": self.max_latency,
            "last_window_p99_ms": self.last_p99 * 1e3,
            "last_window_requests": self.last_window,
            "windows_under_slo": self.ticks_under,
            "windows_over_slo": self.ticks_over,
            "grown": self.grown,
            "backed_off": self.backed_off,
            "slo_attainment": self.slo_attainment,
        }


class SloController:
    """AIMD feedback from the latency histograms into per-model batch budgets.

    Parameters
    ----------
    router:
        The :class:`~repro.serving.router.ModelRouter` whose per-model
        budgets are tuned (via ``configure_model``); its attached
        :class:`~repro.serving.metrics.ServingMetrics` is the feedback
        signal unless ``metrics`` overrides it.
    target_p99:
        The latency objective in **seconds**: hold each model's windowed
        p99 at or under this.
    interval:
        Seconds between control ticks (the window length).
    increase_by:
        Additive row-budget growth per under-target window.
    backoff:
        Multiplicative factor (0 < backoff < 1) applied to both budgets on
        an over-target window.
    min_batch_size / max_batch_size:
        Clamp bounds for the row budget.
    min_latency:
        Floor for the flush deadline under backoff; the ceiling is the
        router-wide default the server was started with (the deadline
        recovers additively toward it).
    """

    def __init__(self, router, *, target_p99: float, metrics=None,
                 interval: float = 0.25, increase_by: int = 8,
                 backoff: float = 0.5, min_batch_size: int = 1,
                 max_batch_size: int = 4096, min_latency: float = 0.0005):
        if target_p99 <= 0:
            raise ValueError(f"target_p99 must be > 0, got {target_p99}")
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if increase_by < 1:
            raise ValueError(f"increase_by must be >= 1, got {increase_by}")
        if not 1 <= min_batch_size <= max_batch_size:
            raise ValueError(
                f"need 1 <= min_batch_size <= max_batch_size, got "
                f"[{min_batch_size}, {max_batch_size}]")
        self.router = router
        self.metrics = metrics if metrics is not None else router.metrics
        self.target_p99 = float(target_p99)
        self.interval = float(interval)
        self.increase_by = int(increase_by)
        self.backoff = float(backoff)
        self.min_batch_size = int(min_batch_size)
        self.max_batch_size = int(max_batch_size)
        self.min_latency = float(min_latency)
        # The deadline ceiling and its additive recovery step are anchored to
        # the router-wide default: what the operator configured is the most
        # the controller will ever let a batch wait.
        self.base_latency = float(router.max_latency)
        self.latency_step = max(self.base_latency / 4.0, self.min_latency)
        self._lock = threading.Lock()
        self._budgets: dict[str, ModelBudget] = {}
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.ticks = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------ #
    # the control step
    # ------------------------------------------------------------------ #
    def tick(self) -> dict:
        """One control step over every model with traffic; returns the
        per-label decisions (the deterministic entry point the tests call
        directly with a hand-fed metrics object)."""
        decisions: dict[str, dict] = {}
        with self._lock:
            # Snapshot under the lock: a label forgotten before this tick
            # cannot come back from a stale snapshot (see ``forget``).
            snapshot = self.metrics.latency_snapshot()
            self.ticks += 1
            for label, (counts, observed_max, _total) in snapshot.items():
                budget = self._budgets.get(label)
                if budget is None:
                    size, latency = self.router.model_limits(label)
                    budget = self._budgets[label] = ModelBudget(
                        max_batch_size=size, max_latency=latency)
                window = [new - old for new, old in
                          zip(counts, budget._counts)] \
                    if budget._counts else list(counts)
                budget._counts = counts
                requests = sum(window)
                if requests == 0:
                    continue  # idle window: hold the budgets, judge nothing
                p99 = bucket_quantile(LATENCY_BUCKETS, window, 0.99,
                                      overflow_value=observed_max)
                decisions[label] = self._adjust(label, budget, p99, requests)
        return decisions

    def _adjust(self, label: str, budget: ModelBudget, p99: float,
                requests: int) -> dict:
        budget.last_p99 = p99
        budget.last_window = requests
        size, latency = budget.max_batch_size, budget.max_latency
        if p99 > self.target_p99:
            budget.ticks_over += 1
            new_size = max(self.min_batch_size,
                           int(size * self.backoff))
            new_latency = max(self.min_latency, latency * self.backoff)
            action = "backoff"
        else:
            budget.ticks_under += 1
            new_size = min(self.max_batch_size, size + self.increase_by)
            new_latency = min(self.base_latency, latency + self.latency_step)
            action = "grow"
        if (new_size, new_latency) != (size, latency):
            if action == "backoff":
                budget.backed_off += 1
            else:
                budget.grown += 1
            budget.max_batch_size = new_size
            budget.max_latency = new_latency
            self.router.configure_model(label, max_batch_size=new_size,
                                        max_latency=new_latency)
        return {"action": action, "p99": p99, "requests": requests,
                "max_batch_size": new_size, "max_latency": new_latency}

    def forget(self, label: str) -> None:
        """Drop a retired label's budget.  Waits for a running tick, so once
        the label is gone from the metrics no tick can recreate it."""
        with self._lock:
            self._budgets.pop(label, None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SloController":
        """Run the control loop on a daemon thread (idempotent)."""
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-serving-slo")
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._stopping.set()
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "SloController":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _loop(self) -> None:
        while not self._stopping.wait(self.interval):
            try:
                self.tick()
            except Exception as error:  # keep controlling; surface in /stats
                self.last_error = repr(error)

    # ------------------------------------------------------------------ #
    # observability (the /stats "slo" block)
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        with self._lock:
            models = {label: budget.as_dict()
                      for label, budget in sorted(self._budgets.items())}
            return {
                "target_p99_ms": self.target_p99 * 1e3,
                "interval_seconds": self.interval,
                "increase_by": self.increase_by,
                "backoff": self.backoff,
                "base_max_latency_seconds": self.base_latency,
                "ticks": self.ticks,
                "last_error": self.last_error,
                "models": models,
            }
