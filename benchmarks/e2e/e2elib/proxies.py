"""Timing proxies around the program's public seams.

Nothing here changes what the program computes: every proxy forwards the
call unchanged and only stamps a span around it.  The smoke test pins that
(``TimedBackend`` and the sampler/policy proxies are byte-identity-neutral).
"""

from __future__ import annotations

import numpy as np

from repro.parallel import ExecutionBackend

from .spans import SpanRecorder


class TimedBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` that times the wrapped backend's
    counting calls and forwards everything else.

    Accepted wherever a backend instance is (``make_engine``,
    ``MatchSession``, ``SessionRegistry``); reports the wrapped backend's
    ``name`` so run reports are unchanged.  With ``recorder=None`` it is a
    pure pass-through (used to show the wrapper itself is neutral).
    """

    def __init__(self, inner: ExecutionBackend, recorder: SpanRecorder | None) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name

    def run_uniform(self, sampler, m: int) -> np.ndarray:
        return self.inner.run_uniform(sampler, m)

    def run_sampling(self, sampler, needed, max_rows=None) -> np.ndarray:
        return self.inner.run_sampling(sampler, needed, max_rows=max_rows)

    def count_blocks(self, source, blocks):
        if self.recorder is None:
            return self.inner.count_blocks(source, blocks)
        with self.recorder.span("parallel.count_blocks"):
            return self.inner.count_blocks(source, blocks)

    def count_table(self, table, z_name, x_name, num_candidates, num_groups,
                    row_filter=None):
        if self.recorder is None:
            return self.inner.count_table(
                table, z_name, x_name, num_candidates, num_groups, row_filter
            )
        with self.recorder.span("parallel.count_table"):
            return self.inner.count_table(
                table, z_name, x_name, num_candidates, num_groups, row_filter
            )

    def set_tracer(self, tracer) -> None:
        self.inner.set_tracer(tracer)

    def set_profiler(self, profiler) -> None:
        self.inner.set_profiler(profiler)

    def unpublish(self, *artifacts) -> None:
        self.inner.unpublish(*artifacts)

    def describe(self) -> dict:
        return self.inner.describe()

    def close(self) -> None:
        self.inner.close()


class PolicyProxy:
    """Times ``policy.select`` (block selection / bitmap probing)."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def select(self, index, blocks, active_values, cost_model, resident):
        with self._recorder.span("sampling.policy_select"):
            return self._inner.select(index, blocks, active_values, cost_model, resident)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class SamplerProxy:
    """A :class:`~repro.core.sampler.TupleSampler` that times the wrapped
    engine's calls; handed to HistSim in the engine's place, so the time
    HistSim spends *outside* these spans is the core layer's own."""

    def __init__(self, engine, recorder: SpanRecorder) -> None:
        self._engine = engine
        self._recorder = recorder

    @property
    def num_candidates(self) -> int:
        return self._engine.num_candidates

    @property
    def num_groups(self) -> int:
        return self._engine.num_groups

    @property
    def total_rows(self) -> int:
        with self._recorder.span("sampling.state"):
            return self._engine.total_rows

    @property
    def fully_scanned(self) -> bool:
        with self._recorder.span("sampling.state"):
            return self._engine.fully_scanned

    def delivered_rows(self):
        with self._recorder.span("sampling.state"):
            return self._engine.delivered_rows()

    def candidate_rows(self):
        with self._recorder.span("sampling.state"):
            return self._engine.candidate_rows()

    def sample_uniform(self, m: int):
        with self._recorder.span("sampling.sample_uniform"):
            return self._engine.sample_uniform(m)

    def sample_until(self, needed, max_rows=None):
        with self._recorder.span("sampling.sample_until"):
            return self._engine.sample_until(needed, max_rows=max_rows)


def instrument_job(job, recorder: SpanRecorder) -> None:
    """Swap the proxies into a session job (``session.make_job``): the
    engine's policy, and the sampler HistSim drives."""
    job.engine.policy = PolicyProxy(job.engine.policy, recorder)
    job.stepper.algorithm.sampler = SamplerProxy(job.engine, recorder)


class TimedJob:
    """A schedulable job that times ``step``/``finish`` of the wrapped one.

    Satisfies what the serving engine and the batch scheduler ask of a job;
    ``op`` ties spans opened on the loop thread back to the request.
    """

    def __init__(self, job, recorder: SpanRecorder, op: int) -> None:
        self._job = job
        self._recorder = recorder
        self.op = op
        self.name = job.name
        self.steps = 0

    @property
    def done(self) -> bool:
        return self._job.done

    def step(self) -> None:
        self.steps += 1
        with self._recorder.span("core.step", self.op):
            self._job.step()

    def finish(self, service_ns: float):
        with self._recorder.span("system.finish", self.op):
            return self._job.finish(service_ns)

    def finish_partial(self, service_ns: float):
        with self._recorder.span("system.finish", self.op):
            return self._job.finish_partial(service_ns)

    def __getattr__(self, name):
        return getattr(self._job, name)


class TimedService:
    """What a :class:`~repro.serving.FrontDoor` serves (``job_for_request``,
    ``clock``, ``backend``, ``close``), wrapping a registry so every job it
    builds is instrumented.  Requests are matched to ops by name."""

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self._service = service
        self._recorder = recorder
        self.clock = service.clock
        self.backend = service.backend
        self.op_of_request: dict[str, int] = {}

    def job_for_request(self, request, default_max_step_rows=None):
        op = self.op_of_request[request.name]
        with self._recorder.span("system.make_job", op):
            job = self._service.job_for_request(
                request, default_max_step_rows=default_max_step_rows
            )
        instrument_job(job, self._recorder)
        return TimedJob(job, self._recorder, op)

    def close(self) -> None:
        self._service.close()
