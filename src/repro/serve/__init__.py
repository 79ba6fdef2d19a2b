"""Coloring-as-a-service: an async job server over the run store.

``repro serve`` turns the harness into a long-lived service: clients
submit coloring work (single runs, sweeps, batch matrices, pipelines)
as JSON over HTTP — localhost TCP or a Unix socket — and wait for
results while a worker pool executes on the simulator. Job state lives
in the run store's ``jobs`` table, so a killed server restarts with
``--recover`` and finishes what it started; duplicate submissions
dedup by content digest and return the cached result.

Layers: :mod:`~repro.serve.model` (specs, validation, dedup digest) →
:mod:`~repro.serve.executor` (worker threads on the harness) →
:mod:`~repro.serve.app` (HTTP endpoints) → :mod:`~repro.serve.client`
(the bundled submit/wait/fetch client).
"""

from .app import ApiError, ServeApp, make_server, make_unix_server, run_server
from .client import ServeClient, ServeError, WaitTimeout
from .executor import JobExecutor
from .model import (
    JOB_KINDS,
    JobPlan,
    SpecError,
    expand_spec,
    new_job_id,
    normalize_spec,
    spec_digest,
)

__all__ = [
    "ApiError",
    "JOB_KINDS",
    "JobExecutor",
    "JobPlan",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "SpecError",
    "WaitTimeout",
    "expand_spec",
    "make_server",
    "make_unix_server",
    "new_job_id",
    "normalize_spec",
    "run_server",
    "spec_digest",
]
