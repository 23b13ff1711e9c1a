"""Execution backends: run replications serially or across processes.

The package is deliberately below :mod:`repro.resilience` in the
layering — backends know how to *run payloads*, not what a retry or a
checkpoint is.  The resilience engine composes a backend with its own
supervision; the plain fail-fast loops in
:mod:`repro.queueing.replication` use one directly.

Three process-lifetime disciplines:

* :class:`SerialBackend` — inline, deterministic, no pickling;
* :class:`ProcessPoolBackend` — fresh spawn workers per session
  (maximum isolation, pays the spawn tax every call);
* :class:`WarmPoolBackend` / :func:`warm_pool` — persistent workers
  shared across sessions and callers, the default for ``jobs > 1``.

Large read-only arrays cross the process boundary through
:mod:`repro.parallel.shm` (``multiprocessing.shared_memory``
descriptors) instead of pickles.
"""

from repro.parallel.backends import (
    Backend,
    BackendSession,
    ProcessPoolBackend,
    SerialBackend,
    WarmPoolBackend,
    get_default_backend,
    resolve_backend,
    run_payloads,
    set_default_backend,
    shutdown_warm_pools,
    use_backend,
    warm_pool,
)
from repro.parallel.shm import (
    SharedArray,
    SharedBlob,
    attach_array,
    attach_blob,
    owned_segments,
    publish_array,
    publish_blob,
    release_attachments,
    unlink_owned,
)
from repro.parallel.worker import (
    WorkerBatchPayload,
    WorkerBatchResult,
    WorkerPayload,
    WorkerResult,
    execute_batch_payload,
    execute_payload,
    merge_result_telemetry,
    pool_entry,
    pool_entry_batch,
)

__all__ = [
    "Backend",
    "BackendSession",
    "ProcessPoolBackend",
    "SerialBackend",
    "SharedArray",
    "SharedBlob",
    "WarmPoolBackend",
    "WorkerBatchPayload",
    "WorkerBatchResult",
    "WorkerPayload",
    "WorkerResult",
    "attach_array",
    "attach_blob",
    "execute_batch_payload",
    "execute_payload",
    "get_default_backend",
    "merge_result_telemetry",
    "owned_segments",
    "pool_entry",
    "pool_entry_batch",
    "publish_array",
    "publish_blob",
    "release_attachments",
    "resolve_backend",
    "run_payloads",
    "set_default_backend",
    "shutdown_warm_pools",
    "unlink_owned",
    "use_backend",
    "warm_pool",
]
