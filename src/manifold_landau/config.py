"""Worker-count configuration and the chunked grid evaluation.

The one jet evaluation per window may be partitioned across a thread
pool; every row of a batch depends only on its own time, so the
concatenated result is bit-identical to a sequential evaluation.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREADS_ENV_VAR = "MANIFOLD_LANDAU_THREADS"


def worker_count() -> int:
    """Number of scan workers: MANIFOLD_LANDAU_THREADS or available cores."""
    try:
        return max(1, int(os.environ[THREADS_ENV_VAR]))
    except (KeyError, ValueError):
        return os.cpu_count() or 1


def chunked_batch(batch, ts: np.ndarray):
    """Evaluate batch(ts) -> tuple of row arrays, possibly in parallel
    chunks of ts, and return the tuple with every array in grid order."""
    workers = min(worker_count(), max(1, len(ts) // 512))
    if workers <= 1:
        return batch(ts)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(batch, np.array_split(ts, workers)))
    return tuple(np.concatenate(cols) for cols in zip(*parts))
