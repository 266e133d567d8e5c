"""Library thread count, kept for the benchmark's provenance record."""


def worker_count() -> int:
    """The number of threads the library evaluates on: always 1.

    Only the benchmark's provenance record reads this; it can go with
    the benchmark's next change (ROADMAP item 6)."""
    return 1
