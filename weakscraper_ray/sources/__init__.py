"""Sources & sinks: the transcript format table and resumable checkpointed output."""

from .checkpoint import (
    committed_partitions,
    metrics_rollup,
    prune_committed,
    write_partitioned,
)

__all__ = [
    "write_partitioned",
    "committed_partitions",
    "prune_committed",
    "metrics_rollup",
]
