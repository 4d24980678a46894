"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in weakscraper_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: template extraction over a deterministic
    synthetic transcripts table (FIXTURES.md §1; the sf0.001 testdata
    tables feed the relational queries, the transcripts table is the
    extraction payload mandated by BASELINE.json's input_hint)."""
    from weakscraper_ray.pipelines import run_flagship

    ds = run_flagship(size="tiny")
    return ds


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2,
    merged over ``weakscraper_ray.pipelines.registry.FAMILIES``."""
    from weakscraper_ray.pipelines import registry

    return registry.queries()


def oracle_sql() -> dict[str, str]:
    """DuckDB twins: each family's static SQL plus its deterministic
    expected-twin parquets (built here, single-threaded) — see
    weakscraper_ray/oracles.py."""
    from weakscraper_ray.pipelines import registry

    return registry.oracle_sql()
