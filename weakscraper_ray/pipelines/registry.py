"""The query registry: one explicit list of the query families.

Each family module defines ``QUERIES`` (name → callable taking
``sf_dir``), optionally a static ``ORACLE_SQL`` (name → DuckDB SQL) and
optionally ``dynamic_oracle_sql(sf_dir)`` for twins that depend on the
scale-factor directory. No family imports another to register itself:
adding a family means adding it to ``FAMILIES``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from . import (
    analytics,
    audit,
    clustering,
    curation,
    dataops,
    embedding_ops,
    engagement,
    features,
    fitting,
    graph,
    graphstats,
    hypotests,
    hypotests2,
    indexing,
    inequality,
    inference,
    measures,
    membership,
    mining,
    mlprep,
    moments,
    monitor,
    neardup,
    nonparam,
    paths,
    patterns,
    ranges,
    ranking,
    relational,
    retrieval,
    rounds,
    sequential,
    series,
    ssjoin,
    stats,
    tokenizer,
    tpch_ops,
    transcript_ops,
)

#: The product families first (extraction-adjacent relational,
#: curation, dedup, retrieval and transcript hygiene), then the
#: statistics, graph and warehouse families.
FAMILIES = (
    relational,
    curation,
    embedding_ops,
    indexing,
    mining,
    clustering,
    tokenizer,
    ssjoin,
    retrieval,
    membership,
    neardup,
    transcript_ops,
    analytics,
    graph,
    series,
    dataops,
    stats,
    monitor,
    audit,
    inference,
    fitting,
    rounds,
    sequential,
    ranking,
    moments,
    paths,
    mlprep,
    ranges,
    engagement,
    inequality,
    features,
    patterns,
    measures,
    graphstats,
    hypotests,
    hypotests2,
    nonparam,
    tpch_ops,
)


def queries() -> dict[str, Callable[[str], Any]]:
    """Every family's ``QUERIES``, merged."""
    out: dict[str, Callable[[str], Any]] = {}
    for fam in FAMILIES:
        out.update(fam.QUERIES)
    return out


def oracle_sql(sf_dir: str = relational.DRIVER_SF_DIR) -> dict[str, str]:
    """Every family's static ``ORACLE_SQL`` plus its
    ``dynamic_oracle_sql(sf_dir)`` where it defines one; the dynamic
    twins build their expected-twin parquets for ``sf_dir``."""
    out: dict[str, str] = {}
    for fam in FAMILIES:
        out.update(getattr(fam, "ORACLE_SQL", {}))
        if hasattr(fam, "dynamic_oracle_sql"):
            out.update(fam.dynamic_oracle_sql(sf_dir))
    return out
