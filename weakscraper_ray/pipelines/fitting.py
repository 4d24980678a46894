"""Round-3 continuation #11 (third batch): model-fitting /
lexicon-statistics family:

- ``isotonic_daily``  exact isotonic (monotone) regression of the
  daily mean value — PAV on the engine, minimax formula in SQL
- ``llr_bigrams``     Dunning's log-likelihood-ratio (G²) collocations
  — the statistically calibrated sibling of ``pmi_bigrams``

Exactness strategy (repo conventions): PAV pool means are RATIONALS
(Σcents / Σcount); IEEE division is correctly rounded, so equal
rationals produce bit-identical doubles on both engines and the
minimax double compare is safe whenever distinct segment means differ
by more than an ulp (≥ 1/(c₁·c₂) absolute here — astronomically above
double epsilon at any realistic day count); G² quantizes every
O·ln(O·N/(row·col)) cell term to e6 integers before the sum (the
``psi_drift`` lesson), zero cells contributing exactly 0 on both
engines.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _i64_away_np, _read

_US_PER_DAY = 86_400_000_000


def _away(v: float) -> int:
    """round-half-away-from-zero, the DuckDB round() rule."""
    return int(math.floor(abs(v) + 0.5)) * (1 if v >= 0 else -1)


# =====================================================================
# Exact isotonic regression (PAV) of the daily mean
# =====================================================================


def q_isotonic_daily(sf_dir: str):
    """Weighted isotonic (non-decreasing) regression of the daily mean
    event value — the calibration / monotone-trend fit (Robertson,
    Wright & Dykstra 1988).  The engine runs the O(n) POOL-ADJACENT-
    VIOLATORS algorithm with INTEGER pool state (Σcents, Σcount;
    violation test by cross-multiplication, so pooling decisions are
    exact); the oracle evaluates the textbook minimax identity
    fit_i = max_{j≤i} min_{k≥i} wavg(j..k) — two independent
    derivations of the same rational, which is what makes this pair a
    real conformance check rather than a transcription.

    Shape: per-batch (day, Σcents, count) partials → one bounded
    ``groupby(day)`` exchange → the inherently serial PAV sweep on the
    driver over ≤ #days rows (the ``cusum_changepoint`` division of
    labor).  Output: (day, n, mean_e6, fit_e6)."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = _i64_away_np(
            batch.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        g = (
            pd.DataFrame({"day": us // _US_PER_DAY, "v": cents})
            .groupby("day", sort=False)["v"]
            .agg(["sum", "size"])
            .reset_index()
        )
        return pa.table(
            {
                "day": pa.array(g["day"].to_numpy(np.int64)),
                "s": pa.array(g["sum"].to_numpy(np.int64)),
                "c": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    daily = (
        _read(sf_dir, "events", ["ts", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c"))
        .to_pandas()  # bounded: #days rows
        .sort_values("day")
        .reset_index(drop=True)
    )
    days = daily["day"].to_numpy(np.int64)
    s = daily["s"].to_numpy(np.int64)
    c = daily["c"].to_numpy(np.int64)
    # PAV: blocks of (Σs, Σc, #days); merge while means DECREASE —
    # the comparison is integer cross-multiplication, never floats
    blocks: list[list[int]] = []
    for si, ci in zip(s, c):
        blocks.append([int(si), int(ci), 1])
        while len(blocks) > 1 and (
            blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]
        ):
            b = blocks.pop()
            blocks[-1][0] += b[0]
            blocks[-1][1] += b[1]
            blocks[-1][2] += b[2]
    fit = np.empty(len(days), dtype=np.int64)
    i = 0
    for bs, bc_, bn in blocks:
        fit[i : i + bn] = _away(1_000_000.0 * (bs / bc_))
        i += bn
    return pd.DataFrame(
        {
            "day": pd.array(days, dtype="int64"),
            "n": pd.array(c, dtype="int64"),
            "mean_e6": pd.array(
                [_away(1_000_000.0 * (int(a) / int(b))) for a, b in zip(s, c)],
                dtype="int64",
            ),
            "fit_e6": pd.array(fit, dtype="int64"),
        }
    )


SQL_ISOTONIC = f"""
WITH c AS (
  SELECT epoch_us(cast(ts AS TIMESTAMP)) // {_US_PER_DAY} AS day,
         cast(round(value * 100, 0) AS BIGINT) AS v
  FROM events),
d AS (SELECT day, cast(sum(v) AS BIGINT) AS s,
             cast(count(*) AS BIGINT) AS c
      FROM c GROUP BY day),
idx AS (SELECT day, s, c, row_number() OVER (ORDER BY day) AS rn FROM d),
seg AS (
  SELECT j.rn AS j, k.rn AS k,
         (SELECT cast(sum(m.s) AS DOUBLE) / cast(sum(m.c) AS DOUBLE)
          FROM idx m WHERE m.rn BETWEEN j.rn AND k.rn) AS wavg
  FROM idx j JOIN idx k ON k.rn >= j.rn),
mins AS (
  SELECT i.rn AS i, sg.j, min(sg.wavg) AS minv
  FROM idx i JOIN seg sg ON sg.j <= i.rn AND sg.k >= i.rn
  GROUP BY 1, 2),
fit AS (SELECT i, max(minv) AS f FROM mins GROUP BY i)
SELECT idx.day, idx.c AS n,
       cast(round(1000000.0 * (cast(idx.s AS DOUBLE) / cast(idx.c AS DOUBLE)),
                  0) AS BIGINT) AS mean_e6,
       cast(round(1000000.0 * fit.f, 0) AS BIGINT) AS fit_e6
FROM idx JOIN fit ON fit.i = idx.rn
"""


# =====================================================================
# Dunning log-likelihood-ratio collocations
# =====================================================================

_LLR_MIN_COUNT = 5
_LLR_TOPK = 20


def q_llr_bigrams(sf_dir: str):
    """Top-20 collocations by Dunning's log-likelihood ratio (G²;
    Dunning 1993) — the calibrated significance test that, unlike PMI
    (``pmi_bigrams``), does not over-reward rare pairs: over the 2×2
    contingency of (first word = a?) × (second word = b?) per bigram,
    G² = 2·Σ O·ln(O·N / (row·col)), zero cells contributing 0.  Each
    cell term is e6-quantized before the integer sum.

    Shape: the SAME vocabulary-bounded bigram-count exchange as
    ``pmi_bigrams`` (payload = batch's observed bigram vocabulary,
    Heaps' law); both marginals derive from the bigram table itself on
    the driver — no second pass over the corpus."""
    from ray.data.aggregate import Sum

    from .tokenizer import _bigram_partial

    bi = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(_bigram_partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: observed bigram vocabulary
    )
    parts = bi["bigram"].str.split(" ", n=1, expand=True)
    bi["a"], bi["b"] = parts[0], parts[1]
    n_tot = int(bi["n"].sum())
    ra = bi.groupby("a")["n"].sum()
    cb = bi.groupby("b")["n"].sum()
    cand = bi[bi["n"] >= _LLR_MIN_COUNT]

    def _term(o: int, row: int, col: int) -> int:
        if o == 0:
            return 0
        return _away(
            1_000_000.0
            * o
            * math.log((float(o) * float(n_tot)) / (float(row) * float(col)))
        )

    rows = []
    for r in cand.itertuples():
        k11 = int(r.n)
        rr, cc = int(ra[r.a]), int(cb[r.b])
        llr = 2 * (
            _term(k11, rr, cc)
            + _term(rr - k11, rr, n_tot - cc)
            + _term(cc - k11, n_tot - rr, cc)
            + _term(n_tot - rr - cc + k11, n_tot - rr, n_tot - cc)
        )
        rows.append((r.bigram, k11, llr))
    out = pd.DataFrame(rows, columns=["bigram", "n", "llr_e6"]).sort_values(
        ["llr_e6", "bigram"], ascending=[False, True], kind="mergesort"
    ).head(_LLR_TOPK)
    return pd.DataFrame(
        {
            "bigram": out["bigram"].to_numpy(),
            "n": out["n"].to_numpy(dtype=np.int64),
            "llr_e6": out["llr_e6"].to_numpy(dtype=np.int64),
        }
    )


SQL_LLR = rf"""
WITH l AS (
  SELECT regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents WHERE regexp_replace(text, '^\s+|\s+$', '', 'g') <> ''),
b AS (
  SELECT toks[i] AS a, toks[i+1] AS bb,
         toks[i] || ' ' || toks[i+1] AS bigram
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
bc AS (SELECT bigram, min(a) AS a, min(bb) AS bb,
              cast(count(*) AS BIGINT) AS n
       FROM b GROUP BY bigram),
rm AS (SELECT a, cast(sum(n) AS BIGINT) AS ra FROM bc GROUP BY a),
cm AS (SELECT bb, cast(sum(n) AS BIGINT) AS cb FROM bc GROUP BY bb),
tot AS (SELECT cast(sum(n) AS BIGINT) AS nt FROM bc),
cells AS (
  SELECT bc.bigram, bc.n,
         bc.n AS k11, rm.ra - bc.n AS k12, cm.cb - bc.n AS k21,
         tot.nt - rm.ra - cm.cb + bc.n AS k22,
         rm.ra, cm.cb, tot.nt
  FROM bc JOIN rm USING (a) JOIN cm USING (bb) CROSS JOIN tot
  WHERE bc.n >= {_LLR_MIN_COUNT}),
sc AS (
  SELECT bigram, n,
    2 * (
      CASE WHEN k11 > 0 THEN cast(round(1000000.0 * k11
        * ln((cast(k11 AS DOUBLE) * nt) / (cast(ra AS DOUBLE) * cb)), 0)
        AS BIGINT) ELSE 0 END
    + CASE WHEN k12 > 0 THEN cast(round(1000000.0 * k12
        * ln((cast(k12 AS DOUBLE) * nt) / (cast(ra AS DOUBLE) * (nt - cb))),
        0) AS BIGINT) ELSE 0 END
    + CASE WHEN k21 > 0 THEN cast(round(1000000.0 * k21
        * ln((cast(k21 AS DOUBLE) * nt) / (cast(nt - ra AS DOUBLE) * cb)),
        0) AS BIGINT) ELSE 0 END
    + CASE WHEN k22 > 0 THEN cast(round(1000000.0 * k22
        * ln((cast(k22 AS DOUBLE) * nt)
             / (cast(nt - ra AS DOUBLE) * (nt - cb))), 0)
        AS BIGINT) ELSE 0 END) AS llr_e6
  FROM cells)
SELECT bigram, n, llr_e6 FROM sc
ORDER BY llr_e6 DESC, bigram LIMIT {_LLR_TOPK}
"""


QUERIES = {
    "isotonic_daily": q_isotonic_daily,
    "llr_bigrams": q_llr_bigrams,
}

ORACLE_SQL = {
    "isotonic_daily": SQL_ISOTONIC,
    "llr_bigrams": SQL_LLR,
}
