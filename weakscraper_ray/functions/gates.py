"""Driver-side telemetry for gated fallback decisions (VERDICT r4 #7).

The size-gated helpers (``anti_member_filter`` / ``tag_disjoint_stages``
/ ``cluster_pairs`` / the minhash verify gate) choose between a bounded
broadcast path and a fully-distributed exchange at runtime, based on
measured set sizes. The decisions are logged, but a 100 TB operator
reading a bench artifact should see WHICH regime ran without grepping
logs — so every gate also records its decision here, and ``bench.py``
drains the registry into a ``gates`` dict in its JSON output.

All gate decisions execute in the DRIVER process (they branch on a
driver-side ``count()``), so a plain module-global list is sufficient —
no actor or cross-process state.
"""

from __future__ import annotations

_EVENTS: list[dict] = []

#: registry bound: a long-lived driver that never drains (only
#: bench.py drains today) must not leak memory one dict per gate
#: decision forever — beyond the cap, the OLDEST events are dropped
#: and the drop is counted so a drain can see telemetry was lost
#: (code-review r5)
_EVENTS_MAX = 10_000
_DROPPED = 0


def record(gate: str, path: str, **sizes) -> None:
    """Record one gate decision: which helper, which path it chose
    (``broadcast`` / ``exchange`` / ``driver`` / ``distributed``, or
    ``repartition`` / ``as_is`` for ``exchange.coalesce``), and the
    measured set sizes that drove the choice."""
    global _DROPPED
    _EVENTS.append({"gate": gate, "path": path, **sizes})
    if len(_EVENTS) > _EVENTS_MAX:
        del _EVENTS[: len(_EVENTS) - _EVENTS_MAX]
        _DROPPED += 1


def drain() -> list[dict]:
    """Return and clear all recorded decisions (bench consumes this
    after each timed query so events attribute to the right query).
    If the cap dropped events since the last drain, a synthetic
    ``{"gate": "_dropped", ...}`` marker leads the list."""
    global _DROPPED
    out = list(_EVENTS)
    _EVENTS.clear()
    if _DROPPED:
        out.insert(0, {"gate": "_dropped", "path": "overflow",
                       "n_dropped": _DROPPED})
        _DROPPED = 0
    return out


def summarize(events: list[dict]) -> dict:
    """Fold raw events into the compact per-gate view bench emits:
    ``{gate: {path: {"n": count, "max_size": largest driving size}}}``."""
    out: dict = {}
    for e in events:
        sizes = [v for k, v in e.items() if k not in ("gate", "path")]
        g = out.setdefault(e["gate"], {}).setdefault(
            e["path"], {"n": 0, "max_size": 0}
        )
        g["n"] += 1
        if sizes:
            g["max_size"] = max(g["max_size"], max(sizes))
    return out
