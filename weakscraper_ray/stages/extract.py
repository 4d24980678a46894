"""The flagship extraction stage (SURVEY.md §2.2 C1–C4).

``Extractor`` is a callable class; the pipeline passes an INSTANCE,
``ds.map_batches(Extractor(templates, ...), batch_format="pyarrow",
batch_size=B)``, so Ray Data runs it as stateless tasks:

- ``__init__`` runs once on the driver and only records template
  SOURCE and the user ``functions`` registry (ST2). Each task unpickles
  its own copy, whose registry compiles a template on first use (the
  reference's ``WeakScraper.__init__`` cost — 0.1 ms per template, so
  at most a few tenths of a ms per batch; SURVEY.md ST1/ST3).
- ``__call__`` runs per Arrow batch (zero-copy in): per-document parse
  + match is inherently a Python loop over the ``text`` column, but
  all column assembly is Arrow-native and the raw ``text`` column is
  DROPPED from the output so the expensive payload never crosses the
  downstream shuffles (SURVEY.md §4.2 "spill" row).

Mismatch exceptions become data (``status``/``error_kind`` columns),
never task failures (SURVEY.md §2.6).
"""

from __future__ import annotations

import json
from typing import Callable

import pyarrow as pa

from ..exceptions import TemplateMismatch
from ..template import Template

#: Arrow type of the labeled field spans column (SURVEY.md §1.2)
SPANS_TYPE = pa.list_(
    pa.struct([("name", pa.string()), ("start", pa.int32()), ("end", pa.int32())])
)


class Extractor:
    """Template matcher over Arrow batches.

    Parameters
    ----------
    templates:
        ``{template_id: template_html}``. Compiled lazily, on first use.
    functions:
        user post-processor registry (``wp-function`` hook, D5/D6).
    route_column:
        optional int column naming each row's template; rows with an
        unknown/negative id (or when the column is absent) fall back to
        first-match-wins across all templates in id order.
    keep_text:
        keep the raw ``text`` column in the output (debug only — at
        scale the payload must be dropped before the shuffles).
    """

    def __init__(
        self,
        templates: dict[int, str],
        functions: dict[str, Callable] | None = None,
        route_column: str | None = "template_id",
        keep_text: bool = False,
        heuristic_fallback: bool = False,
        nested: bool = False,
    ):
        from ..state import TemplateRegistry

        # lazy compile-on-first-use (SURVEY.md ST3): a task only pays
        # for the templates its rows actually route to
        self.registry = TemplateRegistry(
            {tid: src for tid, src in sorted(templates.items())}, functions,
            nested=nested,
        )
        self.route_column = route_column
        self.keep_text = keep_text
        self.heuristic_fallback = heuristic_fallback

    # -- per-row core ---------------------------------------------------
    def _extract_one(self, text: str, tid: int | None):
        """Returns (template_id, status, error_kind, extracted_text,
        fields_json, spans, nodes_matched, boilerplate_bytes)."""
        if text is None or "<" not in text or ">" not in text:
            return (-1, "skipped", "not_html", "", "{}", [], 0, 0)
        if tid is not None and tid in self.registry:
            candidates = ((tid, self.registry.get(tid)),)
        else:
            candidates = tuple(
                (k, self.registry.get(k)) for k in self.registry.keys()
            )
        last_err: TemplateMismatch | None = None
        for cand_id, tmpl in candidates:
            try:
                m = tmpl.match(text)
            except TemplateMismatch as e:
                last_err = e
                continue
            spans = [
                {"name": n, "start": s, "end": e} for n, s, e in m.spans
            ]
            return (
                cand_id,
                "ok",
                "",
                m.extracted_text,
                json.dumps(m.fields, sort_keys=True),
                spans,
                m.nodes_matched,
                m.boilerplate_bytes,
            )
        kind = last_err.kind if last_err is not None else "no_template"
        if self.heuristic_fallback:
            # template-less / mismatched page → text-density DOM
            # heuristic (SURVEY.md C4 fallback, north_rule "DOM
            # heuristics"); classification kept in error_kind
            from ..heuristic import extract_main_content

            text_out, boiler = extract_main_content(text)
            if text_out:
                return (
                    tid if tid is not None else -1,
                    "heuristic", kind, text_out, "{}", [], 0, boiler,
                )
        return (
            tid if tid is not None else -1,
            "error", kind, "", "{}", [], 0, 0,
        )

    # -- per-batch ------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        if self.route_column in batch.column_names:
            tids = batch.column(self.route_column).to_pylist()
        else:
            tids = [None] * len(texts)

        n = len(texts)
        out_tid = [0] * n
        status = [""] * n
        error_kind = [""] * n
        extracted = [""] * n
        fields = ["{}"] * n
        spans: list = [None] * n
        nodes = [0] * n
        boiler = [0] * n
        for i in range(n):
            (
                out_tid[i], status[i], error_kind[i], extracted[i],
                fields[i], spans[i], nodes[i], boiler[i],
            ) = self._extract_one(texts[i], tids[i])

        # drop the payload (unless keep_text), the route column, and any
        # pre-existing template_id column (the output re-emits it — an
        # unrouted run over routed input must not duplicate the field)
        drop = {"text", self.route_column, "template_id"}
        keep = [
            c for c in batch.column_names
            if c not in drop or (c == "text" and self.keep_text)
        ]
        out = batch.select(keep)
        out = out.append_column("template_id", pa.array(out_tid, pa.int32()))
        out = out.append_column("status", pa.array(status, pa.string()))
        out = out.append_column("error_kind", pa.array(error_kind, pa.string()))
        out = out.append_column("extracted_text", pa.array(extracted, pa.string()))
        out = out.append_column("fields", pa.array(fields, pa.large_string()))
        out = out.append_column("spans", pa.array(spans, SPANS_TYPE))
        out = out.append_column("nodes_matched", pa.array(nodes, pa.int32()))
        out = out.append_column(
            "boilerplate_bytes_stripped", pa.array(boiler, pa.int64())
        )
        return out
