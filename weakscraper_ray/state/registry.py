"""Multi-template registry with lazy compile-on-first-use (SURVEY.md
ST3): the per-process cache ``template_id → compiled Template``.

The reference holds ONE compiled template per ``WeakScraper`` instance
(SURVEY.md §3.1, reconstructed); at scale one extraction stage serves
many sources, so the registry ships template SOURCE (pickled with the
``Extractor`` each task runs) and compiles a template only when a row
first routes to it, caching the compiled tree for the registry's
lifetime.
"""

from __future__ import annotations

import os
from typing import Callable

from ..template import Template


def load_template_dir(path: str) -> dict[str, str]:
    """Read ``<name>.html`` template files from a directory (driver
    side; templates are small — broadcast the returned dict)."""
    out: dict[str, str] = {}
    for fname in sorted(os.listdir(path)):
        if fname.endswith(".html"):
            with open(os.path.join(path, fname), encoding="utf-8") as fh:
                out[fname[: -len(".html")]] = fh.read()
    return out


class TemplateRegistry:
    """Lazy-compiling template cache, one per ``Extractor`` copy."""

    def __init__(
        self,
        sources: dict,
        functions: dict[str, Callable] | None = None,
        nested: bool = False,
    ):
        self._sources = dict(sources)
        self._functions = functions or {}
        self._nested = nested
        self._compiled: dict = {}

    def __contains__(self, key) -> bool:
        return key in self._sources

    def keys(self):
        return self._sources.keys()

    def get(self, key) -> Template:
        """Compile on first use; cached for the registry's lifetime."""
        tmpl = self._compiled.get(key)
        if tmpl is None:
            tmpl = Template(self._sources[key], self._functions,
                            nested=self._nested)
            self._compiled[key] = tmpl
        return tmpl

    @property
    def compiled_count(self) -> int:
        return len(self._compiled)
