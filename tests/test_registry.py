"""Guards on the query registry (``weakscraper_ray/pipelines/registry.py``),
the tools that name queries, and the package's raw Ray actors. No Ray
session needed."""

import ast
import glob
import importlib.util
import os

from weakscraper_ray.pipelines import registry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _defines_queries(path: str) -> bool:
    tree = ast.parse(open(path).read())
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "QUERIES" for t in targets):
            return True
    return False


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _family_oracles(fam) -> set[str]:
    names = set(getattr(fam, "ORACLE_SQL", {}))
    if hasattr(fam, "dynamic_oracle_sql"):
        names |= set(fam.dynamic_oracle_sql(registry.relational.DRIVER_SF_DIR))
    return names


def test_every_query_module_is_a_family_once():
    pkg = os.path.join(REPO, "weakscraper_ray", "pipelines")
    with_queries = sorted(
        os.path.basename(p)[:-3]
        for p in glob.glob(os.path.join(pkg, "*.py"))
        if _defines_queries(p)
    )
    families = [f.__name__.rsplit(".", 1)[-1] for f in registry.FAMILIES]
    assert sorted(families) == with_queries
    assert len(set(families)) == len(families)


def test_oracle_names_disjoint_and_registered():
    seen: dict[str, str] = {}
    for fam in registry.FAMILIES:
        for k in _family_oracles(fam):
            assert k not in seen, f"oracle {k!r} in both {seen[k]} and {fam.__name__}"
            seen[k] = fam.__name__
    assert set(seen) == set(registry.oracle_sql())
    assert set(seen) <= set(registry.queries())


def test_tool_query_lists_are_registered():
    names = set(registry.queries())
    assert set(_load("bench").QUERY_NAMES) <= names
    assert set(_load("scale_curve").QUERIES) <= names


def test_no_raw_actors_outside_bsp():
    """Product code runs on stateless Ray Data tasks, whose worker loss
    task retries cover. ``state/bsp.py`` (the graph families' actor) is
    the last raw actor; nothing else may declare one or restart one
    forever."""
    pkg = os.path.join(REPO, "weakscraper_ray")
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, pkg)
        if rel == os.path.join("state", "bsp.py"):
            continue
        src = open(path).read()
        offenders += [
            f"{rel}: {pat}" for pat in ("@ray.remote", "max_restarts=-1") if pat in src
        ]
    assert offenders == []
