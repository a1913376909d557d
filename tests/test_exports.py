"""Every name a package exports resolves, so `import *` works, and every
name the benchmark traces resolves, so a rename fails here."""

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Names perfbench/spans.py looks up that `src/` no longer defines, on purpose:
# `pieri` is a test oracle now, and the box enumeration is gone.
STALE = {"chowkit.grassmann.pieri", "chowkit.grassmann.partitions_in_box"}


@pytest.mark.parametrize(
    "module", ["chowkit", "chowkit.lattice", "chowkit.worksheet", "chowkit.worksheet.parse"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_the_names_perfbench_traces_resolve(monkeypatch):
    """A function the tracer cannot find is a per-layer metric that reads 0."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE
    # the tracer keys statements by their class's `__name__`
    syntax = importlib.import_module("chowkit.worksheet.parse")
    nodes = {
        v.__name__ for v in vars(syntax).values() if isinstance(v, type) and issubclass(v, syntax._Node)
    }
    assert set(spans.STATEMENT_KINDS) <= nodes
