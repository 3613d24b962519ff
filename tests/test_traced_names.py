"""The names the benchmark traces and the package exports all resolve.

``perfbench/spans.py`` wraps functions by name, so renaming one would break
only a traced benchmark run; these tests read its tables and fail first.
"""

import importlib.util
from pathlib import Path

import maxnoether

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    # CACHES is built when the module loads, so a missing cache fails here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for name, (owner, attr, kind, _) in _spans().TARGETS.items():
        # install() reads a classmethod from the class dict, anything else by getattr
        if kind == "classmethod":
            assert isinstance(vars(owner).get(attr), classmethod), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_every_traced_cache_reports_its_hits():
    for name, fn in _spans().CACHES.items():
        assert callable(getattr(fn, "cache_info", None)), name


def test_every_exported_name_imports():
    missing = [name for name in maxnoether.__all__ if not hasattr(maxnoether, name)]
    assert missing == []
