"""``repro.algorithms`` resolves its public names on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.algorithms

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_importing_one_algorithm_imports_one_module():
    code = (
        "import sys, repro.algorithms.pagerank\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.algorithms.'))\n"
        "assert loaded == ['repro.algorithms._common', 'repro.algorithms.pagerank'], loaded\n"
        "from repro.algorithms import run_sv, PageRankScatterBulk\n"
        "assert 'repro.algorithms.sv' in sys.modules\n"
        "assert 'repro.algorithms.msf' not in sys.modules\n"
        "assert PageRankScatterBulk is repro.algorithms.pagerank.PageRankScatterBulk\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def test_every_public_name_resolves_to_its_module():
    assert len(repro.algorithms.__all__) == len(set(repro.algorithms.__all__)) == 35
    assert set(repro.algorithms.__all__) <= set(dir(repro.algorithms))
    for name in repro.algorithms.__all__:
        value = getattr(repro.algorithms, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("repro.algorithms.") and getattr(module, name) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_nothing'"):
        repro.algorithms.run_nothing
    with pytest.raises(ImportError):
        from repro.algorithms import run_nothing  # noqa: F401
