import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import spiderfind

# Pipeline stages and their intermediate types: public in their own
# modules, not part of the package root.
STAGE_NAMES = {
    "root_selection": [
        "partition_by_in_degree", "score_roots", "select_root",
        "compute_q_paths", "RootScore", "RootScores", "QPaths",
    ],
    "extenders": ["strong_extender_pool", "greedy_extend", "ExtenderPool"],
    "edge_coloring": [
        "build_extension_graph", "truncate_for_coloring", "vizing_color",
        "largest_color_class", "ExtensionGraph", "EdgeColoring",
    ],
    "digraph": ["extract_exact_outdegree_subgraph"],
}


@pytest.mark.parametrize(
    "module, name",
    [(mod, name) for mod, names in STAGE_NAMES.items() for name in names],
)
def test_stage_names_live_in_their_modules(module, name):
    mod = importlib.import_module(f"spiderfind.{module}")
    assert name in mod.__all__
    assert hasattr(mod, name)
    assert not hasattr(spiderfind, name)


_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_reports_its_example(tmp_path):
    """Under the suite's warning filters a failing @given test fails
    normally (exit 1) and prints its falsifying example."""
    test = tmp_path / "test_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
