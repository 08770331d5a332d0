import importlib

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
