"""spiderfind: constructive (2,l)-spider search in directed graphs.

Any directed graph with minimum out-degree at least 2l contains l
vertex-disjoint directed 2-paths into a common root (a (2,l)-spider);
`find_spider` constructs one and `verify_spider` checks certificates
independently.  Generators, an exact polynomial-time oracle, and a CLI
round out the package.
"""
from .digraph import (
    Digraph,
    extract_exact_outdegree_subgraph,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    min_out_degree,
    parse_edge_list,
    write_edge_list,
)
from .edge_coloring import (
    EdgeColoring,
    ExtensionGraph,
    build_extension_graph,
    largest_color_class,
    truncate_for_coloring,
    vizing_color,
)
from .errors import (
    EdgeListError,
    InstanceTooLarge,
    InternalInvariantError,
    PreconditionOutDegree,
    SpiderFormatError,
)
from .extenders import (
    ExtenderPool,
    greedy_extend,
    strong_extender_pool,
)
from .oracle import (
    EXHAUSTIVE_CAP,
    OracleResult,
    SearchOutcome,
    has_spider_bruteforce,
    max_spider_at_root,
    search_spider_free,
)
from .root_selection import (
    QPaths,
    RootScore,
    RootScores,
    compute_q_paths,
    partition_by_in_degree,
    score_roots,
    select_root,
)
from .solver import (
    ProofCheck,
    SolveOutcome,
    SolveTrace,
    explain_trace,
    find_spider,
)
from .spider import (
    Spider,
    ViolationKind,
    ViolationReport,
    format_spider,
    parse_spider,
    verify_spider,
)

__version__ = "0.1.0"
