"""spiderfind: constructive (2,l)-spider search in directed graphs.

Any directed graph with minimum out-degree at least 2l contains l
vertex-disjoint directed 2-paths into a common root (a (2,l)-spider);
`find_spider` constructs one and `verify_spider` checks certificates
independently.  Generators, an exact polynomial-time oracle, and a CLI
round out the package.  The pipeline stages between the two calls are
not part of this root API; they are imported from their modules,
`spiderfind.root_selection`, `spiderfind.extenders` and
`spiderfind.edge_coloring`.
"""
from .digraph import (
    Digraph,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    min_out_degree,
    parse_edge_list,
    write_edge_list,
)
from .errors import (
    EdgeListError,
    InstanceTooLarge,
    InternalInvariantError,
    PreconditionOutDegree,
    SpiderFormatError,
)
from .oracle import (
    EXHAUSTIVE_CAP,
    OracleResult,
    SearchOutcome,
    has_spider_bruteforce,
    max_spider_at_root,
    search_spider_free,
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
