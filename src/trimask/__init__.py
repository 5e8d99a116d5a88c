"""Triple-patterning layout decomposition.

Assigns layout features (or their stitched segments) to three masks while
minimizing a weighted sum of coloring conflicts and inserted stitches. After
optimality-preserving graph reductions, a piece of small elimination width
is solved exactly by bucket elimination, and any other piece by a
semidefinite relaxation and its rounding.
"""

from .detection import InfeasibleWitness, propagate_and_check
from .geometry import (
    Layout,
    LayoutError,
    LayoutGraph,
    ProcessParams,
    Shape,
    build_layout_graph,
    load_layout,
    project_and_split,
    stitch_candidates,
)
from .graphs import (
    DecompositionGraph,
    MaskAssignment,
    Segment,
    brute_force_optimum,
    connected_components,
    evaluate,
    format_edgelist,
    parse_edgelist,
)
from .ilp import (
    IlpModel,
    SolveReport,
    build_ilp,
    check_encoding,
    decode_bits,
    encode_coloring,
    solve_exact,
    write_lp,
)
from .pipeline import (
    ComponentReport,
    DecomposeConfig,
    DecomposeResult,
    decompose,
    decompose_graph,
)
from .reductions import (
    BridgeCut,
    find_bridges,
    peel_low_degree,
    reinsert_segments,
    stitch_and_rotate,
)
from .sdp import (
    CostMatrix,
    RelaxationSolution,
    build_cost_matrix,
    discrete_vector_objective,
    join_costs,
    map_to_masks,
    solve_relaxation,
)

__version__ = "0.1.0"

__all__ = [
    "InfeasibleWitness",
    "propagate_and_check",
    "Layout",
    "LayoutError",
    "LayoutGraph",
    "ProcessParams",
    "Shape",
    "build_layout_graph",
    "load_layout",
    "project_and_split",
    "stitch_candidates",
    "DecompositionGraph",
    "MaskAssignment",
    "Segment",
    "brute_force_optimum",
    "connected_components",
    "evaluate",
    "format_edgelist",
    "parse_edgelist",
    "IlpModel",
    "SolveReport",
    "build_ilp",
    "check_encoding",
    "decode_bits",
    "encode_coloring",
    "solve_exact",
    "write_lp",
    "ComponentReport",
    "DecomposeConfig",
    "DecomposeResult",
    "decompose",
    "decompose_graph",
    "BridgeCut",
    "find_bridges",
    "peel_low_degree",
    "reinsert_segments",
    "stitch_and_rotate",
    "CostMatrix",
    "RelaxationSolution",
    "build_cost_matrix",
    "discrete_vector_objective",
    "join_costs",
    "map_to_masks",
    "solve_relaxation",
]
