"""rectpas: parameterized approximation schemes and kernels for rectangle
independence and rotating geometric knapsack, with exact brute-force
referees, a hardness-reduction generator, seeded instance generators and an
SVG renderer.
"""

from .geometry import (
    GknapInstance,
    Item,
    KernelReport,
    MisrInstance,
    Packing,
    Placement,
    Rect,
    ValidationResult,
    canonicalize_items,
    normalize_instance,
    rects_disjoint,
    validate_misr_solution,
    validate_packing,
)
from .planar import (
    Box,
    Division,
    EmbeddedGraph,
    Segment,
    VertexDrawing,
    apply_separator,
    balanced_separator,
    planarity_violations,
)
from .misr import (
    Grid,
    GridDichotomy,
    Grouping,
    build_G1,
    build_G2,
    build_grid,
    cell_index,
    cell_mask,
    kernel_misr,
    pas_misr,
    solve_cellset_subproblem,
    structured_solution,
)
from .gknap import (
    Classification,
    build_visibility_graph,
    classify_items,
    find_separating_path,
    free_strip,
    inflate_packing,
    kernel_2dkr,
    pas_2dkr,
    prune_to_kernel,
    push_up,
    solve_restricted,
)
from .oracles import (
    BudgetExceededError,
    OracleBudget,
    enumerate_cell_sets,
    knapsack_exact,
    mis_rectangles_exact,
    mss_exact,
    packing_feasible_exact,
)
from .hardness import (
    ReductionOutput,
    build_yes_packing,
    reduce_mss_to_2dkr,
    verify_construction_cases,
    verify_interval_bounds,
)
from .svg import render_svg

__version__ = "0.1.0"
