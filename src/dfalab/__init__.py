"""dfalab: iterative data-flow analysis with iteration-bound verification.

The package parses a small textual IR into per-statement control flow
graphs, runs round-robin and worklist solvers over monotone
frameworks (constant propagation, faint variables, and three
bit-vector analyses), builds entity dependence graphs, and checks the
measured pass counts against two predicted bounds: 1 + d*H and
1 + delta + d.
"""

from .ir import (
    BinAssign,
    ConstAssign,
    ControlFlowGraph,
    CopyAssign,
    Diagnostic,
    InvalidProgramError,
    ParseError,
    Print,
    Program,
    ReadAssign,
    Skip,
    build_cfg,
    parse_program,
    serialize_program,
    validate_program,
)
from .cfg_metrics import (
    SearchBudgetExceeded,
    WeightTable,
    classify_back_edges,
    depth,
    max_backedge_acyclic_weight,
    traversal_order,
)
from .engine import (
    ComponentLattice,
    DivergenceError,
    EntitySpace,
    FrameworkInstance,
    ProductValue,
    SolveResult,
    TraceRecord,
    check_monotonicity,
    meet_product,
    product_height,
    round_robin_solve,
    worklist_solve,
)
from .analyses import (
    ANALYSIS_KINDS,
    BITVECTOR_KINDS,
    DefId,
    FAINT,
    NONCONST,
    NOT_FAINT,
    UNDEF,
    UseId,
    cp_transfer,
    fv_transfer,
    make_bitvector_framework,
    make_constant_propagation,
    make_faint_variables,
    make_framework,
)
from .edg import (
    EdgEdge,
    EntityDependenceGraph,
    EntityNode,
    MalformedPathError,
    PathCycle,
    PathSegment,
    StructuredPath,
    build_edg,
    check_monotonic_entity_dependence,
    degree_of_dependence,
    delta_vector,
    path_delta,
)
from .bounds import (
    BoundsRecord,
    CSV_HEADER,
    ProgramPipeline,
    edg_bound,
    emit_report,
    make_record,
    simplistic_bound,
)
from .generator import GeneratorConfig, generate_corpus, generate_program

__version__ = "0.1.0"
