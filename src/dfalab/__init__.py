"""dfalab: iterative data-flow analysis with iteration-bound verification.

The package parses a small textual IR into per-statement control flow
graphs, runs round-robin and worklist solvers over monotone
frameworks (constant propagation, faint variables, and three
bit-vector analyses), builds entity dependence graphs, and checks the
measured pass counts against two predicted bounds: 1 + d*H and
1 + delta + d.

This module re-exports the entry points of the command line, the
benchmark and the README's library example, plus the error types;
everything else is imported from its own module.
"""

from .ir import (
    InvalidProgramError,
    ParseError,
    build_cfg,
    parse_program,
    serialize_program,
)
from .cfg_metrics import SearchBudgetExceeded
from .engine import DivergenceError, round_robin_solve, worklist_solve
from .analyses import ANALYSIS_KINDS, make_constant_propagation, make_framework
from .edg import degree_of_dependence, delta_vector
from .bounds import BoundsRecord, ProgramPipeline, emit_report
from .generator import GeneratorConfig, generate_corpus, generate_program

__version__ = "0.1.0"
