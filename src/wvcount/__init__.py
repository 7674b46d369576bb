"""World-view counting for ground epistemic logic programs.

Counting and probabilistic acceptance run by nested dynamic programming
over tree decompositions of graph abstractions, with brute-force
enumeration as base solver and verification oracle.
"""

from .backends import BackendConfig, ExternalBackend, InternalBackend, StackedBackend
from .dp import (
    RunStats,
    Thresholds,
    acceptance_probability,
    choose_abstraction,
    count_plausible,
    count_world_views,
)
from .errors import (
    BackendError,
    BackendTimeout,
    BruteForceCapExceeded,
    NoWorldViews,
    NotPlainError,
    ParseError,
    WvcountError,
)
from .kernel import kernel_name
from .model import EMPTY_WVI, AtomTable, Epistemic, Literal, Objective, Program, Rule, WVI
from .parser import parse_program, parse_query, program_to_text
from .semantics import (
    answer_sets,
    check_compatibility,
    cnf_to_elp,
    count_world_views_bruteforce,
    enumerate_world_views,
    epistemic_reduct,
    gl_reduct,
    is_plausible,
    probability_bruteforce,
    with_query_constraints,
    with_wvi_constraints,
)

__version__ = "0.1.0"
