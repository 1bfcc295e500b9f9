"""Complete characterization of 4/p = 1/x + 1/y + 1/z over primes.

Witness search certifies solutions from a modular condition on
divisors of x*x; recovery maps any solution back to its unique
witness; an independent brute-force oracle cross-validates the
two-way correspondence; range scans verify that every prime admits
a solution and collect residue-class statistics; the report module
tabulates and plots the admissible offsets.
"""

from .arith import (
    Factorization,
    divisors,
    divisors_of_square,
    factorize,
    is_prime,
    primes_in_range,
)
from .errors import (
    ConsistencyError,
    CorrespondenceError,
    DomainError,
    ErdosStrausError,
    InvalidSolutionError,
    ResourceLimitError,
)
from .oracle import DEFAULT_CAP, solve_bruteforce
from .recover import (
    check_correspondence,
    check_correspondences,
    classify_solution,
    recover_witness,
)
from .report import (
    KTableRow,
    figure_points,
    k_table,
    k_table_csv,
    k_table_json,
    points_csv,
    render_scatter,
)
from .scan import (
    HARD_RESIDUES_840,
    ScanRecord,
    ScanReport,
    ScanStream,
    check_divisor_k_rule,
    check_k0_type1_rule,
    record_line,
    residue_stats,
    scan_primes,
    summary_line,
)
from .witness import (
    Solution,
    SolutionType,
    Witness,
    build_solution,
    check_type1,
    check_type2,
    enumerate_witnesses,
    first_witness,
    iter_witnesses,
    verify_identity,
    x_range,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Factorization",
    "divisors",
    "divisors_of_square",
    "factorize",
    "is_prime",
    "primes_in_range",
    "ErdosStrausError",
    "DomainError",
    "InvalidSolutionError",
    "ResourceLimitError",
    "ConsistencyError",
    "CorrespondenceError",
    "DEFAULT_CAP",
    "solve_bruteforce",
    "classify_solution",
    "recover_witness",
    "check_correspondence",
    "check_correspondences",
    "KTableRow",
    "k_table",
    "k_table_csv",
    "k_table_json",
    "figure_points",
    "points_csv",
    "render_scatter",
    "HARD_RESIDUES_840",
    "ScanRecord",
    "ScanReport",
    "ScanStream",
    "record_line",
    "summary_line",
    "scan_primes",
    "check_k0_type1_rule",
    "check_divisor_k_rule",
    "residue_stats",
    "SolutionType",
    "Witness",
    "Solution",
    "x_range",
    "check_type1",
    "check_type2",
    "iter_witnesses",
    "enumerate_witnesses",
    "first_witness",
    "build_solution",
    "verify_identity",
]
