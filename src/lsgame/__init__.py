"""Binary linear system games with an embedded conjugacy relation.

Builds the game family LS(r), the explicit group representation behind its
ideal quantum strategy, the full extended test and its correlation, and the
swap-isometry machinery that certifies the shared state numerically.
"""

from .errors import (
    DomainError,
    LsgameError,
    PreconditionError,
    ResourceError,
    StructuralError,
)
from .numtheory import PrimeParams, discrete_log, make_params
from .groups import build_conjugacy_triples
from .lsg import LinearSystem, build_linear_system, system_to_text
from .linalg import Basis, kron, op_norm, qft
from .representation import Rep, build_representation, key_unitaries, verify_representation
from .strategy import (
    Correlation,
    FullTest,
    Strategy,
    build_full_test,
    build_ideal_strategy,
    generate_correlation,
    ideal_table_values,
    table_deviation,
)
from .evaluation import correlation_distance, embedded_chsh_value, ls_winning_probability_from_correlation
from .isometry import SelfTestReport, selftest_report
from .robustness import (
    PerturbationSpec,
    SweepRecord,
    certify,
    fit_bound,
    perturb_strategy,
    records_to_csv,
    relation_residuals,
    run_sweep,
)

__version__ = "0.1.0"
