"""Robust low-rank Hankel matrix recovery from partial, outlier-corrupted data.

Signals live in a reweighted vector form whose l2 norm matches the Frobenius
norm of the embedded Hankel matrix; all heavy operator work runs through
FFTs of one length, next_pow_two(n), in :mod:`hankelx.hankel`.  The main
entry points are :func:`run_hsnld` (the Newton-like preconditioned solver),
:func:`run_plain_gd` (an unpreconditioned baseline), and the generators in
:mod:`hankelx.signals`.
"""

from .hankel import (
    HankelShape,
    WeightedSignal,
    antidiagonal_counts,
    hankel_adjoint_dense,
    hankel_dense,
    hankel_matmat,
    hankel_matvec,
    hankel_rmatmat,
    lowrank_to_signal,
    reweight,
    unweight,
)
from .linalg import (
    DegenerateGramError,
    TruncatedSVD,
    gram_inverse,
    truncated_svd,
)
from .recovery import (
    Factors,
    InitResult,
    IterationRecord,
    RecoveryConfig,
    RecoveryReport,
    SolverError,
    default_gamma,
    hsnld_step,
    project_incoherence,
    recovery_error,
    run_hsnld,
    run_plain_gd,
    spectral_init,
)
from .sampling import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ObservationPattern,
    SparseEstimate,
    keep_count,
    project_obs,
    sample_pattern,
    top_k_threshold,
)
from .signals import (
    ConditionEstimate,
    OutlierSpec,
    SpectralModel,
    condition_number,
    doa_signal,
    inject_outliers,
    load_signal,
    save_signal,
    spectral_signal,
)

__version__ = "0.1.0"
