"""Robust low-rank Hankel matrix recovery from partial, outlier-corrupted data.

Signals live in a reweighted vector form whose l2 norm matches the Frobenius
norm of the embedded Hankel matrix; all heavy operator work runs through
FFTs of one length, next_pow_two(n), in :mod:`hankelx.hankel`.  The main
entry points are :func:`run_hsnld` (the Newton-like preconditioned solver),
:func:`run_plain_gd` (an unpreconditioned baseline), and the generators in
:mod:`hankelx.signals`.  The package exports each module's ``__all__``.
"""

from .hankel import *
from .linalg import *
from .recovery import *
from .sampling import *
from .signals import *

__version__ = "0.1.0"
