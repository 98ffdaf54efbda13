"""Numerical engine for extending jet fields off stratified closed sets,
with a verification harness for every contract the construction relies on:
jet-algebra identities, distance comparisons, cutoff plateau/support/derivative
bounds, extension agreement and flatness rates.
"""

__version__ = "0.1.0"

from .expr import ExprFn, differentiate, evaluate  # noqa: F401
from .jets import (PointJet, FieldSpec, jet_mul, jet_compose,  # noqa: F401
                   taylor_jet, multi_indices)
from .geometry import (Interval, Slab, GraphCell, PointCell,  # noqa: F401
                       SetDescriptor, distance_brackets, membership)
from .cutoff import (CutoffSpec, build_cutoff, verify_cutoff,  # noqa: F401
                     smooth_transition, regularized_distance)
from .extension import (Scene, Stratum, ExtensionFn, extend_field,  # noqa: F401
                        extend_on_cell, flatness_rate_probe)
from .verify import (finite_difference, whitney_residual, rate_fit,  # noqa: F401
                     check_extension)
