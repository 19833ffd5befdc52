"""hlslab: HLS groupoids from approximated free groups, at desk scale.

Builds concrete approximating sequences (finite quotient towers) for free
groups, the associated groupoid convolution algebra, certified operator
norm brackets for the fiber representations, and amenability certificate
checks.
"""

from .errors import DegenerateCertificateError, InputError, ResourceError
from .groupoid import (AmenabilityCertificate, FiberedFunction, NormProfile,
                       adjoint_fibered, certificate_from_folner,
                       check_certificate, convolve_fibered,
                       folner_from_certificate, infinity_norm_bracket,
                       norm_profile, rho_norm, standard_lift,
                       tau_spectral_gap, truncation_lower_bound)
from .quotients import (ApproximatedGroup, FiniteQuotient,
                        enumerate_kernel_reps, kernel_refines)
from .spectral import NormBracket
from .words import GroupAlgebraElement, Word, ball

__all__ = [
    "AmenabilityCertificate", "ApproximatedGroup",
    "DegenerateCertificateError", "FiberedFunction", "FiniteQuotient",
    "GroupAlgebraElement", "InputError", "NormBracket", "NormProfile",
    "ResourceError", "Word", "adjoint_fibered", "ball",
    "certificate_from_folner", "check_certificate", "convolve_fibered",
    "enumerate_kernel_reps", "folner_from_certificate",
    "infinity_norm_bracket", "kernel_refines", "norm_profile", "rho_norm",
    "standard_lift", "tau_spectral_gap", "truncation_lower_bound",
]
