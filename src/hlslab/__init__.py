"""hlslab: HLS groupoids from approximated free groups, at desk scale.

Builds concrete approximating sequences (finite quotient towers) for free
groups, the associated groupoid convolution algebra, certified operator
norm brackets for the fiber representations, and amenability certificate
checks.
"""

from .errors import DegenerateCertificateError, InputError, ResourceError
from .groupoid import (AmenabilityCertificate, FiberedFunction, HLSGroupoid,
                       adjoint_fibered, certificate_from_folner,
                       check_certificate, convolve_fibered, fd_norm_profile,
                       folner_from_certificate, infinity_norm_bracket,
                       reduced_norm_estimate, restrict_to_infinity, rho_norm,
                       standard_lift, tau_spectral_gap, truncation_lower_bound)
from .quotients import (ApproximatedGroup, FiniteQuotient,
                        enumerate_kernel_reps, kernel_refines)
from .spectral import NormBracket
from .words import GroupAlgebraElement, Word, ball

__all__ = [
    "AmenabilityCertificate", "ApproximatedGroup",
    "DegenerateCertificateError", "FiberedFunction", "FiniteQuotient",
    "GroupAlgebraElement", "HLSGroupoid", "InputError", "NormBracket",
    "ResourceError", "Word", "adjoint_fibered", "ball",
    "certificate_from_folner", "check_certificate", "convolve_fibered",
    "enumerate_kernel_reps", "fd_norm_profile", "folner_from_certificate",
    "infinity_norm_bracket", "kernel_refines", "reduced_norm_estimate",
    "restrict_to_infinity", "rho_norm", "standard_lift", "tau_spectral_gap",
    "truncation_lower_bound",
]
