"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI: check failure -> 1, InputError -> 2,
ResourceError -> 3.  A spectral solve that stops short of its requested
width is not an error: its bracket stays valid and carries converged
False.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad generator index, rank
    mismatch, ...)."""


class ResourceError(RuntimeError):
    """A configured cap would be exceeded (ball size, fiber order,
    homomorphism enumeration level).  The message names the cap."""


class DegenerateCertificateError(InputError):
    """Certificate with zero mass at the infinity fiber."""
