"""Exception types shared across the toolkit."""


class SlrmaError(Exception):
    """Base class for all toolkit failures."""


class NonSymmetricError(SlrmaError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NoConvergenceError(SlrmaError):
    """An internal eigen/SVD iteration hit its iteration cap."""


class SizeOverflowError(SlrmaError):
    """Kronecker product would exceed the configured element budget."""


class SingularShiftError(SlrmaError):
    """2*rho coincides with a squared singular value; caller must perturb rho."""


class BadLevelsError(SlrmaError):
    """Wavelet level count incompatible with the signal length."""


class DisconnectedError(SlrmaError):
    """Graph is not connected; its transform is not well defined here."""


class RankTooLargeError(SlrmaError):
    """Requested rank exceeds min(m, n)."""


class NotConvergedError(SlrmaError):
    """Solver could not produce a usable iterate."""


class CorruptStreamError(SlrmaError):
    """Entropy-coded payload is truncated or malformed."""


class BadMagicError(SlrmaError):
    """Container does not start with the expected magic bytes."""


class VersionUnsupportedError(SlrmaError):
    """Container version is not understood by this build."""


class DigestMismatchError(SlrmaError):
    """Decoder-side mesh connectivity does not match the encoded digest."""


class FormatError(SlrmaError):
    """File violates the PGM/OFF subset this toolkit reads."""


class DimensionMismatchError(SlrmaError):
    """Images in one set do not share a single resolution."""


class ConnectivityMismatchError(SlrmaError):
    """Mesh frames do not share one vertex count and face list."""


class ShapeMismatchError(SlrmaError):
    """Operands do not have the shapes an operation requires."""


class InfinitePsnrError(SlrmaError):
    """PSNR is unbounded because the reconstruction is exact."""


class DegenerateSequenceError(SlrmaError):
    """Mesh sequence equals its per-frame centroids; KG error undefined."""
