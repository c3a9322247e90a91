"""Exception types shared across the toolkit."""


class SlrmaError(Exception):
    """Base class for all toolkit failures."""


class NonSymmetricError(SlrmaError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class SizeOverflowError(SlrmaError):
    """A size or a quantized level exceeds what the codec bounds or stores."""


class BadLevelsError(SlrmaError):
    """Wavelet level count incompatible with the signal length."""


class DisconnectedError(SlrmaError):
    """Graph is not connected; its transform is not well defined here."""


class RankTooLargeError(SlrmaError):
    """Requested rank exceeds min(m, n)."""


class NotConvergedError(SlrmaError):
    """A solve, or a LAPACK eigen/SVD iteration, did not converge."""


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
