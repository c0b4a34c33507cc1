"""Exception hierarchy shared by all heckelab modules."""


class HeckeError(Exception):
    """Base class for all library errors."""


class CompositeCharacteristic(HeckeError):
    """Requested field characteristic is not prime."""


class ReducibleModulus(HeckeError):
    """Supplied modulus polynomial factors over the prime field."""


class NotPrimitive(HeckeError):
    """Field element does not generate the multiplicative group."""


class ZeroInverse(HeckeError):
    """Multiplicative inverse of zero requested."""


class CtxMismatch(HeckeError):
    """Operands belong to different field contexts."""


class KindMismatch(HeckeError):
    """Operands belong to different group kinds (or different q)."""


class WrongRegularity(HeckeError):
    """Orbit regularity does not match the requested model variant."""


class UnsupportedCharacteristic(HeckeError):
    """Operation requires p > 2 (or another excluded characteristic)."""


class VerificationFailure(HeckeError):
    """A model verification check failed; carries the first counterexample."""


class TruncationTooSmall(HeckeError):
    """Truncation degree too small for the requested exactness window."""


class RelationViolation(HeckeError):
    """Action matrices of a module violate a defining algebra relation."""


class ZeroLambda(HeckeError):
    """A nonzero specialisation parameter is required."""


class ComparisonFailure(HeckeError):
    """Computed algebra structure disagrees with the reference table."""


class EvenCharacteristic(HeckeError):
    """Scheme-side constructions require odd q."""


class UnsupportedKind(HeckeError):
    """Point or input not supported for this component/kind."""


class FinitePDModule(HeckeError):
    """Parameter map is undefined on finite-projective-dimension inputs."""


class WindowTooSmall(HeckeError):
    """DGA window is too short for the requested degree."""


class WindowMismatch(HeckeError):
    """DGA window intervals are incompatible."""


class ConfigError(HeckeError):
    """Invalid run configuration."""
