"""Exception types shared across the package."""


class MaupError(Exception):
    """Base class for every error raised by this package."""


class FormatError(MaupError):
    """Tensor file is malformed (bad magic, header fields, or payload size)."""


class DataError(MaupError):
    """Tensor payload violates a value invariant (non-finite, non-binary)."""


class ShapeError(MaupError):
    """Operands have incompatible shapes or channel counts."""


class EmptyMaskError(MaupError):
    """A mask that must contain foreground pixels is empty."""


class EmptyPeripheryError(EmptyMaskError):
    """The periphery band around a support mask is empty."""


class SeedError(MaupError):
    """A partition seed is invalid (outside the foreground, or duplicated)."""


class EmptyStackError(MaupError):
    """A similarity stack that must be non-empty is empty."""


class EmptyCandidateError(MaupError):
    """No pixel survives a candidate threshold."""


class ClusterError(MaupError):
    """K-means broke its own invariant (its objective increased)."""


class OverlapError(MaupError):
    """A positive and a negative prompt share a pixel."""


class ConfigError(MaupError):
    """Prompt configuration is unusable (e.g. every prompting path disabled)."""


class SpecError(MaupError):
    """A phantom spec describes degenerate geometry (e.g. organ clipped away)."""
