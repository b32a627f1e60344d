"""Exception types shared across the package."""


class AeboundError(Exception):
    """Base class for all package-specific errors."""


class ParseError(AeboundError):
    """Malformed input data (bad CSV cell, duplicate timestamp, ...)."""


class SchemaError(AeboundError):
    """CSV schema does not match the file (missing columns, ...)."""


class InsufficientDataError(AeboundError):
    """Not enough observed values to perform the operation."""


class WindowError(AeboundError):
    """Requested window does not fit the available data."""


class DegenerateDataError(AeboundError):
    """Data is constant where variation is required (sigma would be 0)."""


class FormatError(AeboundError):
    """Corrupt or inconsistent serialized data."""


class UnsupportedVersionError(FormatError):
    """Serialized data written by a newer format version."""


class RangeError(AeboundError):
    """Value outside the representable fixed-point range."""
