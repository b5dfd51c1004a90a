"""The base of the package's domain errors."""


class KernelcastError(ValueError):
    """Bad input data or parameters, as opposed to a bug; a search records it as a failed configuration."""
