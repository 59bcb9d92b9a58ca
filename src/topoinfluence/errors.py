"""Exception types shared across the package."""


class TopoInfluenceError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TopoInfluenceError, ValueError):
    """Malformed or inconsistent input: files, matrices, or parameters."""


class SizeCapError(TopoInfluenceError):
    """Exact enumeration was requested above the configured subset cap."""


class GenerationBudgetError(TopoInfluenceError):
    """Rejection sampling could not fill a class quota within its budget."""
