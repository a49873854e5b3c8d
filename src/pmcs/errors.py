"""Exception types shared across the package, and the rule that turns a
refusal into a value."""


class PmcsError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(PmcsError, RuntimeError):
    """A truncated computation did not converge (non-decaying tail, bad dimension)."""


class DegenerateStateError(PmcsError, ValueError):
    """The requested state is mathematically the zero vector."""


class ConfigError(PmcsError, ValueError):
    """A sweep configuration is malformed or inconsistent."""


def outcome(fn, *args):
    """fn(*args), or the PmcsError/ValueError it raised."""
    try:
        return fn(*args)
    except (PmcsError, ValueError) as exc:
        return exc
