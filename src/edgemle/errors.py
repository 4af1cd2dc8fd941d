"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point left the open support of a density, or the density vanished there."""


class UnsupportedOrder(ValueError):
    """Derivative or expansion order outside the implemented range."""


class MomentDivergence(RuntimeError):
    """A moment functional has no value: its integrand overflows, diverges or does not settle."""

    def __init__(self, entry: str, note: str = ""):
        self.entry = entry
        msg = f"moment functional {entry!r} did not converge"
        if note:
            msg += f": {note}"
        super().__init__(msg)


class SingularInformation(ArithmeticError):
    """The mean second contrast derivative is numerically zero; the expansion is undefined."""


class NoConvergence(RuntimeError):
    """Iterative solver hit its iteration cap before meeting the tolerance."""


class InversionFailure(RuntimeError):
    """A quantile asked of a probability outside (0, 1) or above the mass of its CDF."""


class StudyAborted(RuntimeError):
    """Simulation study stopped early (solver failure rate above the cap)."""
