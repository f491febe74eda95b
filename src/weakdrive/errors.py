"""Exception types shared across the package."""


class WeakdriveError(Exception):
    """Base class for all package errors."""


class DuplicatePositionError(WeakdriveError):
    """Two atoms occupy the same point; carries the offending index pair."""

    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"atoms {i} and {j} have identical positions")


class CoincidentAtomsError(WeakdriveError):
    """Pair coupling requested at zero separation."""


class ResonantSingularityError(WeakdriveError):
    """The steady-state linear system is singular or near-singular."""

    def __init__(self, delta: float, cond: float):
        self.delta = delta
        self.cond = cond
        super().__init__(
            f"linear system ill-conditioned at detuning delta={delta} "
            f"(condition estimate {cond:.3e})"
        )


class AsymmetricCouplingError(WeakdriveError):
    """The pair solve was handed a coupling matrix that is not symmetric;
    carries max|Z - Z^T| and max|Z|."""

    def __init__(self, asymmetry: float, scale: float):
        self.asymmetry = asymmetry
        self.scale = scale
        super().__init__(
            f"coupling matrix not symmetric: max|Z - Z^T| = {asymmetry:.3e} "
            f"against max|Z| = {scale:.3e}"
        )


class SolverConvergenceError(WeakdriveError):
    """A solve ended with its residual above the target; iterations counts
    the refinement steps taken (0 for a direct solve), or, for the GMRES
    of the exact steady state, the GMRES iterations spent, with residual
    the GMRES residual norm. unit names what iterations counts in the
    message."""

    def __init__(self, residual: float, iterations: int, unit: str = "refinement steps"):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"residual {residual:.3e} above target after {iterations} {unit}")


class ThresholdNotApplicableError(WeakdriveError):
    """Far-field bound undefined: D0 = 0 in bound_omega, sin(theta) = 0 in lmin_bound."""


class IlluminatedAtomError(WeakdriveError):
    """A dark-atom formula was called on a laser-driven atom."""


class CapExceededError(WeakdriveError):
    """Exact-solver system size above the hard cap."""


class PropagationError(WeakdriveError):
    """The propagated amplitudes overflow."""


class PartitionError(WeakdriveError):
    """Invalid subgroup partition (overlap, empty group, or out of range)."""


class ConfigError(WeakdriveError):
    """Configuration rejected; carries the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
