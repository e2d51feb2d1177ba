"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Vectors or operators of incompatible dimensions were combined."""


class OperatorContractError(ValueError):
    """An operator broke its contract: its resolvent returned an image of the
    wrong shape."""


class RankDeficiencyError(ValueError):
    """A supposedly independent family of vectors is linearly dependent."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"vector at index {index} is linearly dependent on its predecessors")


class MonotonicityError(ValueError):
    """A candidate one-dimensional operator description is not nondecreasing."""


class OperatorFamilyError(TypeError):
    """An operation was applied to an operator outside its supported family."""


class NonFiniteIterateError(FloatingPointError):
    """The iteration produced NaN or infinite coordinates."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite values encountered at iteration {iteration}")


class PossiblyInconsistentError(RuntimeError):
    """A fixed point was requested but the step norm stagnated above tolerance.

    Carries the displacement estimate accumulated before giving up, which is
    the natural diagnostic when the underlying sum problem has no zeros.
    """

    def __init__(self, step_norm: float, v_estimate):
        self.step_norm = step_norm
        self.v_estimate = v_estimate
        super().__init__(
            f"no fixed point found: step norm stagnated at {step_norm:.3e}; "
            "the problem is possibly inconsistent (see v_estimate)"
        )


class ConfigError(ValueError):
    """Invalid scenario configuration (unknown name, bad parameter, bad path)."""
