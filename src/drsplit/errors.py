"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Vectors or operators of incompatible dimensions were combined."""


class OperatorContractError(ValueError):
    """An operator broke its contract: its resolvent returned an image of the
    wrong shape."""


class RankDeficiencyError(ValueError):
    """A supposedly independent family of vectors is linearly dependent."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"vector at index {index} is linearly dependent on its predecessors")


class MonotonicityError(ValueError):
    """A candidate one-dimensional operator description is not nondecreasing."""


class OperatorFamilyError(TypeError):
    """An operation was applied to an operator outside its supported family."""


class NonFiniteIterateError(FloatingPointError):
    """The iteration produced NaN or infinite coordinates."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite values encountered at iteration {iteration}")


class UncertifiedFixedPointError(ValueError):
    """A reference fixed point could not be certified: it has non-finite
    coordinates, or its step norm exceeds the certificate, as a closed form
    evaluated at a start far out can."""


class ConfigError(ValueError):
    """Invalid scenario configuration (unknown name, bad parameter, bad path)."""
