"""Exception types shared across the package."""


class PolynormalError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PolynormalError):
    """Operands live in spaces of different dimension."""


class NotSymmetric(PolynormalError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefinite(PolynormalError):
    """Matrix is not numerically positive definite: an entry that is not
    finite, a nonpositive computed eigenvalue, or a whitening residual
    above tolerance."""


class NegativeDensity(PolynormalError):
    """A density polynomial takes a value below the acceptance threshold.

    Carries the witness point and the value found there.
    """

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"density polynomial reaches {value:.6g} at {point}")


class ZeroIntegral(PolynormalError):
    """Constant Hermite coefficient is nonpositive; density cannot normalize."""


class ConditionFailed(PolynormalError):
    """The axis-leading coefficient condition does not hold."""


class NotEligible(PolynormalError):
    """Decomposition preconditions fail; carries the diagnosis."""

    def __init__(self, diagnosis):
        self.diagnosis = diagnosis
        super().__init__(f"not eligible for decomposition: {diagnosis.verdict}")


class ThetaInadmissible(PolynormalError):
    """The gate scan at theta does not show a nonnegative rescaled polynomial.

    Either the scan reached a value below the rescale tolerance
    (``negative``), or its minimum was not attained: still falling at the
    box fringe, it may go negative outside the box.  Carries the scan's
    point and value.
    """

    def __init__(self, value, point, negative):
        self.value = value
        self.point = point
        self.negative = negative
        if negative:
            reason = f"rescaled polynomial reaches {value:.6g} at {point}"
        else:
            reason = f"rescaled polynomial's scan minimum {value:.6g} at {point} is not attained"
        super().__init__(reason)


class NoAdmissibleTheta(PolynormalError):
    """No theta below 1 keeps the rescaled polynomial nonnegative."""


class NoWitnessFound(PolynormalError):
    """Negative-value scan exhausted its range without a hit."""

    def __init__(self, n_max):
        self.n_max = n_max
        super().__init__(f"no negative value found along the probe curve up to n={n_max}")
