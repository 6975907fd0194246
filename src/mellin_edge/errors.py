"""Exception types shared across the package."""


class MellinEdgeError(Exception):
    """Base class for all package errors."""


# --- transform layer ---

class TailTooLarge(MellinEdgeError):
    """Samples at the grid ends are too large; the truncated transform would alias."""


class NonFiniteInput(MellinEdgeError):
    pass


class GridMismatch(MellinEdgeError):
    pass


class PoleOnWeightLine(MellinEdgeError):
    def __init__(self, pole, distance, line_re):
        self.pole = pole
        super().__init__(
            "pole %s at distance %.3e from weight line Re z = %g"
            % (pole, distance, line_re)
        )


class LambdaOffGrid(MellinEdgeError):
    pass


class InsufficientDecay(MellinEdgeError):
    pass


# --- symbols ---

class EllipticityViolated(MellinEdgeError):
    pass


class DegenerateDenominator(MellinEdgeError):
    pass


# --- asymptotic types ---

class EmptyDomain(MellinEdgeError):
    pass


class WrongKind(MellinEdgeError):
    pass


class CoveringFailed(MellinEdgeError):
    def __init__(self, msg, y_interval=None):
        self.y_interval = y_interval
        super().__init__(msg)


# --- functionals ---

class PoleOnContour(MellinEdgeError):
    pass


class RepresentationInvalid(MellinEdgeError):
    pass


class NotDiscrete(MellinEdgeError):
    pass


class CarrierTooFarRight(MellinEdgeError):
    pass


# --- cone solver ---

class ResidualTooLarge(MellinEdgeError):
    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__("residual %.3e exceeds %.3e" % (residual, tol))


class PoleOnHarvestBoundary(MellinEdgeError):
    def __init__(self, pole, depth_used):
        super().__init__(
            "pole %s near harvest boundary; depth shrunk to %g" % (pole, depth_used)
        )


class CertificationFailed(MellinEdgeError):
    pass


# --- edge operators ---

class ScheduleDiverged(MellinEdgeError):
    pass


# --- cli ---

class ConfigError(MellinEdgeError):
    pass
