"""Exception types raised by the kinematics and trajectory layers."""


class KinematicsError(Exception):
    """Base class for all errors raised by this package."""


class ZeroElement(KinematicsError):
    """An operation received a dual quaternion that is numerically zero."""


class ZeroDirection(KinematicsError):
    """A line constructor received a direction vector of zero length."""


class StudyViolation(KinematicsError):
    """A dual quaternion or motion polynomial fails the Study condition."""


class DegenerateDisplacement(KinematicsError):
    """A dual quaternion with vanishing primal norm cannot act on points."""


class OnBorderOfDomain(KinematicsError):
    """A curve was evaluated at a parameter where its norm vanishes."""


class InvalidPose(KinematicsError):
    """A target pose is not a valid displacement."""


class NoConvergence(KinematicsError):
    """Inverse kinematics failed to reach the requested residual.

    The polished iterate is attached as :attr:`best`, an IKResult
    whose residual is above the requested one.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class PoleOnPath(KinematicsError):
    """The homogeneous coordinate of a point path vanishes inside the
    integration interval, so the Euclidean path escapes to infinity."""


class QuadratureFailure(KinematicsError):
    """Arc length could not be resolved to the requested tolerance.

    Raised when a quadrature panel still misses its tolerance at the
    maximum refinement depth, and when the inversion of arc length
    leaves a knot off its target length after the iteration cap.
    """


class ParseError(KinematicsError):
    """A mechanism or profile file could not be parsed at all."""


class SchemaError(KinematicsError):
    """A mechanism file parsed but does not match the expected schema."""
