"""Exception hierarchy shared across the package."""


class MultishiftError(Exception):
    """Base class for all package-specific failures."""


class SpecError(MultishiftError):
    """A shift-space description is malformed or violates an invariant."""


class HorizonExceeded(MultishiftError):
    """A gap-set shift was queried beyond its tabulated horizon."""


class UndecidableProperty(MultishiftError):
    """The requested property cannot be decided from the given description."""


class InadmissiblePattern(MultishiftError):
    """A word or pattern is not realized by any point of the space.

    ``detail`` names the offending coordinate chain when known.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class PreconditionFailed(MultishiftError):
    """A constructor was called on a space lacking the property it needs."""


class NoCoprimePrime(MultishiftError):
    """Every prime of the requested modulus divides the chain base.

    Signals the caller to switch to the power-modulus construction.
    """


class ConnectorNotFound(MultishiftError):
    """No common connector offset was found within the search bound."""


class CertificateFailed(MultishiftError):
    """A constructor built no prefix for its certificate, or the verifier rejected the certificate."""


class OutputGuardExceeded(MultishiftError):
    """An enumeration would produce more output than the configured cap."""
