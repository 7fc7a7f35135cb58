"""Exception types shared across the toolkit."""


class CkfieldError(Exception):
    """Base class for all toolkit errors."""


class FrameUndefined(CkfieldError):
    """Requested frame data at a point where w or |Y| is below threshold."""


class ZeroField(CkfieldError):
    """All field parameters vanish."""


class NotSimpleRotation(CkfieldError):
    """Parameters violate the X . curl X = 0 conditions beyond tolerance."""


class UnknownIdentity(CkfieldError, KeyError):
    """Identity id not present in the registry."""


class NotAdmissible(CkfieldError):
    """Field has isolated fixed points; integral curves are out of scope."""


class NotClosed(CkfieldError):
    """Operation requires a closed integral curve."""


class BlowUp(CkfieldError):
    """Integral curve left the escape radius (finite-time blow-up)."""


class NotParallel(CkfieldError):
    """Potential's field is not parallel to the given conformal Killing field."""


class SupportViolation(CkfieldError):
    """Test spinor is non-negligible on the quadrature box boundary or near {w=0}."""


class ConstructionFailed(CkfieldError):
    """A self-certifying construction failed its own verification."""


class NoConvergence(CkfieldError):
    """Iterative eigensolver did not reach the requested tolerance."""


class FreeZeroMode(CkfieldError):
    """The A = 0 grid operator has an exact zero mode (odd n).

    An odd-dimensional antisymmetric difference matrix is singular, so the
    free floor sigma_free is 0 and the free inverse does not exist.
    """

    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"n = {n} is odd: the free difference matrix has a zero "
            f"eigenvalue, so sigma_free = 0 and (M0^2)^-1 is undefined; "
            f"use an even n")


class IntegrationFailed(CkfieldError):
    """The ODE integrator stopped before reaching the end of its interval."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"integrator failed (status {status}): {message}")


class SectorMismatch(CkfieldError):
    """The two spin sectors' monodromies disagree beyond tolerance."""

    def __init__(self, mismatch: float, tol: float):
        self.mismatch = mismatch
        self.tol = tol
        super().__init__(f"sector monodromies disagree: |m+ - m-| = "
                         f"{mismatch:.3e} > SECTOR_TOL = {tol:.1e}")


class GridTooLarge(CkfieldError):
    """Requested grid exceeds the configured memory cap."""
