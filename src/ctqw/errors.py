"""Exception types shared across the package.

Class names double as the stable error identifiers printed by the CLI,
so they deliberately omit the conventional ``Error`` suffix.
"""


class CtqwError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(CtqwError):
    """Parameters outside the supported range for a constructor or family."""


class InvalidEdge(CtqwError):
    """Edge endpoint out of range, or a self-loop."""


class DisconnectedGraph(CtqwError):
    """The vertex set is not connected; stratification is undefined."""


class InvalidEdgeList(CtqwError):
    """Edge-list file missing or malformed."""


class NotDistanceRegular(CtqwError):
    """Intersection numbers are not constant; carries a witness.

    ``witness`` is ``(distance, kind, (u1, v1, count1), (u2, v2, count2))``
    where ``kind`` is one of ``"b"``, ``"a"``, ``"c"`` and the two ordered
    vertex pairs at the given distance produced different counts.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class PoleProximity(CtqwError):
    """Evaluation point too close to a pole of the Stieltjes function."""


class EigensolverFailure(CtqwError):
    """Tridiagonal eigensolver did not converge."""


class UnknownFamily(CtqwError):
    """Graph family name not in the catalog."""


class UnwritableOutput(CtqwError):
    """The output path cannot be opened or written."""
