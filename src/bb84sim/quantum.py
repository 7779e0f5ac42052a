"""Pure-state polarization math for a single two-level carrier.

A state is identified by its angle against the horizontal axis in the real
plane spanned by the horizontal and vertical rays.  Angles are reduced
modulo pi because a polarization state and its negation describe the same
ray.  Every outcome probability is then a squared cosine of an angle
difference.  The four signal states are the ray angles ``BQS``, and a
signal state is named by its code, an index into ``BQS``.  ``measure``
works on a whole batch of sessions at once, given as an array of ray
angles with one row per session.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAncillaError, NoMatchError
from .stream import BLOCK, Words, uniforms

# Tolerance for matching squared-overlap values: far below the smallest
# gap between table entries (~0.18 for the default ancilla), far above
# double-precision noise.
MATCH_TOL = 1e-9

# Outcome probabilities within this distance of 0 or 1 are treated as
# exact, so measuring a basis eigenstate is deterministic instead of being
# subject to ~1e-33 rounding residue in cos(pi/2)**2.
_EIGEN_SNAP = 1e-12

PI = math.pi


def reduce_angle(theta: float) -> float:
    """Map an angle to its canonical ray representative in [0, pi)."""
    theta = math.fmod(theta, PI) + 0.0  # + 0.0 turns -0.0 into 0.0
    if theta < 0.0:
        theta += PI
    if theta >= PI:  # guards the rounding case fmod(-tiny) + pi == pi
        theta = 0.0
    return theta


# The agreed signal alphabet as ray angles, in the conventional table
# order: horizontal, vertical, then the two diagonals.  A signal state is
# its code, an index into ``BQS``: ``2 * basis + bit``.
BQS = (0.0, PI / 2, PI / 4, 3 * PI / 4)

# Bit-0 eigenstate angle of each basis: index 0 rectilinear, 1 diagonal.
BASIS_ANGLES = np.array(BQS[::2])

DEFAULT_ANCILLA_ANGLE = PI / 6


def squared_overlap(a: float, b: float) -> float:
    """Squared inner product of the states at ray angles ``a`` and ``b``:
    the probability that measuring one projects it onto the other."""
    return math.cos(a - b) ** 2


def measure(
    angles: np.ndarray, basis_angles: np.ndarray | float, words: Words
) -> np.ndarray:
    """Projective measurement of a batch of states, one row per session.

    ``angles[s, i]`` is the ray angle of state i of session s, measured in
    the basis whose bit-0 eigenstate lies at ``basis_angles[s, i]`` (a
    scalar serves every state).  Row s draws one uniform u per state from
    row s of ``words``, and the outcome is bit 0 when u falls below the
    Born probability of bit 0.  Probabilities within ``_EIGEN_SNAP`` of 0
    or 1 count as exact, so eigenstates of the basis measure
    deterministically.  Returns the outcome bits as uint8; state [s, i]
    collapses onto the eigenstate at ``basis_angles[s, i] + bits[s, i] *
    pi/2``.  The states are taken ``BLOCK`` at a time along each row,
    which bounds the temporaries without changing the draws.
    """
    angles = np.asarray(angles, dtype=float)
    basis_angles = np.broadcast_to(basis_angles, angles.shape)
    bits = np.empty(angles.shape, dtype=np.uint8)
    n = angles.shape[1]
    for start in range(0, n, BLOCK):
        block = np.s_[:, start : start + BLOCK]
        p0 = np.subtract(angles[block], basis_angles[block])
        np.cos(p0, out=p0)
        p0 *= p0
        p0[p0 >= 1.0 - _EIGEN_SNAP] = 1.0
        p0[p0 <= _EIGEN_SNAP] = 0.0
        np.greater_equal(
            uniforms(words, p0.shape[1]), p0, out=bits[block],
            casting="unsafe",
        )
    return bits


@dataclass(frozen=True, slots=True)
class ReferenceList:
    """One-to-one table from squared ancilla overlaps to signal codes.

    ``match_values[code]`` is the squared overlap of ``BQS[code]`` with the
    ancilla at ray angle ``ancilla``.  Valid tables have pairwise-distinct
    match values, enforced at construction, so an exact-match lookup
    identifies the code.
    """

    ancilla: float
    match_values: tuple[float, ...]

    def lookup(self, match_value: float) -> int:
        """Code whose match value agrees within ``MATCH_TOL``."""
        for code, value in enumerate(self.match_values):
            if abs(value - match_value) <= MATCH_TOL:
                return code
        raise NoMatchError(
            f"value {match_value!r} does not match any table entry"
        )


def build_reference_list(ancilla_angle: float) -> ReferenceList:
    """Tabulate the squared overlaps of the signal states against the
    ancilla at ``ancilla_angle``.

    Raises ``DegenerateAncillaError`` when two values coincide within
    ``MATCH_TOL``: such an ancilla cannot distinguish the signal set (for
    example a horizontal ancilla sees both diagonal states at value 1/2).
    """
    ancilla = reduce_angle(ancilla_angle)
    values = tuple(squared_overlap(ancilla, state) for state in BQS)
    for i, first in enumerate(values):
        for j in range(i + 1, len(values)):
            if abs(first - values[j]) <= MATCH_TOL:
                raise DegenerateAncillaError(
                    f"ancilla at angle {ancilla!r} maps states at "
                    f"{BQS[i]!r} and {BQS[j]!r} to the same value {first!r}"
                )
    return ReferenceList(ancilla=ancilla, match_values=values)
