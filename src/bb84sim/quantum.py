"""Pure-state polarization math for a single two-level carrier.

A state is identified by its angle against the horizontal axis in the real
plane spanned by the horizontal and vertical rays.  Angles are reduced
modulo pi because a polarization state and its negation describe the same
ray.  Every outcome probability is then a squared cosine of an angle
difference.  The four signal states are the ray angles ``BQS``, and a
signal state is named by its code, an index into ``BQS``.  ``measure``
works on chosen pulses of a whole batch of sessions at once: each pulse
reads a row and a column of a table of thresholds computed once
(``bit0_thresholds``), and each outcome is a 53-bit key of the
measurement stage against ceil(p0 * 2**53) for the Born probability p0 of
bit 0, drawn by ``stream.decide`` with no cosine per pulse.  A threshold
of 0 or 2**53, such as an eigenstate of its basis, decides with no key.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAncillaError
from .stream import MEASURE, decide, threshold

# Two squared-overlap values closer than this count as one: far below the
# smallest gap between table entries (~0.18 for the default ancilla), far
# above double-precision noise.
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


def bit0_thresholds(
    angles: np.ndarray, basis_angles: np.ndarray = BASIS_ANGLES
) -> np.ndarray:
    """The receiver's bit-0 thresholds, as uint64: entry [k, b] is
    ceil(p0 * 2**53) for the Born probability p0 that the state at ray
    angle ``angles[k]`` measures bit 0 in the basis whose bit-0 eigenstate
    lies at ``basis_angles[b]``, cos^2 of their difference.  Probabilities
    within ``_EIGEN_SNAP`` of 0 or 1 count as exact, so eigenstates of the
    basis measure deterministically."""
    p0 = np.subtract.outer(np.asarray(angles, dtype=float), basis_angles)
    np.cos(p0, out=p0)
    p0 *= p0
    p0[p0 >= 1.0 - _EIGEN_SNAP] = 1.0
    p0[p0 <= _EIGEN_SNAP] = 0.0
    return threshold(p0)


def measure(
    thresholds: np.ndarray, states: np.ndarray, columns: np.ndarray,
    seeds: np.ndarray, n: int, positions: np.ndarray,
) -> np.ndarray:
    """Projective measurement of chosen pulses of a batch of sessions of
    ``n`` pulses each.

    Entry j, pulse ``positions[j]`` = s * n + i of the batch, reads the
    bit-0 threshold ceil(p0 * 2**53) at ``[states[j], columns[j]]`` of
    ``thresholds``, a column being a basis in a ``bit0_thresholds`` table
    and a sent state in ``ChannelTable.receiver``.  Its outcome is bit 1
    when key i of the measurement stage of ``seeds[s]`` reaches it, by
    ``stream.decide``, so a threshold of 0 or 2**53 reads no key.  Returns
    the bits as uint8; the state collapses onto the eigenstate of its bit.
    """
    # Entry [k, c] of a table is row k * width + c of it flattened, in the
    # smallest type that holds every row: one byte for a channel table.
    kind = np.min_scalar_type(thresholds.size - 1)
    rows = states.astype(kind)
    rows *= kind.type(thresholds.shape[1])
    rows += columns.astype(kind, copy=False)
    return decide(thresholds.reshape(-1, 1), rows, seeds, MEASURE, n,
                  positions)


@dataclass(frozen=True, slots=True)
class ReferenceList:
    """The squared overlaps of the signal states with an ancilla.

    ``match_values[code]`` is the squared overlap of ``BQS[code]`` with the
    ancilla at ray angle ``ancilla``.  The values are pairwise distinct,
    enforced by ``build_reference_list``, so an exact read of a carrier's
    overlap would identify its signal state: the oracle's premise.
    """

    ancilla: float
    match_values: tuple[float, ...]


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
