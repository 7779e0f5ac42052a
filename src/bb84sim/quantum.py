"""Pure-state polarization math for a single two-level carrier.

A state is identified by its angle against the horizontal axis in the real
plane spanned by the horizontal and vertical rays.  Angles are reduced
modulo pi because a polarization state and its negation describe the same
ray.  Every outcome probability is then a squared cosine of an angle
difference.  The four signal states are the ray angles ``BQS``, and a
signal state is named by its code, an index into ``BQS``.  ``measure``
works on chosen pulses of a whole batch of sessions at once: each state is
an index into a table of thresholds that ``bit0_thresholds`` computes
once, and each outcome is a 53-bit key of the measurement stage against
ceil(p0 * 2**53) for the state's Born probability p0 of bit 0, with no
cosine per pulse.  A state whose threshold is 0 or 2**53, an eigenstate of
its basis, has its outcome fixed by ``settled_bits`` and reads no key.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAncillaError, NoMatchError
from .stream import MEASURE, key_blocks, threshold

# Tolerance for matching squared-overlap values: far below the smallest
# gap between table entries (~0.18 for the default ancilla), far above
# double-precision noise.
MATCH_TOL = 1e-9

# Outcome probabilities within this distance of 0 or 1 are treated as
# exact, so measuring a basis eigenstate is deterministic instead of being
# subject to ~1e-33 rounding residue in cos(pi/2)**2.
_EIGEN_SNAP = 1e-12

PI = math.pi

# The ``settled_bits`` entry of a state whose outcome a key decides.
RANDOM = 2


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


def settled_bits(thresholds: np.ndarray) -> np.ndarray:
    """For each entry of a threshold table from ``bit0_thresholds``, the
    bit its state always measures, as uint8: 0 for the threshold 2**53,
    which every key falls below, 1 for the threshold 0, which none does,
    and ``RANDOM`` for a threshold between them, whose outcome a key
    decides."""
    settled = np.full(thresholds.shape, RANDOM, dtype=np.uint8)
    settled[thresholds == threshold(1.0)] = 0
    settled[thresholds == 0] = 1
    return settled


def measure(
    thresholds: np.ndarray, settled: np.ndarray, states: np.ndarray,
    bases: np.ndarray, seeds: np.ndarray, n: int, positions: np.ndarray,
) -> np.ndarray:
    """Projective measurement of chosen pulses of a batch of sessions of
    ``n`` pulses each.

    Entry j is state ``states[j]`` of ``thresholds``, a table from
    ``bit0_thresholds``, measured in its basis ``bases[j]``, and it is
    pulse ``positions[j]`` = s * n + i of the batch.  Where ``settled``,
    the table's ``settled_bits``, fixes the outcome, the entry takes that
    bit and reads no key.  Otherwise it reads key i of the measurement
    stage of ``seeds[s]``, and the outcome is bit 0 when the key falls
    below the state's threshold: a 53-bit key against ceil(p0 * 2**53),
    the decision u >= p0 for bit 1 on the key's uniform u = k * 2**-53.
    Returns the outcome bits as uint8; the state collapses onto the
    eigenstate of its bit.  Keys are computed at most ``stream.BLOCK`` at
    a time.
    """
    # Entry [k, b] of a table is k * width + b of it flattened, in the
    # smallest type that holds every entry: one byte for a channel table.
    kind = np.min_scalar_type(thresholds.size - 1)
    index = states.astype(kind)
    index *= kind.type(thresholds.shape[1])
    index += bases.astype(kind, copy=False)
    bits = np.take(settled, index)
    drawn = np.flatnonzero(bits == RANDOM)
    for part, key in key_blocks(seeds, MEASURE, n,
                                np.take(positions, drawn)):
        at = drawn[part]
        bits[at] = key >= np.take(thresholds, np.take(index, at))
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
