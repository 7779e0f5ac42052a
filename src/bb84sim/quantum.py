"""Pure-state polarization math for a single two-level carrier.

A state is identified by its angle against the horizontal axis in the real
plane spanned by the horizontal and vertical rays.  Angles are reduced
modulo pi because a polarization state and its negation describe the same
ray.  Every overlap and outcome probability is then a cosine of an angle
difference.  ``measure`` works on a whole batch of sessions at once, given
as an array of ray angles with one row per session.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateAncillaError, NoMatchError
from .stream import BLOCK, Words, uniforms

# Tolerance for identifying states/overlap values: far below the smallest
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
    theta = math.fmod(theta, PI)
    if theta < 0.0:
        theta += PI
    if theta >= PI:  # guards the rounding case fmod(-tiny) + pi == pi
        theta = 0.0
    return theta


def ray_distance(a: float, b: float) -> float:
    """Angular distance between two rays (symmetric, in [0, pi/2])."""
    d = abs(reduce_angle(a) - reduce_angle(b))
    return min(d, PI - d)


@dataclass(frozen=True, slots=True)
class QuantumState:
    """A pure polarization state, parameterized by its ray angle.

    The implicit amplitudes against the horizontal/vertical pair are
    (cos(angle), sin(angle)), so unit norm always holds.
    """

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", reduce_angle(self.angle))


@dataclass(frozen=True)
class Basis:
    """An orthogonal pair of states; the index into ``angles`` is the bit
    value the state encodes."""

    label: str
    angles: tuple[float, float]
    states: tuple[QuantumState, QuantumState] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        reduced = (reduce_angle(self.angles[0]), reduce_angle(self.angles[1]))
        if abs(abs(reduced[0] - reduced[1]) - PI / 2) > MATCH_TOL:
            raise ValueError(
                f"basis states must be orthogonal, got angles {reduced}"
            )
        object.__setattr__(self, "angles", reduced)
        object.__setattr__(
            self, "states", (QuantumState(reduced[0]), QuantumState(reduced[1]))
        )

    def angle(self, bit: int) -> float:
        return self.angles[bit]

    def state(self, bit: int) -> QuantumState:
        return self.states[bit]


RECTILINEAR = Basis("rectilinear", (0.0, PI / 2))
DIAGONAL = Basis("diagonal", (PI / 4, 3 * PI / 4))
BASES = (RECTILINEAR, DIAGONAL)

# The agreed signal alphabet, in the conventional table order:
# horizontal, vertical, then the two diagonals.
BQS = (
    RECTILINEAR.state(0),
    RECTILINEAR.state(1),
    DIAGONAL.state(0),
    DIAGONAL.state(1),
)

# Bit-0 eigenstate angle of each basis, indexed like ``BASES``.
BASIS_ANGLES = np.array([basis.angles[0] for basis in BASES])

DEFAULT_ANCILLA_ANGLE = PI / 6


def ancilla_basis(theta: float) -> Basis:
    """Orthogonal measurement pair aligned with an ancilla at ``theta``."""
    return Basis("ancilla", (theta, theta + PI / 2))


def encode(bit: int, basis: Basis) -> QuantumState:
    """Signal state for a bit under the fixed coding scheme (bit 0 maps to
    the first basis angle, bit 1 to the second)."""
    return basis.states[bit]


def decode(state: QuantumState) -> tuple[int, Basis]:
    """Invert :func:`encode`; raises ``NoMatchError`` off the alphabet."""
    for basis in BASES:
        for bit in (0, 1):
            if ray_distance(state.angle, basis.angles[bit]) <= MATCH_TOL:
                return bit, basis
    raise NoMatchError(f"state at angle {state.angle!r} is not a signal state")


def overlap(a: QuantumState, b: QuantumState) -> float:
    """Inner product of two states, cos of their angle difference."""
    return math.cos(a.angle - b.angle)


def squared_overlap(a: QuantumState, b: QuantumState) -> float:
    return math.cos(a.angle - b.angle) ** 2


def born_probability(state: QuantumState, outcome_angle: float) -> float:
    """Probability that a projective measurement projects ``state`` onto
    the eigenstate at ``outcome_angle``."""
    return math.cos(state.angle - outcome_angle) ** 2


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
class ReferenceEntry:
    state: QuantumState
    match_value: float  # squared overlap with the ancilla


@dataclass(frozen=True, slots=True)
class ReferenceList:
    """One-to-one table from squared ancilla overlaps to signal states.

    Valid tables have pairwise-distinct match values, enforced at
    construction, so an exact-match lookup identifies the state.
    """

    ancilla: QuantumState
    entries: tuple[ReferenceEntry, ...]

    def match_values(self) -> tuple[float, ...]:
        return tuple(entry.match_value for entry in self.entries)

    def states(self) -> tuple[QuantumState, ...]:
        return tuple(entry.state for entry in self.entries)

    def lookup(self, match_value: float) -> QuantumState:
        """State whose match value agrees within ``MATCH_TOL``."""
        for entry in self.entries:
            if abs(entry.match_value - match_value) <= MATCH_TOL:
                return entry.state
        raise NoMatchError(
            f"value {match_value!r} does not match any table entry"
        )


def build_reference_list(
    ancilla: QuantumState, signal_states: Sequence[QuantumState] = BQS
) -> ReferenceList:
    """Tabulate squared overlaps of ``signal_states`` against ``ancilla``.

    Raises ``DegenerateAncillaError`` when two entries coincide within
    ``MATCH_TOL``: such an ancilla cannot distinguish the signal set (for
    example a horizontal ancilla sees both diagonal states at value 1/2).
    """
    if not signal_states:
        raise ValueError("signal_states must be non-empty")
    entries = tuple(
        ReferenceEntry(state, squared_overlap(ancilla, state))
        for state in signal_states
    )
    for i, first in enumerate(entries):
        for second in entries[i + 1 :]:
            if abs(first.match_value - second.match_value) <= MATCH_TOL:
                raise DegenerateAncillaError(
                    f"ancilla at angle {ancilla.angle!r} maps states at "
                    f"{first.state.angle!r} and {second.state.angle!r} to the "
                    f"same value {first.match_value!r}"
                )
    return ReferenceList(ancilla=ancilla, entries=entries)
