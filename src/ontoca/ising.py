"""Multipartite two-state (Ising) spin models evolving by phased permutations.

Spin configurations live on a graph: one bit per vertex, and for the
edge-gated model one bit per edge.  A configuration is its basis index,
vertex bits low and edge bits high (bit k = vertex k, bit N + e = edge
number e; bit value 1 means spin up), and an orbit is a list of
(index, phase exponent) int pairs.  Every one-step map
here sends a basis state to exactly one basis state times a fourth root of
unity, so phases are tracked as integer exponents of i and the dynamics
never leaves the configuration basis.  Such a map is a `PhasedPermutation`:
an index array and a phase-exponent array over all 2**bits basis states.
Each constructor below is one array expression over the basis indices
x = 0 .. 2**bits - 1, and every operation on the type is fancy indexing.

Model B (the edge-gated transfer map followed by an edge-spin rule) never
moves an edge bit by vertex bits, so its edge rules are phased permutations
of the 2**E edge-bit patterns only, and one step of an orbit is a table
lookup and an XOR.  The 2**bits tables of the same maps are lifts of these,
kept for the composition APIs and as the reference route in the tests.

Two update families are provided:

  * pair flips driven by an external schedule that activates exactly one
    edge per step (coefficient restricted to +1/-1; anything else would
    rescale states and break the permutation property), and
  * an edge-gated transfer map where every edge whose own spin is up flips
    its two vertex spins simultaneously, all factors commuting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    EdgeNotInTopology,
    NotPermutation,
    ScheduleExhausted,
)
from .gaussian import _exact_int

DEFAULT_MAX_BITS = 24
# ising-b runs the exponential-form check and the exact identity up to this many
# vertex + edge bits.  The identity composes 2**bits tables; the check itself
# accepts DEFAULT_MAX_BITS.
EXPONENTIAL_FORM_MAX_BITS = 12
# Entries per block of pattern rows in the exponential-form check (at least one
# row of 2**V): 512 KiB of int64, so a block's temporaries stay in cache.
EXPONENTIAL_FORM_BLOCK = 1 << 16

Edge = tuple[int, int]


# =============================================================================
# Topologies and basis indices
# =============================================================================


def _sorted_pair(i, j) -> Edge:
    """Two vertex labels as exact ints, smaller first; a bool, float or string
    raises TypeError."""
    i, j = _exact_int(i, "edge endpoint"), _exact_int(j, "edge endpoint")
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class GraphTopology:
    """Vertices 0..N-1 plus an ordered list of undirected edges (i < j)."""

    n_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n_vertices = _exact_int(self.n_vertices, "n_vertices", 2)
        seen = set()
        norm = []
        for i, j in self.edges:
            i, j = _sorted_pair(i, j)
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if i < 0 or j >= n_vertices:
                raise ValueError(f"edge ({i},{j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            norm.append((i, j))
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_bits(self) -> int:
        return self.n_vertices + self.n_edges

    def edge_number(self, edge: Edge) -> int:
        i, j = _sorted_pair(*edge)
        try:
            return self.edges.index((i, j))
        except ValueError:
            raise EdgeNotInTopology(f"edge ({i},{j}) not in topology") from None

    def vertex_mask(self, edge: Edge) -> int:
        i, j = edge
        return (1 << i) | (1 << j)

    @classmethod
    def fully_connected(cls, n: int) -> "GraphTopology":
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def ring(cls, n: int) -> "GraphTopology":
        edges = {tuple(sorted((k, (k + 1) % n))) for k in range(n)}
        return cls(n, tuple(sorted(edges)))

    @classmethod
    def path(cls, n: int) -> "GraphTopology":
        return cls(n, tuple((k, k + 1) for k in range(n - 1)))


def _table_bits(topology: GraphTopology, part: str = "vertex + edge bits") -> int:
    """The k of every 2**k table here, over the "vertices", the "edges" or the
    "vertex + edge bits" of `topology`; DimensionOverflow past DEFAULT_MAX_BITS."""
    bits = {"vertices": topology.n_vertices, "edges": topology.n_edges,
            "vertex + edge bits": topology.total_bits}[part]
    if bits > DEFAULT_MAX_BITS:
        raise DimensionOverflow(f"{bits} {part} exceed the {DEFAULT_MAX_BITS}-bit limit")
    return bits


def _start_index(index, bits: int) -> int:
    """A start state: an exact int basis index in [0, 2**bits)."""
    index = _exact_int(index, "start")
    if not 0 <= index < 1 << bits:
        raise ValueError(f"basis index {index} out of range for {bits} bits")
    return index


# =============================================================================
# Phased permutations
# =============================================================================


PHASES = np.array((1 + 0j, 1j, -1 + 0j, -1j))  # i**k


def _phased(target: np.ndarray, phase_exponent: np.ndarray) -> "PhasedPermutation":
    """Wrap arrays that already form a bijection, such as a composition or
    inverse of validated bijections.

    `target` must be a fresh intp array and `phase_exponent` a fresh uint8
    array, which is reduced mod 4 in place (a sum or negation of uint8 phases
    wraps mod 256, a multiple of 4); the bijection check and the copies of the
    public constructor are skipped.
    """
    perm = object.__new__(PhasedPermutation)
    phase_exponent &= 3
    target.flags.writeable = False
    phase_exponent.flags.writeable = False
    object.__setattr__(perm, "target", target)
    object.__setattr__(perm, "phase_exponent", phase_exponent)
    return perm


def _int_array(values, name: str) -> np.ndarray:
    """`values` as a numpy array of an integer dtype, or of Python ints (object
    dtype) where they leave int64.  Any other element type (bool, float,
    complex, str) raises TypeError naming the field, instead of being
    truncated; an empty sequence holds no value to coerce and is accepted."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" or arr.size == 0:
        return arr
    if not isinstance(values, np.ndarray):
        # numpy reads ints from both the int64 and the uint64-only range as float64
        arr = np.array(values, dtype=object)
    if arr.dtype != object:
        raise TypeError(f"{name} must hold integers, got dtype {arr.dtype}")
    for v in arr.flat:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"{name} must hold integers, got {v!r}")
    return arr


@dataclass(frozen=True, eq=False)
class PhasedPermutation:
    """Bijection on basis indices with a fourth-root-of-unity phase per index.

    Basis index x goes to i**phase_exponent[x] times index target[x].  Both
    fields are read-only numpy arrays: `target` of dtype intp and
    `phase_exponent` of dtype uint8, reduced mod 4.  Arrays or sequences of
    integers are accepted on construction and copied; any other element type
    raises TypeError.
    """

    target: np.ndarray
    phase_exponent: np.ndarray

    def __post_init__(self):
        target = _int_array(self.target, "target")
        phase = _int_array(self.phase_exponent, "phase_exponent")
        if target.ndim != 1 or phase.shape != target.shape:
            raise DimensionMismatch("target and phase arrays differ in length")
        size = target.size
        # bounds first: the scatter below would wrap a negative index
        if size and not (0 <= target.min() and target.max() < size):
            raise NotPermutation("target map leaves the basis indices")
        target = target.astype(np.intp)
        # in bounds, N indices hit all N slots iff no two coincide
        hit = np.zeros(size, dtype=bool)
        hit[target] = True
        if not hit.all():
            raise NotPermutation("target map is not a bijection on basis indices")
        if phase.dtype == object:
            phase = phase & 3  # Python ints past int64 cannot be cast to uint8
        # the cast wraps mod 256, a multiple of 4
        phase = phase.astype(np.uint8)
        phase &= 3
        target.flags.writeable = False
        phase.flags.writeable = False
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "phase_exponent", phase)

    def __eq__(self, other):
        if not isinstance(other, PhasedPermutation):
            return NotImplemented
        return np.array_equal(self.target, other.target) and np.array_equal(
            self.phase_exponent, other.phase_exponent
        )

    @property
    def size(self) -> int:
        return self.target.size

    def apply(self, index: int) -> tuple[int, int]:
        """Image and phase exponent of one basis index, as Python ints.  The
        index is an exact int in [0, size); anything else raises."""
        if _exact_int(index, "index", 0) >= self.size:
            raise ValueError(f"index must be < {self.size}, got {index}")
        return int(self.target[index]), int(self.phase_exponent[index])

    @classmethod
    def identity(cls, size: int) -> "PhasedPermutation":
        return _phased(np.arange(size, dtype=np.intp), np.zeros(size, dtype=np.uint8))

    def compose_after(self, inner: "PhasedPermutation") -> "PhasedPermutation":
        """self o inner: apply `inner` first, then self."""
        if inner.size != self.size:
            raise DimensionMismatch(f"sizes differ: {self.size} vs {inner.size}")
        return _phased(
            self.target[inner.target],
            inner.phase_exponent + self.phase_exponent[inner.target],
        )

    def inverse(self) -> "PhasedPermutation":
        """Also the conjugate transpose, since all phases are unit modulus."""
        target = np.empty_like(self.target)
        target[self.target] = np.arange(self.size)
        # uint8 negation wraps mod 256, a multiple of 4
        return _phased(target, -self.phase_exponent[target])

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=complex)
        m[self.target, np.arange(self.size)] = PHASES[self.phase_exponent]
        return m

    def is_unitary(self) -> bool:
        return self.compose_after(self.inverse()) == PhasedPermutation.identity(self.size)


def commutator_report(a: PhasedPermutation, b: PhasedPermutation) -> tuple[bool, float]:
    """Whether a and b commute, plus the largest entry of ab - ba (exact logic).

    A column where ab and ba move the index to different places holds two
    unit entries, so it contributes 1; otherwise it contributes the gap
    between the two phases.
    """
    if a.size != b.size:
        raise DimensionMismatch(f"sizes differ: {a.size} vs {b.size}")
    ab = a.compose_after(b)
    ba = b.compose_after(a)
    if ab == ba:
        return True, 0.0
    gap = np.where(
        ab.target != ba.target,
        1.0,
        np.abs(PHASES[ab.phase_exponent] - PHASES[ba.phase_exponent]),
    )
    return False, float(gap.max())


# =============================================================================
# Pair-flip model with external driving
# =============================================================================


@dataclass(frozen=True)
class Schedule:
    """Which single edge is active at each step, with its +1/-1 coefficient."""

    kind: str  # periodic | explicit | seeded_random
    steps: tuple[tuple[int, int, int], ...] = ()
    seed: Optional[int] = None
    pool: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.kind not in ("periodic", "explicit", "seeded_random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "steps", _norm_steps(self.steps))
        object.__setattr__(self, "pool", tuple(_sorted_pair(i, j) for i, j in self.pool))
        if self.seed is not None:
            object.__setattr__(self, "seed", _exact_int(self.seed, "seed"))
        if self.kind in ("periodic", "explicit"):
            if not self.steps:
                raise ValueError(
                    "schedule must activate exactly one edge per step; an empty "
                    "step list activates none"
                )
            for i, j, sign in self.steps:
                if sign not in (1, -1):
                    raise ValueError(f"coefficient must be +1 or -1, got {sign}")
        else:
            if self.seed is None or not self.pool:
                raise ValueError("seeded_random schedule needs a seed and an edge pool")

    @classmethod
    def periodic(cls, steps: Iterable) -> "Schedule":
        return cls(kind="periodic", steps=steps)

    @classmethod
    def explicit(cls, steps: Iterable) -> "Schedule":
        return cls(kind="explicit", steps=steps)

    @classmethod
    def seeded_random(cls, seed: int, pool: Iterable[Edge]) -> "Schedule":
        return cls(kind="seeded_random", seed=seed, pool=pool)

    def active(self, step_index: int) -> tuple[Edge, int]:
        if self.kind == "periodic":
            i, j, sign = self.steps[step_index % len(self.steps)]
            return (i, j), sign
        if self.kind == "explicit":
            if step_index >= len(self.steps):
                raise ScheduleExhausted(
                    f"explicit schedule has {len(self.steps)} steps; asked for {step_index}"
                )
            i, j, sign = self.steps[step_index]
            return (i, j), sign
        rnd = random.Random((self.seed << 32) ^ step_index)
        return rnd.choice(self.pool), rnd.choice((1, -1))


def _norm_steps(steps) -> tuple[tuple[int, int, int], ...]:
    out = []
    for entry in steps:
        if len(entry) == 2:
            i, j = entry
            sign = 1
        else:
            i, j, sign = entry
        out.append((*_sorted_pair(i, j), _exact_int(sign, "sign")))
    return tuple(out)


def model_a_step_operator(
    topology: GraphTopology, active_edge: Edge, sign: int = 1
) -> PhasedPermutation:
    """One externally driven step: flip the two vertex spins of the active edge.

    The map is (-i * sign) times the double flip, i.e. a single permutation
    with uniform phase exponent 3 (sign +1) or 1 (sign -1).
    """
    topology.edge_number(active_edge)  # raises EdgeNotInTopology
    if _exact_int(sign, "sign") not in (1, -1):
        raise ValueError(f"coefficient must be +1 or -1, got {sign}")
    x = np.arange(1 << _table_bits(topology, "vertices"), dtype=np.intp)
    mask = topology.vertex_mask(active_edge)
    # an XOR by a fixed mask is its own inverse, so a bijection by construction
    return _phased(x ^ mask, np.full(x.size, 3 if sign == 1 else 1, dtype=np.uint8))


def model_a_evolve(
    topology: GraphTopology,
    start: int,
    schedule: Schedule,
    steps: int,
) -> list[tuple[int, int]]:
    """Exact basis-state trajectory with accumulated i**k phases.

    `start` is a basis index of the 2**V vertex bits.  Returns steps + 1
    (index, phase exponent) pairs starting from (start, 0).  Superpositions
    can never appear: each step is a pure permutation with a phase.
    """
    _exact_int(steps, "steps", 0)
    index = _start_index(start, topology.n_vertices)
    phase = 0
    out = [(index, 0)]
    for n in range(steps):
        edge, sign = schedule.active(n)
        topology.edge_number(edge)
        index ^= topology.vertex_mask(edge)
        phase = (phase + (3 if sign == 1 else 1)) % 4
        out.append((index, phase))
    return out


def model_a_composition_holds(
    topology: GraphTopology,
    schedule: Schedule,
    run: list[tuple[int, int]],
) -> bool:
    """Whether the step operators of the schedule, applied in turn over the run
    of `model_a_evolve`, send its first state to its last one with the same phase.

    The start state is followed through the 2**V table of each step, so no
    table is composed; composition is associative, so the verdict is that of
    the composed operator.  Each table is dropped after its step, so one is
    held at a time.
    """
    bits = _table_bits(topology, "vertices")
    index, phase = _start_index(run[0][0], bits), 0
    for n in range(len(run) - 1):
        index, step_phase = model_a_step_operator(topology, *schedule.active(n)).apply(index)
        phase = (phase + step_phase) % 4
    return (index, phase) == run[-1]


# =============================================================================
# Edge-gated transfer model
# =============================================================================


def model_b_transfer(topology: GraphTopology) -> PhasedPermutation:
    """One-step map on vertex + edge bits: every up edge flips its vertex pair.

    Edge bits are untouched; the overall phase is -i (exponent 3).  The
    per-edge factors commute, so the edge ordering of the topology is
    irrelevant to the result.
    """
    x = np.arange(1 << _table_bits(topology))
    masks = edge_pattern_masks(topology)
    return PhasedPermutation(x ^ masks[x >> topology.n_vertices], np.full_like(x, 3))


def edge_pattern_masks(topology: GraphTopology) -> np.ndarray:
    """Vertex-flip mask of every edge-bit pattern: the XOR of the vertex masks
    of its up edges.  Entry p is what the transfer map XORs into the vertex
    bits of any state whose edge bits read p."""
    patterns = np.arange(1 << _table_bits(topology, "edges"))
    masks = np.zeros_like(patterns)
    for e, edge in enumerate(topology.edges):
        masks ^= ((patterns >> e) & 1) * topology.vertex_mask(edge)
    return masks


def model_b_evolve(
    topology: GraphTopology,
    start: int,
    pattern_rule: PhasedPermutation,
    steps: int,
) -> list[tuple[int, int]]:
    """Exact orbit of the transfer map followed by an edge-pattern rule.

    `start` is a basis index of the 2**(V+E) vertex and edge bits.  One step
    sends (v, p) to (v ^ mask[p], rule.target[p]) with phase exponent
    3 + rule.phase_exponent[p], so the orbit costs O(steps) lookups in
    2**E-entry tables and no 2**bits table is built.  Returns steps + 1
    (index, phase exponent) pairs starting from (start, 0), the orbit of
    `edge_update_compose(model_b_transfer(t), lift_pattern_rule(t, rule), t)`.
    """
    _exact_int(steps, "steps", 0)
    n_vertices, n_edges = topology.n_vertices, topology.n_edges
    index = _start_index(start, n_vertices + n_edges)
    if pattern_rule.size != 1 << n_edges:
        raise DimensionMismatch(
            f"edge rule size {pattern_rule.size} vs {1 << n_edges} edge patterns"
        )
    masks = edge_pattern_masks(topology)
    vertices, pattern = index & ((1 << n_vertices) - 1), index >> n_vertices
    phase = 0
    out = [(index, 0)]
    for _ in range(steps):
        vertices ^= int(masks[pattern])
        phase = (phase + 3 + int(pattern_rule.phase_exponent[pattern])) % 4
        pattern = int(pattern_rule.target[pattern])
        out.append((vertices | (pattern << n_vertices), phase))
    return out


def model_b_factor(topology: GraphTopology, edge_number: int) -> PhasedPermutation:
    """Single-edge factor of the transfer map: the gated pair flip, no phase.

    All factors commute; composing them in any order and appending the
    overall -i reproduces the full transfer map.
    """
    if not 0 <= _exact_int(edge_number, "edge_number") < topology.n_edges:
        raise EdgeNotInTopology(f"edge number {edge_number} out of range")
    x = np.arange(1 << _table_bits(topology))
    gate = (x >> (topology.n_vertices + edge_number)) & 1
    mask = topology.vertex_mask(topology.edges[edge_number])
    return PhasedPermutation(x ^ (gate * mask), np.zeros_like(x))


def projector_identity_check(k: int) -> bool:
    """(+/- (sigma3 +/- 1)/2)^k reproduces itself exactly, for both sign choices."""
    _exact_int(k, "k", 1)
    half = Fraction(1, 2)
    sigma3 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    for sign in (1, -1):
        # sign +1: +(sigma3 + 1)/2 ; sign -1: -(sigma3 - 1)/2
        proj = tuple(
            tuple(
                sign * half * (sigma3[r][c] + sign * (1 if r == c else 0))
                for c in range(2)
            )
            for r in range(2)
        )
        acc = proj
        for _ in range(k - 1):
            acc = tuple(
                tuple(sum(acc[r][m] * proj[m][c] for m in range(2)) for c in range(2))
                for r in range(2)
            )
        if acc != proj:
            return False
    return True


def generator_pair_counts(topology: GraphTopology, patterns: np.ndarray) -> np.ndarray:
    """The generator's edge-pattern blocks, one row of counts per pattern given.

    The generator is the sum over edges of the gated pair-flip involutions.
    No factor changes an edge bit, so it is block-diagonal over the 2**E edge
    patterns.  Block p is indexed by the vertex bits alone: every edge that is
    down in p adds the identity, every edge that is up adds the permutation
    v -> v ^ vertex_mask(edge).  An entry so depends on x ^ y alone:
    G_p[x][y] = c_p[x ^ y], where c_p[0] counts the down edges of p and c_p[m]
    the up edges of vertex mask m.  Returns the int64 rows c_p, of shape
    (len(patterns), 2**V); no block is built.
    """
    counts = np.zeros((patterns.size, 1 << _table_bits(topology, "vertices")), dtype=np.int64)
    rows = np.arange(patterns.size)
    for e, edge in enumerate(topology.edges):
        # distinct edges have distinct nonzero masks: one entry per pattern and edge
        counts[rows, ((patterns >> e) & 1) * topology.vertex_mask(edge)] += 1
    return counts


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of each row of a C-contiguous int array, in
    place: row[s] becomes sum over m of (-1)**popcount(s & m) * row[m].  Rows of
    2**V entries take V butterfly passes of integer adds (B. J. Fino and
    V. R. Algazi, IEEE Trans. Computers C-25 (1976) 1142-1146); the transform
    is its own inverse up to the factor 2**V."""
    flat = rows.reshape(-1, copy=False)  # a view, or ValueError
    half = rows.shape[-1] // 2
    while half:
        pairs = flat.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        diff = low - high
        low += high
        high[...] = diff
        half //= 2
    return rows


# Real and imaginary parts of i**k, k = 0..3
_I_POWER_PARTS = np.array(((1, 0, -1, 0), (0, 1, 0, -1)), dtype=np.int64)


def verify_exponential_form(topology: GraphTopology) -> float:
    """Max deviation between the exact transfer map and its exponential form.

    The generator is the commuting sum of gated pair-flip involutions; its
    exponential exp(-i pi/2 * G) reproduces the transfer map up to one
    overall phase, which is fitted before comparing entrywise.  Both sides
    keep the edge bits, so the comparison runs on the 2**E edge-pattern
    blocks G_p[x][y] = c_p[x ^ y] of `generator_pair_counts`, and entries
    outside the blocks are exactly zero on both sides.  The characters of the
    vertex-bit group diagonalize every such block: its eigenvalues are
    lam_p = W c_p, the Walsh-Hadamard transform of c_p.  Block p of
    exp(-i pi/2 * G) is then u_p[x][y] = g_p[x ^ y] with
    2**V * g_p = W (-i)**lam_p, and exact block p is -i at
    x ^ y = edge_pattern_masks[p], so both sides are compared as 2**E rows of
    2**V entries.  No 2**bits table, dense block or character matrix is built,
    and the patterns run in blocks of about EXPONENTIAL_FORM_BLOCK entries, so
    memory stays bounded.

    The route is exact.  Both transforms are integer butterflies
    (`_walsh_hadamard`); (-i)**lam is kept as the exponent -lam mod 4, so
    2**V * g_p has integer real and imaginary parts of magnitude at most 2**V.
    The fitted phase is then a fourth root of unity, and the deviation is
    exactly 0.0 when the identity holds.  Accepts up to DEFAULT_MAX_BITS.
    """
    _table_bits(topology)  # the size rule of the 2**bits maps it compares
    width = 1 << topology.n_vertices
    masks = edge_pattern_masks(topology)
    at_mask = np.empty((2, masks.size), dtype=np.int64)  # 2**V g_p[masks[p]], re and im
    off_mask = 0  # the largest |2**V g_p[m]|**2 with m != masks[p]
    rows = max(1, EXPONENTIAL_FORM_BLOCK // width)
    for first in range(0, masks.size, rows):
        patterns = np.arange(first, min(first + rows, masks.size))
        exponent = _walsh_hadamard(generator_pair_counts(topology, patterns))  # lam
        np.negative(exponent, out=exponent)
        exponent &= 3  # (-i)**lam = i**(-lam mod 4)
        g = np.empty((2, *exponent.shape), dtype=np.int64)
        for part, table in zip(g, _I_POWER_PARTS):
            np.take(table, exponent, out=part)
        _walsh_hadamard(g)
        hits = (slice(None), np.arange(patterns.size), masks[patterns])
        at_mask[:, patterns] = g[hits]
        g[hits] = 0
        g *= g
        off_mask = max(off_mask, int((g[0] + g[1]).max()))
    # exact block p holds -i at x ^ y = masks[p]; i * sum(at_mask) fits the phase
    re, im = (int(part.sum()) for part in at_mask)
    overlap = complex(-im, re)
    expected = width * PHASES[3] * (overlap / abs(overlap) if overlap else 1.0)
    at_dev = np.abs(at_mask[0] + 1j * at_mask[1] - expected).max()
    return float(max(at_dev, off_mask ** 0.5)) / width


def exponential_identity_holds(topology: GraphTopology) -> bool:
    """The exponential form as an exact identity of phased permutations.

    Each gated pair flip F_e is an involution and the F_e commute, so
    exp(-i pi/2 * sum F_e) = (-i)**E * prod F_e.  Checks F_e o F_e = 1, that
    every pair of factors commutes, and that the composed factors with phase
    -i equal the transfer map, so the two agree up to one constant phase.
    """
    size = 1 << _table_bits(topology)
    identity = PhasedPermutation.identity(size)
    factors = [model_b_factor(topology, e) for e in range(topology.n_edges)]
    if any(f.compose_after(f) != identity for f in factors):
        return False
    for k, a in enumerate(factors):
        if any(a.compose_after(b) != b.compose_after(a) for b in factors[k + 1:]):
            return False
    composed = PhasedPermutation(np.arange(size), np.full(size, 3))
    for f in factors:
        composed = f.compose_after(composed)
    return composed == model_b_transfer(topology)


def gauge_check(transform: PhasedPermutation, topology: GraphTopology) -> tuple[bool, float]:
    """Does `transform` commute with the edge-gated transfer map?  Exact."""
    transfer = model_b_transfer(topology)
    if transform.size != transfer.size:
        raise DimensionMismatch(
            f"transform size {transform.size} vs state space {transfer.size}"
        )
    return commutator_report(transform, transfer)


def global_vertex_flip(topology: GraphTopology) -> PhasedPermutation:
    """Flip every vertex spin; a discrete symmetry candidate."""
    x = np.arange(1 << _table_bits(topology))
    return PhasedPermutation(x ^ ((1 << topology.n_vertices) - 1), np.zeros_like(x))


def vertex_sign_flip(topology: GraphTopology, vertex: int) -> PhasedPermutation:
    """Diagonal map multiplying by -1 whenever the given vertex spin is down."""
    if not 0 <= _exact_int(vertex, "vertex") < topology.n_vertices:
        raise ValueError(f"vertex {vertex} out of range")
    x = np.arange(1 << _table_bits(topology))
    return PhasedPermutation(x, np.where((x >> vertex) & 1, 0, 2))


# =============================================================================
# Edge-spin dynamics plug-ins
# =============================================================================


def edge_update_compose(
    transfer: PhasedPermutation,
    edge_rule: PhasedPermutation,
    topology: GraphTopology,
) -> PhasedPermutation:
    """Append an edge-bit update after the transfer map.

    The rule must act as the identity on vertex bits; the composition is
    validated to remain a phased permutation, so the combined dynamics still
    never creates superpositions.
    """
    if edge_rule.size != transfer.size:
        raise DimensionMismatch(
            f"edge rule size {edge_rule.size} vs transfer size {transfer.size}"
        )
    vmask = (1 << topology.n_vertices) - 1
    moved = np.flatnonzero((edge_rule.target ^ np.arange(edge_rule.size)) & vmask)
    if moved.size:
        raise NotPermutation(
            f"edge rule moves vertex bits at index {moved[0]}; it must act on edge bits only"
        )
    return edge_rule.compose_after(transfer)


def frozen_pattern_rule(topology: GraphTopology) -> PhasedPermutation:
    """Edge spins never change."""
    return PhasedPermutation.identity(1 << _table_bits(topology, "edges"))


def cyclic_pattern_rule(topology: GraphTopology) -> PhasedPermutation:
    """Rotate the edge-bit register by one position."""
    n_edges = topology.n_edges
    if n_edges < 2:
        return frozen_pattern_rule(topology)
    p = np.arange(1 << _table_bits(topology, "edges"))
    shifted = ((p << 1) | (p >> (n_edges - 1))) & ((1 << n_edges) - 1)
    return PhasedPermutation(shifted, np.zeros_like(p))


def seeded_pattern_rule(topology: GraphTopology, seed: int) -> PhasedPermutation:
    """A fixed random permutation of edge-bit patterns, reproducible per seed."""
    patterns = list(range(1 << _table_bits(topology, "edges")))
    random.Random(_exact_int(seed, "seed")).shuffle(patterns)
    return PhasedPermutation(patterns, np.zeros(len(patterns), dtype=np.uint8))


def lift_pattern_rule(topology: GraphTopology, rule: PhasedPermutation) -> PhasedPermutation:
    """An edge-pattern rule as a map on all 2**bits states, vertex bits kept."""
    if rule.size != 1 << topology.n_edges:
        raise DimensionMismatch(
            f"edge rule size {rule.size} vs {1 << topology.n_edges} edge patterns"
        )
    n = topology.n_vertices
    x = np.arange(1 << _table_bits(topology))
    pattern = x >> n
    # a bijection on patterns times the identity on vertex bits is a bijection
    return _phased((x & ((1 << n) - 1)) | (rule.target[pattern] << n),
                   rule.phase_exponent[pattern])
