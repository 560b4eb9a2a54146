"""Detection of permutation-with-phase dynamics over a declared state basis.

A trajectory is "ontological" with respect to a basis of rays when every
iterate is a scalar multiple of a basis vector and the pair dynamics returns
to its starting rays.  Comparisons are exact: states map to canonical rays
(first nonzero component scaled to 1, over Gaussian rationals) and membership
is exact equality, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import UnknownPreset, ZeroVector
from .gaussian import (
    CAPairState,
    GaussianIntVector,
    GaussianRational,
    HamiltonianModel,
    Trajectory,
    _exact_int,
    build_hamiltonian,
    stream,
)

DEFAULT_MAX_STEPS_FACTOR = 64  # max_steps defaults to 4 * dim * 16


# =============================================================================
# Canonical rays
# =============================================================================


@dataclass(frozen=True)
class CanonicalRay:
    """Normalization-insensitive identity of a state: pivot component equals 1."""

    components: tuple[GaussianRational, ...]
    pivot_index: int

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def canonical_ray(v) -> CanonicalRay:
    """Divide out the first nonzero component of a Gaussian-integer vector, exactly."""
    comps = [GaussianRational(re, im) for re, im in GaussianIntVector(v).pairs]
    pivot_index = next((k for k, c in enumerate(comps) if not c.is_zero()), None)
    if pivot_index is None:
        raise ZeroVector("zero vector has no ray")
    pivot = comps[pivot_index]
    return CanonicalRay(
        components=tuple(c / pivot for c in comps), pivot_index=pivot_index
    )


def standard_basis_rays(dim: int) -> tuple[CanonicalRay, ...]:
    return tuple(canonical_ray(GaussianIntVector.basis(dim, k)) for k in range(dim))


# =============================================================================
# Preset models
# =============================================================================

_PRESETS = {
    "H2": (
        ((0, 1), (1, 0)),
        ((0, 0), (0, 0)),
    ),
    "H3": (
        ((0, 0, 1), (0, 0, 0), (1, 0, 0)),
        ((0, -1, 0), (1, 0, -1), (0, 1, 0)),
    ),
    "H4": (
        ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),
        ((0, -1, 0, 0), (1, 0, -1, 0), (0, 1, 0, -1), (0, 0, 1, 0)),
    ),
}


def preset_hamiltonian(name: str) -> HamiltonianModel:
    """The bundled two-, three- and four-state ring models ("H2", "H3", "H4")."""
    try:
        s, a = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return build_hamiltonian(s, a)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


# =============================================================================
# Detection
# =============================================================================


@dataclass(frozen=True)
class PermutationReport:
    is_ontological: bool
    ray_cycle: tuple[CanonicalRay, ...]
    ray_period: Optional[int]
    exact_state_period: Optional[int]
    phase_log: tuple[GaussianRational, ...]
    failure_step: Optional[int]
    steps_scanned: int
    norms: tuple[int, ...]  # squared norms of psi[0] .. psi[steps_scanned + 1]


def detect_phased_permutation(
    model: HamiltonianModel,
    psi0,
    psi1,
    basis: Iterable[CanonicalRay],
    max_steps: Optional[int] = None,
) -> PermutationReport:
    """Iterate the pair dynamics exactly and classify it against the basis.

    Succeeds when every visited state is a scalar multiple of a basis ray and
    the ray pair returns to its initial value within max_steps.  The exact
    state period (pair equality including phases) is reported when it also
    occurs within the scan; a ray-periodic run whose phases never close up is
    still ontological.  A state whose ray leaves the basis, or a zero state,
    sets failure_step instead; that is a result, not an error.
    """
    basis = frozenset(basis)
    if not basis:
        raise ValueError("basis must be nonempty")
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS_FACTOR * model.dim
    _exact_int(max_steps, "max_steps", 1)

    psi0 = GaussianIntVector(psi0)
    psi1 = GaussianIntVector(psi1)
    pair0 = CAPairState(psi0, psi1, index_n=1)

    rays: list[CanonicalRay] = []
    phases: list[GaussianRational] = []
    norms = [psi0.norm_sq(), psi1.norm_sq()]
    failure_step = None

    def admit(state: GaussianIntVector, step_index: int) -> bool:
        nonlocal failure_step
        if state.is_zero():
            failure_step = step_index
            return False
        ray = canonical_ray(state)
        rays.append(ray)
        phases.append(GaussianRational(*state.pairs[ray.pivot_index]))
        if ray not in basis:
            failure_step = step_index
            return False
        return True

    ok = admit(psi0, 0) and admit(psi1, 1)
    ray_period = None
    state_period = None
    steps_scanned = 0

    if ok:
        walker = stream(pair0, model)
        for n in range(1, max_steps + 1):
            pair = next(walker)  # pair (psi[n], psi[n+1])
            steps_scanned = n
            norms.append(pair.psi_curr.norm_sq())
            if not admit(pair.psi_curr, n + 1):
                break
            if ray_period is None and rays[n] == rays[0] and rays[n + 1] == rays[1]:
                ray_period = n
            if state_period is None and pair.psi_prev == psi0 and pair.psi_curr == psi1:
                state_period = n
            if ray_period is not None and state_period is not None:
                break

    is_ontological = failure_step is None and ray_period is not None
    if is_ontological:
        cycle = tuple(rays[:ray_period])
    else:
        cycle = tuple(rays)
    return PermutationReport(
        is_ontological=is_ontological,
        ray_cycle=cycle,
        ray_period=ray_period,
        exact_state_period=state_period,
        phase_log=tuple(phases),
        failure_step=failure_step,
        steps_scanned=steps_scanned,
        norms=tuple(norms),
    )


def norm_trace(trajectory: Trajectory) -> tuple[int, ...]:
    """Squared norm of every state, exact integers."""
    return tuple(sum(re * re + im * im for re, im in state) for state in trajectory.raw_states)
