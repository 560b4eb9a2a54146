"""Command-line entry point: run configured experiments, emit machine-readable
artifacts, and gate on invariant checks.

Experiments are defined by JSON config documents (reproducible, diffable);
flags only override generic fields (--seed, --steps, --out, --format) or
provide shortcuts for the common cases.  Identical config + seed produces
byte-identical artifacts.  The exit status is 0 only when every invariant
asserted by the chosen experiment holds; config errors exit with status 2.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import gup, ising, multitime, ontology, propagator, serialize, verify
from .errors import (
    ConfigInvalid,
    EdgeNotInTopology,
    GeometryMismatch,
    OntocaError,
    ScheduleExhausted,
)
from .gaussian import (
    CAPairState,
    GaussianIntVector,
    HamiltonianModel,
    evolve,
    two_time_correlation,
)
from .propagator import DiscretenessScale

log = logging.getLogger("ontoca")

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _configure_logging():
    level_name = os.environ.get("ONTOCA_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(name)s %(levelname)s: %(message)s")


# =============================================================================
# Config plumbing
# =============================================================================


def _load_config(args, kind: str) -> dict:
    """Load and pre-validate the experiment config; flags override fields."""
    config: dict = {}
    if getattr(args, "config", None):
        config = serialize.load_json_file(args.config)
        declared = config.get("kind")
        if declared is not None and declared != kind:
            raise ConfigInvalid(args.config, f"config kind {declared!r} does not match subcommand {kind!r}")
        version = config.get("schema_version")
        if version is not None and version != serialize.SCHEMA_VERSION:
            raise ConfigInvalid(args.config, f"unsupported schema_version {version}")
    for key in ("seed", "steps", "out", "format", "sites", "scale", "boundary", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if config.get("format") not in (None, "csv", "json"):
        raise ConfigInvalid("format", f"unknown format {config['format']!r}")
    log.debug("running %s with config keys %s", kind, sorted(config))
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigInvalid(key, "required config field is missing")
    return config[key]


def _config_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigInvalid(path, f"expected an integer{bound}, got {value!r}")
    return value


def _config_positive(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigInvalid(path, f"expected a positive finite number, got {value!r}")
    return float(value)


def _resolve_model(config: dict, args) -> HamiltonianModel:
    if getattr(args, "preset", None):
        return ontology.preset_hamiltonian(args.preset)
    spec = config.get("model")
    if spec is None:
        raise ConfigInvalid("model", "no model given; use --preset or a config with a 'model' field")
    if isinstance(spec, str):
        return serialize.load_model_file(spec)
    if isinstance(spec, dict):
        return serialize.model_from_mapping(spec)
    raise ConfigInvalid("model", f"expected mapping or file path, got {type(spec).__name__}")


def _resolve_pair(config: dict, model) -> CAPairState:
    if "psi0" in config:
        psi0 = serialize.vector_from_config(config["psi0"], "psi0")
    else:
        psi0 = GaussianIntVector.basis(model.dim, 0)
    if "psi1" in config:
        psi1 = serialize.vector_from_config(config["psi1"], "psi1")
    else:
        psi1 = GaussianIntVector.basis(model.dim, min(1, model.dim - 1))
    if len(psi0) != model.dim or len(psi1) != model.dim:
        raise ConfigInvalid("psi0/psi1", f"vectors must have model dimension {model.dim}")
    return CAPairState(psi0, psi1, index_n=1)


def _write_out(config: dict, text: str, default_name: str) -> str:
    out = config.get("out") or default_name
    serialize.atomic_write_text(out, text)
    log.debug("wrote %d bytes to %s", len(text), out)
    return out


class _StageLog:
    """Wall time per stage of a subcommand, logged at INFO on stderr.

    Inert unless INFO is enabled, so a default run pays nothing.
    """

    def __init__(self, command: str):
        self.command = command
        self.enabled = log.isEnabledFor(logging.INFO)
        self.stages: list[str] = []
        if self.enabled:
            from time import perf_counter

            self._clock = perf_counter
            self._last = perf_counter()

    def mark(self, stage: str):
        """Close the stage running since the previous mark."""
        if self.enabled:
            now = self._clock()
            self.stages.append(f"{stage}={now - self._last:.6f}s")
            self._last = now

    def emit(self):
        if self.enabled:
            log.info("%s: stage times %s", self.command, " ".join(self.stages))


def _max_coeff_bits(numbers) -> int:
    """Largest bit length of an exact coefficient; a fraction counts its denominator too."""
    bits = 0
    for x in numbers:
        bits = max(bits, abs(x.numerator).bit_length())
        if x.denominator > 1:
            bits = max(bits, x.denominator.bit_length())
    return bits


# =============================================================================
# Subcommand handlers
# =============================================================================


def cmd_evolve(args) -> int:
    config = _load_config(args, "evolve")
    model = _resolve_model(config, args)
    pair = _resolve_pair(config, model)
    steps = _config_int(config.get("steps", 12), "steps", minimum=1)
    stages = _StageLog("evolve")
    traj = evolve(pair, model, steps)
    stages.mark("evolve")

    q0 = two_time_correlation(pair)
    conserved = all(
        two_time_correlation(traj.pair_at(n)) == q0
        for n in range(traj.start_index + 1, traj.start_index + len(traj))
    )
    residuals_zero = traj.verify()
    stages.mark("check")

    fmt = config.get("format", "csv")
    if fmt == "csv":
        text = serialize.trajectory_csv(traj)
        out = _write_out(config, text, "evolve.csv")
    elif fmt == "json":
        doc = {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "evolve",
            "dim": model.dim,
            "steps": steps,
            "start_index": traj.start_index,
            "two_time_correlation": q0,
            "conserved": conserved,
            "rows": [list(row) for row in serialize.trajectory_rows(traj)],
        }
        out = _write_out(config, serialize.dumps_json(doc), "evolve.json")
    else:
        raise ConfigInvalid("format", f"unknown format {fmt!r}")
    stages.mark("write")
    if stages.enabled:
        bits = _max_coeff_bits(x for st in traj.states for c in st for x in (c.re, c.im))
        log.info("evolve: dim=%d steps=%d max_coeff_bits=%d", model.dim, steps, bits)
    stages.emit()

    ok = conserved and residuals_zero
    print(
        f"evolve: dim={model.dim} steps={steps} Q={q0} conserved={conserved} "
        f"residuals_zero={residuals_zero} out={out}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_dispersion(args) -> int:
    config = _load_config(args, "dispersion")
    model = _resolve_model(config, args)
    stages = _StageLog("dispersion")
    dec = propagator.phi_operator(model)
    rows = []
    worst = 0.0
    import numpy as np

    h = model.as_complex_array()
    for k, lam in enumerate(dec.eigenvalues):
        omega = propagator.dispersion_omega(lam)
        rows.append((lam, omega.real, omega.imag))
        if abs(lam) <= 2:
            vec = dec.eigenvectors[:, k]
            res = np.exp(-1j * omega * 2) * vec - vec + 1j * (h @ (np.exp(-1j * omega) * vec))
            worst = max(worst, float(np.max(np.abs(res))))
    stages.mark("modes")
    out = _write_out(config, serialize.dispersion_csv(rows), "dispersion.csv")
    stages.mark("write")

    sweep_note = ""
    sweep = config.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigInvalid("sweep", "expected {epsilons, scale_product, out?}")
        raw = sweep.get("epsilons")
        if not isinstance(raw, list) or not raw:
            raise ConfigInvalid("sweep.epsilons", f"expected a nonempty list, got {raw!r}")
        epsilons = tuple(_config_positive(e, f"sweep.epsilons[{k}]") for k, e in enumerate(raw))
        scale_product = _config_positive(sweep.get("scale_product", 1.0), "sweep.scale_product")
        psi0 = (
            serialize.vector_from_config(sweep["psi0"], "sweep.psi0")
            if "psi0" in sweep
            else GaussianIntVector.basis(model.dim, 0)
        )
        sweep_rows = propagator.continuum_limit_check(model, psi0, epsilons, scale_product)
        doc = {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "dispersion-sweep",
            "scale_product": scale_product,
            "rows": [
                {"epsilon": eps, "n": n, "deviation": dev} for eps, n, dev in sweep_rows
            ],
        }
        sweep_out = sweep.get("out", "deviation_sweep.json")
        serialize.atomic_write_text(sweep_out, serialize.dumps_json(doc))
        sweep_note = f" sweep_out={sweep_out}"
        stages.mark("sweep")

    if stages.enabled:
        log.info("dispersion: dim=%d modes=%d", model.dim, len(rows))
    stages.emit()

    ok = worst <= 1e-10
    print(
        f"dispersion: dim={model.dim} modes={len(rows)} max_stationary_residual={worst:.3e} "
        f"ok={ok} out={out}{sweep_note}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_ontology_scan(args) -> int:
    config = _load_config(args, "ontology-scan")
    model = _resolve_model(config, args)
    pair = _resolve_pair(config, model)
    basis_spec = config.get("basis", "standard")
    if basis_spec == "standard":
        basis = ontology.standard_basis_rays(model.dim)
    elif not isinstance(basis_spec, list) or not basis_spec:
        raise ConfigInvalid(
            "basis", f"expected 'standard' or a nonempty list of vectors, got {basis_spec!r}"
        )
    else:
        basis = tuple(
            ontology.canonical_ray(serialize.vector_from_config(v, "basis"))
            for v in basis_spec
        )
    max_steps = config.get("max_steps")
    if max_steps is not None:
        max_steps = _config_int(max_steps, "max_steps", minimum=1)
    stages = _StageLog("ontology-scan")
    report = ontology.detect_phased_permutation(
        model, pair.psi_prev, pair.psi_curr, basis, max_steps=max_steps
    )
    stages.mark("scan")
    traj = evolve(pair, model, steps=max(report.steps_scanned, 1))
    norms = list(ontology.norm_trace(traj))
    stages.mark("norms")
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "ontology-scan",
        "ontological": report.is_ontological,
        "exact_period": report.exact_state_period,
        "ray_period": report.ray_period,
        "ray_cycle": [str(ray) for ray in report.ray_cycle],
        "failure_step": report.failure_step,
        "norm_trace": norms,
    }
    out = _write_out(config, serialize.dumps_json(doc), "ontology_scan.json")
    stages.mark("write")
    if stages.enabled:
        log.info("ontology-scan: dim=%d steps_scanned=%d", model.dim, report.steps_scanned)
    stages.emit()
    print(
        f"ontology-scan: dim={model.dim} ontological={report.is_ontological} "
        f"ray_period={report.ray_period} exact_period={report.exact_state_period} out={out}"
    )
    return EXIT_OK


def _resolve_coupling(config: dict) -> multitime.TensorHamiltonian:
    spec = config.get("coupling")
    if not isinstance(spec, dict):
        raise ConfigInvalid("coupling", "expected a mapping with 'separable' or 'matrix'")
    if "separable" in spec:
        factors = spec["separable"]
        if not isinstance(factors, list) or len(factors) < 2 or not all(
            isinstance(m, dict) for m in factors
        ):
            raise ConfigInvalid("coupling.separable", "expected a list of at least two models")
        return multitime.TensorHamiltonian.separable(
            *(serialize.model_from_mapping(m, "coupling.separable") for m in factors)
        )
    if "matrix" in spec:
        dims = spec.get("dims")
        if not isinstance(dims, list) or not dims:
            raise ConfigInvalid("coupling.dims", f"expected a nonempty list, got {dims!r}")
        dims = [_config_int(d, "coupling.dims", minimum=1) for d in dims]
        matrix = spec["matrix"]
        if not isinstance(matrix, list):
            raise ConfigInvalid("coupling.matrix", "expected a list of rows")
        rows = [serialize.vector_from_config(row, "coupling.matrix") for row in matrix]
        try:
            return multitime.TensorHamiltonian.general(rows, dims)
        except OntocaError as exc:
            raise ConfigInvalid("coupling.matrix", str(exc)) from None
    raise ConfigInvalid("coupling", "expected 'separable' or 'matrix'")


def _coupling_vector(config: dict, key: str, coupling) -> GaussianIntVector:
    vec = serialize.vector_from_config(_require(config, key), key)
    if len(vec) != coupling.total_dim:
        raise ConfigInvalid(key, f"expected {coupling.total_dim} components, got {len(vec)}")
    return vec


def _direction(config: dict) -> int:
    direction = config.get("direction", 1)
    if type(direction) is not int or direction not in (1, -1):
        raise ConfigInvalid("direction", f"expected 1 or -1, got {direction!r}")
    return direction


def cmd_multitime(args) -> int:
    config = _load_config(args, "multitime")
    mode = config.get("mode")
    if mode not in ("line", "diagonal", "second_order", "first_order"):
        raise ConfigInvalid("mode", f"unknown multitime mode {mode!r}")
    coupling = _resolve_coupling(config)
    d1, d2 = coupling.dims if len(coupling.dims) == 2 else (coupling.total_dim, 1)

    if mode in ("line", "diagonal"):
        field_path = config.get("initial_field")
        if not isinstance(field_path, str):
            raise ConfigInvalid("initial_field", "expected a CSV file path")
        text = serialize.read_text_file(field_path)
        field = serialize.parse_field_csv(text, (d1, d2), "initial_field")

    stages = _StageLog("multitime")
    residual_ok = True
    if mode == "line":
        steps = _config_int(config.get("steps", 1), "steps", minimum=0)
        axis = config.get("axis", "n1")
        if axis not in ("n1", "n2"):
            raise ConfigInvalid("axis", f"expected 'n1' or 'n2', got {axis!r}")
        direction = _direction(config)
        periodic = config.get("periodic", False)
        if not isinstance(periodic, bool):
            raise ConfigInvalid("periodic", f"expected true or false, got {periodic!r}")
        accumulated = field
        current = field
        try:
            for _ in range(steps):
                current = multitime.propagate_line(current, coupling, axis, direction, periodic)
                accumulated = accumulated.union(current)
        except GeometryMismatch as exc:  # only the initial field can be misshapen
            raise ConfigInvalid("initial_field", f"{exc} (axis {axis})") from None
        stages.mark("propagate")
        for point in multitime.interior_points(accumulated):
            res = multitime.equation_residual(accumulated, coupling, point)
            residual_ok = residual_ok and all(r.is_zero() for r in res)
        stages.mark("check")
        export = accumulated
        summary = f"lines+{steps}"
    elif mode == "diagonal":
        steps = 1
        extra_point = config.get("extra_point")
        if not isinstance(extra_point, list) or len(extra_point) != 2:
            raise ConfigInvalid("extra_point", "expected [n1, n2]")
        extra_point = tuple(_config_int(x, "extra_point") for x in extra_point)
        extra_value = _coupling_vector(config, "extra_value", coupling)
        try:
            stepped = multitime.propagate_diagonal(field, coupling, extra_point, extra_value)
        except GeometryMismatch as exc:
            raise ConfigInvalid("initial_field", str(exc)) from None
        merged = field.union(stepped)
        stages.mark("propagate")
        for point in multitime.interior_points(merged):
            res = multitime.equation_residual(merged, coupling, point)
            residual_ok = residual_ok and all(r.is_zero() for r in res)
        stages.mark("check")
        export = merged
        summary = f"diagonal seed={extra_point}"
    else:
        # sync_first_order needs at least one step; second_order may run none
        minimum = 1 if mode == "first_order" else 0
        steps = _config_int(config.get("steps", 4), "steps", minimum=minimum)
        if mode == "second_order":
            states = [_coupling_vector(config, "prev", coupling),
                      _coupling_vector(config, "curr", coupling)]
            for _ in range(steps):
                states.append(multitime.sync_second_order(states[-2], states[-1], coupling))
            direction = 1
        else:
            # direction -1 is the backward-synchronized form: the same states
            # at decreasing indices
            direction = _direction(config)
            start = _coupling_vector(config, "state", coupling)
            states = multitime.sync_first_order(start, coupling, steps)
        export = multitime.MultiTimeField(
            (d1, d2), {(direction * n, direction * n): vec for n, vec in enumerate(states)}
        )
        stages.mark("propagate")
        summary = f"{mode} steps={steps}"

    out = _write_out(config, serialize.field_csv(export), "multitime.csv")
    stages.mark("write")
    if stages.enabled:
        bits = _max_coeff_bits(x for vec in export.values.values() for pair in vec for x in pair)
        log.info("multitime: mode=%s dims=%s steps=%d max_coeff_bits=%d",
                 mode, "x".join(map(str, coupling.dims)), steps, bits)
    stages.emit()
    print(
        f"multitime: {summary} points={len(export.points())} residuals_zero={residual_ok} out={out}"
    )
    return EXIT_OK if residual_ok else EXIT_INVARIANT


def _resolve_topology(config: dict, args) -> ising.GraphTopology:
    spec = config.get("topology")
    if getattr(args, "topology", None):
        spec = args.topology
    if spec is None:
        raise ConfigInvalid("topology", "no topology given")
    if isinstance(spec, str):
        return serialize.load_topology_file(spec)
    return serialize.topology_from_mapping(spec)


def _spin_string(value, length: int, path: str) -> str:
    """A bit string with one '0'/'1' character per vertex or edge."""
    if not isinstance(value, str) or len(value) != length or set(value) - {"0", "1"}:
        raise ConfigInvalid(path, f"expected {length} characters of '0'/'1', got {value!r}")
    return value


def cmd_ising_a(args) -> int:
    config = _load_config(args, "ising-a")
    topology = _resolve_topology(config, args)
    # the composition check builds 2^vertices tables
    if topology.n_vertices > ising.DEFAULT_MAX_BITS:
        raise ConfigInvalid(
            "topology", f"{topology.n_vertices} vertices exceed the "
            f"{ising.DEFAULT_MAX_BITS}-bit limit"
        )
    schedule_spec = config.get("schedule")
    if isinstance(schedule_spec, str):
        schedule = serialize.load_schedule_file(schedule_spec)
    elif isinstance(schedule_spec, dict):
        schedule = serialize.schedule_from_mapping(schedule_spec)
    else:
        raise ConfigInvalid("schedule", "no schedule given")
    start = ising.SpinConfiguration.from_strings(
        _spin_string(config.get("start", "0" * topology.n_vertices), topology.n_vertices, "start")
    )
    steps = _config_int(config.get("steps", 8), "steps", minimum=0)
    stages = _StageLog("ising-a")
    try:
        run = ising.model_a_evolve(topology, start, schedule, steps)
    except (EdgeNotInTopology, ScheduleExhausted) as exc:  # the schedule does not fit
        raise ConfigInvalid("schedule", str(exc)) from None
    stages.mark("evolve")

    composed = ising.PhasedPermutation.identity(1 << topology.n_vertices)
    for n in range(steps):
        edge, sign = schedule.active(n)
        composed = ising.model_a_step_operator(topology, edge, sign).compose_after(composed)
    target, phase = composed.apply(start.basis_index)
    ok = target == run[-1][0].basis_index and phase == run[-1][1]
    stages.mark("check")

    rows = [
        (n, conf.vertex_string, "", ph) for n, (conf, ph) in enumerate(run)
    ]
    out = _write_out(config, serialize.spin_trajectory_csv(rows), "ising_a.csv")
    stages.mark("write")
    if stages.enabled:
        log.info("ising-a: vertices=%d steps=%d", topology.n_vertices, steps)
    stages.emit()
    print(
        f"ising-a: vertices={topology.n_vertices} steps={steps} "
        f"composition_ok={ok} out={out}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_ising_b(args) -> int:
    config = _load_config(args, "ising-b")
    topology = _resolve_topology(config, args)
    # The orbit and the unitarity check use 2^E edge-pattern tables only; the
    # input limit stays that of the library's 2^bits table builders.
    if topology.total_bits > ising.DEFAULT_MAX_BITS:
        raise ConfigInvalid(
            "topology", f"{topology.total_bits} vertex + edge bits exceed the "
            f"{ising.DEFAULT_MAX_BITS}-bit limit"
        )
    start_cfg = config.get("start", {})
    if not isinstance(start_cfg, dict):
        raise ConfigInvalid("start", "expected {vertices, edges}")
    n_vertices, n_edges = topology.n_vertices, topology.n_edges
    start = ising.SpinConfiguration.from_strings(
        _spin_string(start_cfg.get("vertices", "0" * n_vertices), n_vertices, "start.vertices"),
        _spin_string(start_cfg.get("edges", "0" * n_edges), n_edges, "start.edges"),
    )
    steps = _config_int(config.get("steps", 8), "steps", minimum=0)

    stages = _StageLog("ising-b")
    rule_spec = config.get("edge_rule", "frozen")
    if rule_spec == "frozen":
        rule = ising.frozen_pattern_rule(topology)
    elif rule_spec == "cyclic":
        rule = ising.cyclic_pattern_rule(topology)
    elif isinstance(rule_spec, dict) and "seeded_random" in rule_spec:
        seed = _config_int(rule_spec["seeded_random"], "edge_rule.seeded_random")
        rule = ising.seeded_pattern_rule(topology, seed)
    else:
        raise ConfigInvalid("edge_rule", f"unknown edge rule {rule_spec!r}")
    run = ising.model_b_evolve(topology, start, rule, steps)
    stages.mark("build")
    # each edge pattern translates the vertex bits by a fixed XOR, so the
    # combined map is a bijection iff the rule permutes the edge patterns
    unitary = rule.is_unitary()
    exp_dev = None
    identity_holds = True
    if topology.total_bits <= ising.EXPONENTIAL_FORM_MAX_BITS:
        identity_holds = ising.exponential_identity_holds(topology)
        exp_dev = ising.verify_exponential_form(topology)
    stages.mark("check")

    rows = [(n, conf.vertex_string, conf.edge_string, ph) for n, (conf, ph) in enumerate(run)]
    out = _write_out(config, serialize.spin_trajectory_csv(rows), "ising_b.csv")
    stages.mark("write")
    if stages.enabled:
        log.info("ising-b: bits=%d steps=%d edge_patterns=%d",
                 topology.total_bits, steps, rule.size)
    stages.emit()
    ok = unitary and identity_holds and (exp_dev is None or exp_dev <= 1e-9)
    exp_text = "skipped" if exp_dev is None else f"{exp_dev:.3e}"
    print(
        f"ising-b: bits={topology.total_bits} steps={steps} unitary={unitary} "
        f"exponential_dev={exp_text} out={out}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_gup(args) -> int:
    config = _load_config(args, "gup")
    sites = _config_int(config.get("sites", 64), "sites", minimum=1)
    scale = DiscretenessScale(_config_positive(config.get("scale", 1.0), "scale"))
    boundary = config.get("boundary", "periodic")
    if boundary not in ("periodic", "open"):
        raise ConfigInvalid("boundary", f"expected 'periodic' or 'open', got {boundary!r}")
    samples = _config_int(config.get("samples", 1000), "samples", minimum=1)
    seed = _config_int(config.get("seed", 0), "seed", minimum=0)
    if "widths" in config:
        widths = config["widths"]
        if not isinstance(widths, list) or not widths:
            raise ConfigInvalid("widths", f"expected a nonempty list of widths, got {widths!r}")
        widths = [_config_positive(w, "widths") for w in widths]
    else:
        widths = [w for w in (4, 6, 8, 12, 16) if w <= sites / 8]
        if not widths:
            raise ConfigInvalid("widths", f"no admissible widths for {sites} sites")

    stages = _StageLog("gup")
    try:
        family = gup.minimize_delta_x(scale, widths, sites, boundary)
    except ValueError as exc:  # a width too large for the lattice
        raise ConfigInvalid("widths", str(exc)) from None
    sharp = gup.gup_bound_report(gup.single_site_state(sites, 0), scale, boundary)
    stages.mark("family")

    violations = 0
    deformed_holds = 0
    for state in gup.random_states(sites, samples, seed):
        report = gup.gup_bound_report(state, scale, boundary)
        violations += not report.robertson_holds
        deformed_holds += report.satisfies_deformed_bound
    stages.mark("samples")

    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "gup",
        "sites": sites,
        "scale": scale.l,
        "boundary": boundary,
        "samples": samples,
        "seed": seed,
        "robertson_violations": violations,
        "paper_bound_holds_fraction": deformed_holds / samples,
        "realized_min_dx": family.realized_min_dx,
        "bound_min_dx": family.bound_min_dx,
        "best_tightness": family.best_tightness,
        "family": [
            {
                "width": m.width,
                "delta_x": m.delta_x,
                "delta_p": m.delta_p,
                "product": m.lhs,
                "deformed_rhs": m.deformed_rhs,
                "robertson_rhs": m.robertson_rhs,
                "satisfies_deformed_bound": m.satisfies_deformed_bound,
            }
            for m in family.members
        ],
        "sharp_state_counterexample": {
            "product": sharp.lhs,
            "deformed_rhs": sharp.deformed_rhs,
            "satisfies_deformed_bound": sharp.satisfies_deformed_bound,
        },
    }
    out = _write_out(config, serialize.dumps_json(doc), "gup.json")
    stages.mark("write")
    if stages.enabled:
        log.info("gup: sites=%d samples=%d boundary=%s", sites, samples, boundary)
    stages.emit()
    ok = violations == 0
    print(
        f"gup: sites={sites} samples={samples} robertson_violations={violations} "
        f"bound_min_dx={family.bound_min_dx:.12g} out={out}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_verify_all(args) -> int:
    config = _load_config(args, "verify-all")
    seed = _config_int(config.get("seed", 0), "seed", minimum=0)
    report = verify.run_all(seed)
    text = serialize.dumps_json(report)
    out = config.get("out")
    if out:
        serialize.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)
    passed = sum(1 for c in report["checks"] if c["passed"])
    total = len(report["checks"])
    print(f"verify-all: seed={seed} passed={passed}/{total} all_passed={report['all_passed']}"
          + (f" out={out}" if out else ""))
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


# =============================================================================
# Parser
# =============================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoca",
        description="Exact integer-arithmetic cellular-automaton experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_steps=True):
        p.add_argument("config", nargs="?", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        if with_steps:
            p.add_argument("--steps", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("evolve", help="exact trajectory of a single model")
    add_common(p)
    p.add_argument("--preset", choices=ontology.preset_names())
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("dispersion", help="eigenfrequency table and stationary-mode check")
    add_common(p, with_steps=False)
    p.add_argument("--preset", choices=ontology.preset_names())
    p.set_defaults(handler=cmd_dispersion)

    p = sub.add_parser("ontology-scan", help="detect permutation-with-phase dynamics")
    add_common(p, with_steps=False)
    p.add_argument("--preset", choices=ontology.preset_names())
    p.set_defaults(handler=cmd_ontology_scan)

    p = sub.add_parser("multitime", help="two-time field propagation modes")
    add_common(p)
    p.set_defaults(handler=cmd_multitime)

    p = sub.add_parser("ising-a", help="externally scheduled pair flips")
    add_common(p)
    p.add_argument("--topology", help="topology JSON file")
    p.set_defaults(handler=cmd_ising_a)

    p = sub.add_parser("ising-b", help="edge-gated transfer dynamics")
    add_common(p)
    p.add_argument("--topology", help="topology JSON file")
    p.set_defaults(handler=cmd_ising_b)

    p = sub.add_parser("gup", help="lattice uncertainty reports")
    add_common(p, with_steps=False)
    p.add_argument("--sites", type=int)
    p.add_argument("--scale", type=float)
    p.add_argument("--boundary", choices=("periodic", "open"))
    p.add_argument("--samples", type=int)
    p.set_defaults(handler=cmd_gup)

    p = sub.add_parser("verify-all", help="run the full invariant battery")
    add_common(p, with_steps=False)
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OntocaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
