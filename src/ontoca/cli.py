"""Command-line entry point: run configured experiments, emit machine-readable
artifacts, and gate on invariant checks.

Experiments are defined by JSON config documents (reproducible, diffable).
A subcommand reads only the keys it names in CONFIG_KEYS and refuses any
other; each flag overrides the key of its name.  Identical config + seed
produces byte-identical artifacts.  The exit status is 0 only when every
invariant asserted by the chosen experiment holds; config errors exit with
status 2.
"""

from __future__ import annotations

import argparse
import functools
import logging
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
    evolve,
    step,
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

# The top-level config keys each subcommand (multitime: each mode) reads, besides
# `kind` and `schema_version`; any other key exits 2.  A flag overrides the key of
# its name, and `--preset NAME` the `model` key, so every flag is one of these.
CONFIG_KEYS = {
    "evolve": ("model", "psi0", "psi1", "steps", "format", "out"),
    "dispersion": ("model", "sweep", "out"),
    "ontology-scan": ("model", "psi0", "psi1", "basis", "max_steps", "out"),
    "multitime": {mode: ("mode", "coupling", "out") + keys for mode, keys in (
        ("line", ("initial_field", "steps", "axis", "direction", "periodic")),
        ("diagonal", ("initial_field", "extra_point", "extra_value")),
        ("second_order", ("steps", "prev", "curr")),
        ("first_order", ("steps", "direction", "state")),
    )},
    "ising-a": ("topology", "schedule", "start", "steps", "out"),
    "ising-b": ("topology", "start", "edge_rule", "steps", "out"),
    "gup": ("sites", "scale", "boundary", "samples", "seed", "widths", "out"),
    "verify-all": ("seed", "out"),
}

# A sweep run keeps two states, but its n = scale_product / epsilon steps take
# about 2.3 s per 100000 at dim 4 (2-vCPU host), per epsilon; n is bounded for run time.
SWEEP_MAX_STEPS = 100_000
# gup's scale and widths: further out, the bound's l**2 and 1/l terms and an
# envelope's 1/width**2 leave the float range.
GUP_NUMBER_RANGE = (1e-100, 1e100)


def _load_config(args, kind: str) -> dict:
    """Load the experiment config and apply the flag overrides."""
    config: dict = {}
    if args.config:
        config = serialize.load_json_file(args.config)
        serialize.config_choice(config.get("kind", kind), "kind", (kind,))
        version = config.get("schema_version", serialize.SCHEMA_VERSION)
        serialize.config_choice(version, "schema_version", (serialize.SCHEMA_VERSION,))
    if getattr(args, "preset", None):
        config["model"] = {"preset": args.preset}
    keys = CONFIG_KEYS[kind]
    for key in set().union(*keys.values()) if isinstance(keys, dict) else keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    log.debug("running %s with config keys %s", kind, sorted(config))
    return config


def _refuse_unread(config: dict, kind: str, mode: str | None = None):
    """Refuse a key the subcommand (in `mode`) does not read, once its own keys are read."""
    keys = CONFIG_KEYS[kind] if mode is None else CONFIG_KEYS[kind][mode]
    serialize.config_mapping(config, "", keys + ("kind", "schema_version"))


def _resolve_pair(config: dict, model) -> CAPairState:
    def vector(key, default_index):
        if key in config:
            return serialize.vector_from_config(config[key], key, model.dim)
        return GaussianIntVector.basis(model.dim, default_index)

    return CAPairState(vector("psi0", 0), vector("psi1", min(1, model.dim - 1)), index_n=1)


def _write_artifact(path: str, text: str, key: str) -> str:
    """Write an artifact; a path that cannot be written exits 2 naming `key`."""
    try:
        serialize.atomic_write_text(path, text)
    except OSError as exc:
        raise ConfigInvalid(key, f"cannot write {path!r}: {exc.strerror or exc}") from None
    log.debug("wrote %d bytes to %s", len(text), path)
    return path


def _write_out(config: dict, text: str, default_name: str) -> str:
    out = serialize.config_path(config.get("out", default_name), "out")
    return _write_artifact(out, text, "out")


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
    model = serialize.config_document(config.get("model"), "model", serialize.model_from_mapping)
    pair = _resolve_pair(config, model)
    steps = serialize.config_int(config.get("steps", 12), "steps", minimum=1)
    fmt = serialize.config_choice(config.get("format", "csv"), "format", ("csv", "json"))
    _refuse_unread(config, "evolve")
    stages = _StageLog("evolve")
    traj = evolve(pair, model, steps)
    stages.mark("evolve")

    q0 = two_time_correlation(pair)
    pair_indices = range(traj.start_index + 1, traj.start_index + len(traj))
    conserved = all(traj.correlation_at(n) == q0 for n in pair_indices)
    residuals_zero = traj.verify()
    stages.mark("check")

    if fmt == "csv":
        out = _write_out(config, serialize.trajectory_csv(traj), "evolve.csv")
    else:
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
    stages.mark("write")
    if stages.enabled:
        bits = _max_coeff_bits(x for st in traj.raw_states for pair in st for x in pair)
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
    model = serialize.config_document(config.get("model"), "model", serialize.model_from_mapping)
    sweep = config.get("sweep")
    if sweep is not None:
        sweep = serialize.config_mapping(sweep, "sweep",
                                         ("epsilons", "scale_product", "psi0", "out"))
        epsilons = tuple(
            serialize.config_positive(e, f"sweep.epsilons[{k}]")
            for k, e in enumerate(serialize.config_list(sweep.get("epsilons"), "sweep.epsilons"))
        )
        scale_product = serialize.config_positive(sweep.get("scale_product", 1.0),
                                                  "sweep.scale_product")
        for k, eps in enumerate(epsilons):
            if scale_product / eps > SWEEP_MAX_STEPS:
                raise ConfigInvalid(f"sweep.epsilons[{k}]", f"scale_product / epsilon exceeds "
                                    f"the {SWEEP_MAX_STEPS}-step limit of the sweep")
        psi0 = GaussianIntVector.basis(model.dim, 0)
        if "psi0" in sweep:
            psi0 = serialize.vector_from_config(sweep["psi0"], "sweep.psi0", model.dim)
        sweep_out = serialize.config_path(sweep.get("out", "deviation_sweep.json"), "sweep.out")
    _refuse_unread(config, "dispersion")
    stages = _StageLog("dispersion")
    dec = propagator.phi_operator(model)
    rows = []
    worst = 0.0
    h = model.as_complex_array()
    for k, (lam, omega) in enumerate(zip(dec.eigenvalues, dec.phi_eigenvalues)):
        rows.append((lam, omega.real, omega.imag))
        if abs(lam) <= 2:
            worst = max(worst, propagator.stationary_residual(h, omega, dec.eigenvectors[:, k], 1))
    stages.mark("modes")
    out = _write_out(config, serialize.dispersion_csv(rows), "dispersion.csv")
    stages.mark("write")

    sweep_note = ""
    if sweep is not None:
        sweep_rows = propagator.continuum_limit_check(model, psi0, epsilons, scale_product)
        doc = {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "dispersion-sweep",
            "scale_product": scale_product,
            "rows": [{"epsilon": eps, "n": n, "deviation": dev} for eps, n, dev in sweep_rows],
        }
        _write_artifact(sweep_out, serialize.dumps_json(doc), "sweep.out")
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
    model = serialize.config_document(config.get("model"), "model", serialize.model_from_mapping)
    pair = _resolve_pair(config, model)
    basis_spec = config.get("basis", "standard")
    if basis_spec == "standard":
        basis = ontology.standard_basis_rays(model.dim)
    else:
        basis = []
        for k, entry in enumerate(serialize.config_list(basis_spec, "basis")):
            vec = serialize.vector_from_config(entry, f"basis[{k}]", model.dim)
            if vec.is_zero():
                raise ConfigInvalid(f"basis[{k}]", "a zero vector has no ray")
            basis.append(ontology.canonical_ray(vec))
    max_steps = config.get("max_steps")
    if max_steps is not None:
        max_steps = serialize.config_int(max_steps, "max_steps", minimum=1)
    _refuse_unread(config, "ontology-scan")
    stages = _StageLog("ontology-scan")
    report = ontology.detect_phased_permutation(
        model, pair.psi_prev, pair.psi_curr, basis, max_steps=max_steps
    )
    stages.mark("scan")
    # the norms of psi[0] .. psi[max(steps_scanned, 1) + 1]; a scan that
    # stopped at psi[0] or psi[1] has not reached psi[2]
    norms = list(report.norms)
    if report.steps_scanned == 0:
        norms.append(step(pair, model).psi_curr.norm_sq())
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
    spec = serialize.config_mapping(config.get("coupling"), "coupling",
                                    ("separable", "matrix", "dims"))
    if "separable" in spec:
        factors = serialize.config_list(spec["separable"], "coupling.separable")
        if len(factors) < 2:
            raise ConfigInvalid("coupling.separable", "expected a list of at least two models")
        return multitime.TensorHamiltonian.separable(*(
            serialize.model_from_mapping(m, "coupling.separable") for m in factors
        ))
    if "matrix" in spec:
        dims = [serialize.config_int(d, "coupling.dims", minimum=1)
                for d in serialize.config_list(spec.get("dims"), "coupling.dims")]
        rows = [serialize.vector_from_config(row, "coupling.matrix")
                for row in serialize.config_list(spec["matrix"], "coupling.matrix")]
        try:
            return multitime.TensorHamiltonian.general(rows, dims)
        except OntocaError as exc:
            raise ConfigInvalid("coupling.matrix", str(exc)) from None
    raise ConfigInvalid("coupling", "expected 'separable' or 'matrix'")


def cmd_multitime(args) -> int:
    config = _load_config(args, "multitime")
    mode = serialize.config_choice(config.get("mode"), "mode",
                                   ("line", "diagonal", "second_order", "first_order"))
    coupling = _resolve_coupling(config)
    d1, d2 = coupling.dims if len(coupling.dims) == 2 else (coupling.total_dim, 1)

    def vector(key):
        return serialize.vector_from_config(config.get(key), key, coupling.total_dim)

    if mode in ("line", "diagonal"):
        field_path = serialize.config_path(config.get("initial_field"), "initial_field")
        text = serialize.read_text_file(field_path)
        field = serialize.parse_field_csv(text, (d1, d2), "initial_field")
    direction = 1
    if mode == "line":
        steps = serialize.config_int(config.get("steps", 1), "steps", minimum=0)
        axis = serialize.config_choice(config.get("axis", "n1"), "axis", ("n1", "n2"))
        direction = serialize.config_choice(config.get("direction", 1), "direction", (1, -1))
        periodic = serialize.config_choice(config.get("periodic", False), "periodic",
                                           (False, True))
    elif mode == "diagonal":
        steps = 1
        extra_point = tuple(
            serialize.config_int(x, "extra_point")
            for x in serialize.config_list(config.get("extra_point"), "extra_point", length=2)
        )
        extra_value = vector("extra_value")
    elif mode == "second_order":
        steps = serialize.config_int(config.get("steps", 4), "steps", minimum=0)
        start = (vector("prev"), vector("curr"))
    else:
        # first_order runs at least one step, as sync_first_order; direction -1 is the
        # backward-synchronized form: the same states at decreasing indices
        steps = serialize.config_int(config.get("steps", 4), "steps", minimum=1)
        direction = serialize.config_choice(config.get("direction", 1), "direction", (1, -1))
        start = (vector("state"),)
    _refuse_unread(config, "multitime", mode)

    stages = _StageLog("multitime")
    if mode == "line":
        export = current = field
        try:
            for _ in range(steps):
                current = multitime.propagate_line(current, coupling, axis, direction, periodic)
                export = export.union(current)
        except GeometryMismatch as exc:  # only the initial field can be misshapen
            raise ConfigInvalid("initial_field", f"{exc} (axis {axis})") from None
        summary = f"lines+{steps}"
    elif mode == "diagonal":
        try:
            stepped = multitime.propagate_diagonal(field, coupling, extra_point, extra_value)
        except GeometryMismatch as exc:
            raise ConfigInvalid("initial_field", str(exc)) from None
        export = field.union(stepped)
        summary = f"diagonal seed={extra_point}"
    else:
        states = multitime.synchronized_states(start, coupling, steps)
        export = multitime.MultiTimeField._of(
            (d1, d2), {(direction * n, direction * n): vec for n, vec in enumerate(states)}
        )
        summary = f"{mode} steps={steps}"
    stages.mark("propagate")
    residual_ok = True
    if mode in ("line", "diagonal"):
        residual_ok = all(
            r.is_zero()
            for point in multitime.interior_points(export)
            for r in multitime.equation_residual(export, coupling, point)
        )
        stages.mark("check")

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


def _spin_bits(value, length: int, path: str) -> int:
    """A string of one '0'/'1' character per vertex or edge, as an int whose
    bit k is character k."""
    if not isinstance(value, str) or len(value) != length or set(value) - {"0", "1"}:
        raise ConfigInvalid(path, f"expected {length} characters of '0'/'1', got {value!r}")
    return int(value[::-1] or "0", 2)


def cmd_ising_a(args) -> int:
    config = _load_config(args, "ising-a")
    topology = serialize.config_document(config.get("topology"), "topology",
                                         serialize.topology_from_mapping)
    # the composition check builds 2^vertices tables
    if topology.n_vertices > ising.DEFAULT_MAX_BITS:
        raise ConfigInvalid(
            "topology", f"{topology.n_vertices} vertices exceed the "
            f"{ising.DEFAULT_MAX_BITS}-bit limit"
        )
    schedule = serialize.config_document(config.get("schedule"), "schedule",
                                         serialize.schedule_from_mapping)
    start = _spin_bits(config.get("start", "0" * topology.n_vertices), topology.n_vertices,
                       "start")
    steps = serialize.config_int(config.get("steps", 8), "steps", minimum=0)
    _refuse_unread(config, "ising-a")
    stages = _StageLog("ising-a")
    try:
        run = ising.model_a_evolve(topology, start, schedule, steps)
    except (EdgeNotInTopology, ScheduleExhausted) as exc:  # the schedule does not fit
        raise ConfigInvalid("schedule", str(exc)) from None
    stages.mark("evolve")

    ok = ising.model_a_composition_holds(topology, schedule, run)
    stages.mark("check")

    out = _write_out(config, serialize.spin_trajectory_csv(run, topology.n_vertices),
                     "ising_a.csv")
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
    topology = serialize.config_document(config.get("topology"), "topology",
                                         serialize.topology_from_mapping)
    # The orbit and the unitarity check use 2^E edge-pattern tables only; the
    # input limit stays that of the library's 2^bits table builders.
    if topology.total_bits > ising.DEFAULT_MAX_BITS:
        raise ConfigInvalid(
            "topology", f"{topology.total_bits} vertex + edge bits exceed the "
            f"{ising.DEFAULT_MAX_BITS}-bit limit"
        )
    start_cfg = serialize.config_mapping(config.get("start", {}), "start", ("vertices", "edges"))
    n_vertices, n_edges = topology.n_vertices, topology.n_edges
    start = (_spin_bits(start_cfg.get("vertices", "0" * n_vertices), n_vertices, "start.vertices")
             | _spin_bits(start_cfg.get("edges", "0" * n_edges), n_edges, "start.edges")
             << n_vertices)
    steps = serialize.config_int(config.get("steps", 8), "steps", minimum=0)
    rule_spec = config.get("edge_rule", "frozen")
    stages = _StageLog("ising-b")
    if isinstance(rule_spec, dict):
        serialize.config_mapping(rule_spec, "edge_rule", ("seeded_random",))
        seed = serialize.config_int(rule_spec.get("seeded_random"), "edge_rule.seeded_random")
        rule = ising.seeded_pattern_rule(topology, seed)
    elif serialize.config_choice(rule_spec, "edge_rule", ("frozen", "cyclic")) == "frozen":
        rule = ising.frozen_pattern_rule(topology)
    else:
        rule = ising.cyclic_pattern_rule(topology)
    _refuse_unread(config, "ising-b")
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

    out = _write_out(config, serialize.spin_trajectory_csv(run, n_vertices, n_edges),
                     "ising_b.csv")
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
    sites = serialize.config_int(config.get("sites", 64), "sites", minimum=1)
    scale = DiscretenessScale(serialize.config_positive(config.get("scale", 1.0), "scale",
                                                        *GUP_NUMBER_RANGE))
    boundary = serialize.config_choice(config.get("boundary", "periodic"), "boundary",
                                       ("periodic", "open"))
    samples = serialize.config_int(config.get("samples", 1000), "samples", minimum=1)
    seed = serialize.config_int(config.get("seed", 0), "seed", minimum=0)
    if "widths" in config:
        widths = [serialize.config_positive(w, "widths", *GUP_NUMBER_RANGE)
                  for w in serialize.config_list(config["widths"], "widths")]
    else:
        widths = [w for w in (4, 6, 8, 12, 16) if w <= sites / 8]
        if not widths:
            raise ConfigInvalid("widths", f"no admissible widths for {sites} sites")
    _refuse_unread(config, "gup")

    stages = _StageLog("gup")
    try:
        family = gup.minimize_delta_x(scale, widths, sites, boundary)
    except ValueError as exc:  # a width too large for the lattice
        raise ConfigInvalid("widths", str(exc)) from None
    sharp = gup.gup_bound_report(gup.single_site_state(sites, 0), scale, boundary)
    stages.mark("family")

    violations = deformed_holds = blocks = rows = 0
    for block in gup.random_states(sites, samples, seed):
        report = gup.gup_bound_report(block, scale, boundary)
        violations += int((~report.robertson_holds).sum())
        deformed_holds += int(report.satisfies_deformed_bound.sum())
        blocks, rows = blocks + 1, max(rows, len(block.amplitudes))
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
        log.info("gup: sites=%d samples=%d boundary=%s blocks=%d rows_per_block=%d",
                 sites, samples, boundary, blocks, rows)
    stages.emit()
    ok = violations == 0
    print(
        f"gup: sites={sites} samples={samples} robertson_violations={violations} "
        f"bound_min_dx={family.bound_min_dx:.12g} out={out}"
    )
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_verify_all(args) -> int:
    config = _load_config(args, "verify-all")
    seed = serialize.config_int(config.get("seed", 0), "seed", minimum=0)
    out = serialize.config_path(config["out"], "out") if "out" in config else None
    _refuse_unread(config, "verify-all")
    report = verify.run_all(seed)
    text = serialize.dumps_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_artifact(out, text, "out")
    passed = sum(1 for c in report["checks"] if c["passed"])
    total = len(report["checks"])
    print(f"verify-all: seed={seed} passed={passed}/{total} all_passed={report['all_passed']}"
          + (f" out={out}" if out else ""))
    return EXIT_OK if report["all_passed"] else EXIT_INVARIANT


# =============================================================================
# Parser
# =============================================================================


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; each `parse_args` call
    returns a fresh Namespace, so no state passes between `main` calls."""
    parser = argparse.ArgumentParser(
        prog="ontoca",
        description="Exact integer-arithmetic cellular-automaton experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    steps = ("--steps", {"type": int})
    seed = ("--seed", {"type": int})
    preset = ("--preset", {"choices": ontology.preset_names()})
    topology = ("--topology", {"help": "topology JSON file"})
    # each flag overrides the config key of its name (see CONFIG_KEYS)
    commands = (
        ("evolve", "exact trajectory of a single model", cmd_evolve,
         (steps, ("--format", {"choices": ("csv", "json")}), preset)),
        ("dispersion", "eigenfrequency table and stationary-mode check", cmd_dispersion,
         (preset,)),
        ("ontology-scan", "detect permutation-with-phase dynamics", cmd_ontology_scan, (preset,)),
        ("multitime", "two-time field propagation modes", cmd_multitime, (steps,)),
        ("ising-a", "externally scheduled pair flips", cmd_ising_a, (steps, topology)),
        ("ising-b", "edge-gated transfer dynamics", cmd_ising_b, (steps, topology)),
        ("gup", "lattice uncertainty reports", cmd_gup,
         (seed, ("--sites", {"type": int}), ("--scale", {"type": float}),
          ("--boundary", {"choices": ("periodic", "open")}), ("--samples", {"type": int}))),
        ("verify-all", "run the full invariant battery", cmd_verify_all, (seed,)),
    )
    for name, help_text, handler, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", help="JSON experiment config")
        p.add_argument("--out")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
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
