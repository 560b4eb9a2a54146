"""End-to-end subcommand behaviour: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ontoca
from ontoca import ising
from ontoca.cli import _spin_bits, main
from ontoca.errors import ConfigInvalid
from ontoca.serialize import atomic_write_text, dumps_json, spin_trajectory_csv


def run(argv):
    return main(argv)


PAIR_FLIP = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def write_json(path, doc):
    atomic_write_text(path, dumps_json(doc))
    return str(path)


def run_at_warning_and_info(tmp_path, argv, artifact, config=None):
    """Run `ontoca argv` in a subprocess at ONTOCA_LOG=WARNING and at INFO.

    Returns (quiet, loud) as (CompletedProcess, artifact bytes) pairs; a
    config, when given, is written to c.json in each run's directory.
    """
    src = str(Path(ontoca.__file__).resolve().parents[1])
    runs = []
    for level in ("WARNING", "INFO"):
        workdir = tmp_path / level
        workdir.mkdir()
        if config is not None:
            write_json(workdir / "c.json", config)
        env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
        done = subprocess.run([sys.executable, "-m", "ontoca.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True, check=True)
        runs.append((done, (workdir / artifact).read_bytes()))
    return runs


class TestEvolve:
    def test_preset_run_produces_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--preset", "H2", "--steps", "13", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,alpha,re,im"
        assert len(lines) - 1 == (13 + 2) * 2
        assert "2,0,1,-1" in lines  # psi2 = (1-i) e1
        assert "12,0,1,0" in lines  # back to the start
        assert "conserved=True" in capsys.readouterr().out

    def test_config_file_with_overrides(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "schema_version": 1,
                "kind": "evolve",
                "model": {"preset": "H3"},
                "steps": 5,
            },
        )
        out = tmp_path / "t.json"
        assert run(["evolve", cfg, "--steps", "7", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["steps"] == 7
        assert doc["dim"] == 3
        assert len(doc["rows"]) == 9 * 3

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evolve", "--preset", "H4", "--steps", "9"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "gup"})
        assert run(["evolve", cfg]) == 2

    def test_explicit_vectors(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "evolve",
                "model": {"preset": "H2"},
                "psi0": [[1, 0], [0, 0]],
                "psi1": [[1, 0], [0, 0]],
                "steps": 2,
            },
        )
        out = tmp_path / "t.csv"
        assert run(["evolve", cfg, "--out", str(out)]) == 0
        assert "2,1,0,-1" in out.read_text()  # psi2 = (1, -i)


    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        src = str(Path(ontoca.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "ontoca.cli", "evolve", "--preset", "H2", "--steps", "13",
                "--out", "traj.csv"]
        runs = []
        for level in ("WARNING", "INFO"):
            workdir = tmp_path / level
            workdir.mkdir()
            env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
            done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                                  check=True)
            runs.append((done, (workdir / "traj.csv").read_bytes()))
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        # H2 has h = 1 and parts of 1 bit: (2 + 1) * 1 needs 2 bits, so 8-bit slots
        assert ("evolve: dim=2 steps=13 max_coeff_bits=1 check_blocks=1 slot_bits=8"
                in loud.stderr)
        assert re.search(r"evolve: stage times evolve=\S+s check=\S+s write=\S+s", loud.stderr)
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_bytes_with_state_boxing_disabled(self, tmp_path, monkeypatch, capsys, caplog,
                                                   fmt):
        """evolve boxes no state component to step, check, log or write a state."""
        from ontoca import gaussian

        cfg = write_json(tmp_path / "c.json", {
            "kind": "evolve",
            "model": {"S": [[1, 2, 0], [2, -1, 1], [0, 1, 2]], "A": [[0, 1, -1], [-1, 0, 2], [1, -2, 0]]},
            "psi0": [[1, -1], 2, 0], "psi1": [0, [1, 1], -2], "steps": 30, "format": fmt,
        })
        assert run(["evolve", cfg, "--out", str(tmp_path / "boxed.out")]) == 0
        boxed_stdout = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("a state component was boxed")

        monkeypatch.setattr(gaussian.GaussianInt, "__init__", refuse)
        caplog.set_level(logging.INFO, logger="ontoca")  # the INFO line reads every coefficient
        assert run(["evolve", cfg, "--out", str(tmp_path / "raw.out")]) == 0
        assert capsys.readouterr().out.replace("raw.out", "boxed.out") == boxed_stdout
        assert (tmp_path / "raw.out").read_bytes() == (tmp_path / "boxed.out").read_bytes()
        assert "evolve: dim=3 steps=30 max_coeff_bits=" in caplog.text


    @pytest.mark.parametrize("bad, neighbour", [(0, 1), (7, 6), (-1, -2)])
    def test_a_corrupted_state_fails_both_gates(self, tmp_path, monkeypatch, capsys, bad,
                                                neighbour):
        """Adding psi[j] to psi[k] moves Q of their pair by 2 |psi[j]|^2, at either
        end of the run too, so the conservation and residual gates both see it."""
        from ontoca import cli, gaussian

        def corrupted(pair, model, steps):
            traj = gaussian.evolve(pair, model, steps)
            states = list(traj.raw_states)
            states[bad] = [(a + c, b + d)
                           for (a, b), (c, d) in zip(states[bad], states[neighbour])]
            return gaussian.Trajectory(tuple(states), traj.start_index, model)

        monkeypatch.setattr(cli, "evolve", corrupted)
        cfg = write_json(tmp_path / "c.json", {
            "kind": "evolve", "model": {"preset": "H3"}, "steps": 12,
            "psi0": [[1, 1], 2, 0], "psi1": [0, [1, -1], 1],
        })
        assert run(["evolve", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        out = capsys.readouterr().out
        assert "conserved=False" in out and "residuals_zero=False" in out


class TestOntologyScan:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["ontology-scan", "--preset", "H3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ontological"] is True
        assert doc["exact_period"] == 12
        assert doc["ray_period"] == 3
        assert doc["ray_cycle"] == ["(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)"]
        assert doc["failure_step"] is None
        assert set(doc["norm_trace"]) == {1}

    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        (quiet, quiet_json), (loud, loud_json) = run_at_warning_and_info(
            tmp_path, ["ontology-scan", "--preset", "H3", "--out", "r.json"], "r.json")
        assert quiet.stderr == ""
        assert "ontology-scan: dim=3 steps_scanned=" in loud.stderr
        assert re.search(r"ontology-scan: stage times scan=\S+s norms=\S+s write=\S+s",
                         loud.stderr)
        assert (loud.stdout, loud_json) == (quiet.stdout, quiet_json)

    def test_non_ontological_case(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "ontology-scan",
                "model": {"preset": "H2"},
                "psi0": [[1, 0], [0, 0]],
                "psi1": [[1, 0], [0, 0]],
            },
        )
        out = tmp_path / "r.json"
        assert run(["ontology-scan", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ontological"] is False
        assert doc["failure_step"] == 2


class TestDispersion:
    def test_table_and_exit(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["dispersion", "--preset", "H2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,re_omega,im_omega"
        assert len(lines) == 3

    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        cfg = {"kind": "dispersion", "model": {"preset": "H2"},
               "sweep": {"epsilons": [0.2, 0.1], "out": "sweep.json"}}
        runs = run_at_warning_and_info(tmp_path, ["dispersion", "c.json", "--out", "d.csv"],
                                       "d.csv", cfg)
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        assert "dispersion: dim=2 modes=2" in loud.stderr
        assert re.search(r"dispersion: stage times modes=\S+s write=\S+s sweep=\S+s",
                         loud.stderr)
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)
        sweeps = [(tmp_path / level / "sweep.json").read_bytes() for level in ("WARNING", "INFO")]
        assert sweeps[0] == sweeps[1]

    def test_deviation_sweep_export(self, tmp_path):
        sweep_out = tmp_path / "sweep.json"
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "dispersion",
                "model": {"preset": "H2"},
                "sweep": {
                    "epsilons": [0.2, 0.1, 0.05],
                    "scale_product": 2.0,
                    "out": str(sweep_out),
                },
            },
        )
        assert run(["dispersion", cfg, "--out", str(tmp_path / "d.csv")]) == 0
        doc = json.loads(sweep_out.read_text())
        devs = [row["deviation"] for row in doc["rows"]]
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[1] >= 1.8


class TestMultitime:
    def test_first_order_run(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "multitime",
                "mode": "first_order",
                "coupling": {
                    "matrix": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
                    "dims": [2, 2],
                },
                "state": [1, 0, 0, 0],
                "steps": 4,
            },
        )
        out = tmp_path / "fo.csv"
        assert run(["multitime", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "1,1,3,0,-1" in text  # -i e11 after one step
        assert "4,4,0,1,0" in text   # back to e00 after four

    def test_line_mode_with_field_file(self, tmp_path):
        from ontoca.gaussian import CAPairState, GaussianIntVector, evolve
        from ontoca.multitime import product_field
        from ontoca.ontology import preset_hamiltonian
        from ontoca.serialize import field_csv

        model = preset_hamiltonian("H2")
        t1 = evolve(
            CAPairState(GaussianIntVector.basis(2, 0), GaussianIntVector.basis(2, 1)),
            model,
            8,
        )
        field = product_field(t1, t1)
        lines = field.restricted(
            [(0, n2) for n2 in range(10)] + [(1, n2) for n2 in range(10)]
        )
        field_path = tmp_path / "field.csv"
        atomic_write_text(field_path, field_csv(lines))
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "multitime",
                "mode": "line",
                "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
                "initial_field": str(field_path),
                "steps": 3,
            },
        )
        out = tmp_path / "mt.csv"
        assert run(["multitime", cfg, "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_field_file(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "multitime",
                "mode": "line",
                "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
                "initial_field": str(tmp_path / "nope.csv"),
            },
        )
        assert run(["multitime", cfg]) == 2


    def test_second_row_for_a_field_component_exits_2(self, tmp_path, capsys):
        # every component of the two lines once, then (0, 0) component 0 again
        rows = [f"{n1},{n2},{k},1,0" for n1 in (0, 1) for n2 in range(5) for k in range(4)]
        field_path = tmp_path / "field.csv"
        field_path.write_text("\n".join(["n1,n2,component,re,im", *rows, "0,0,0,5,0"]) + "\n")
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "line", "steps": 1,
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(field_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: initial_field: line 42: point (0, 0) component 0 given twice")
        assert not (tmp_path / "m.csv").exists()

    def test_field_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "line",
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(tmp_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path}: cannot read")

    @pytest.mark.parametrize("length, steps, path, detail", [
        (9, 6, "steps", "only 4 of 6 steps fit the initial field: no point on line 6 has"),
        (2, 1, "initial_field", "no point on line 2 has"),
    ])
    def test_steps_that_outrun_the_lines_exit_2(self, tmp_path, capsys, length, steps, path,
                                                detail):
        field_path = tmp_path / "field.csv"
        field_path.write_text(_field_text([(n1, n2) for n1 in (0, 1) for n2 in range(length)]))
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "line", "steps": steps,
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(field_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: {detail}")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("lines, detail", [
        ((0, 1, 2), "expected exactly 2 lines, found [0, 1, 2]"),
        ((0, 2), "lines 0 and 2 are not adjacent"),
    ])
    def test_a_misshapen_field_exits_2_at_any_step_count(self, tmp_path, capsys, steps, lines,
                                                         detail):
        # at steps 0 the geometry used to go unchecked: three lines exited 1
        # with residuals_zero=False, since their middle line has full stencils
        field_path = tmp_path / "field.csv"
        field_path.write_text(_field_text([(n1, n2) for n1 in lines for n2 in range(5)]))
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "line", "steps": steps,
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(field_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"config error: initial_field: {detail} (axis n1)\n"
        assert not (tmp_path / "m.csv").exists()

    def test_zero_steps_on_two_lines_writes_the_field(self, tmp_path, capsys):
        field_path = tmp_path / "field.csv"
        field_path.write_text(_field_text([(n1, n2) for n1 in (0, 1) for n2 in range(2)]))
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "line", "steps": 0,
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(field_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 0
        assert "lines+0 points=4 residuals_zero=True" in capsys.readouterr().out

    def test_seed_off_the_next_diagonal_exits_2(self, tmp_path, capsys):
        field_path = tmp_path / "field.csv"
        field_path.write_text(_field_text([(n1, s - n1) for s in (5, 6) for n1 in range(s + 1)]))
        cfg = write_json(tmp_path / "c.json", {
            "kind": "multitime", "mode": "diagonal", "extra_point": [9, 0],
            "extra_value": [1, 0, 0, 0],
            "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
            "initial_field": str(field_path),
        })
        assert run(["multitime", cfg, "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: extra_point: seed point (9, 0) is not on diagonal n1+n2 = 7\n")
        assert not (tmp_path / "m.csv").exists()

    def test_first_order_backward_writes_decreasing_points(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "multitime",
                "mode": "first_order",
                "coupling": {"matrix": PAIR_FLIP, "dims": [2, 2]},
                "state": [1, 0, 0, 0],
                "steps": 4,
                "direction": -1,
            },
        )
        out = tmp_path / "fo.csv"
        assert run(["multitime", cfg, "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert {line.split(",")[0] for line in lines[1:-1]} == {"0", "-1", "-2", "-3", "-4"}
        assert "-1,-1,3,0,-1" in lines  # -i e11 one step back
        assert "-4,-4,0,1,0" in lines   # back to e00 four steps back

    @pytest.mark.parametrize(
        "fields, path",
        [
            ({"mode": "first_order", "coupling": {"matrix": [[0, 1.5], [1.5, 0]], "dims": [2, 1]},
              "state": [1, 0]}, "coupling.matrix"),
            ({"mode": "first_order", "coupling": {"matrix": [[]], "dims": [1, 1]},
              "state": [1]}, "coupling.matrix"),
            ({"mode": "diagonal", "extra_point": [0, 2], "extra_value": [1, 0, [0.5, 0], 0]},
             "extra_value"),
            ({"mode": "line", "direction": "x"}, "direction"),
            ({"mode": "first_order", "state": [1, 0, 0, 0], "direction": 5}, "direction"),
            ({"mode": "first_order", "state": [1, 0, 0, 0], "direction": True}, "direction"),
            ({"mode": "second_order", "coupling": {"matrix": PAIR_FLIP, "dims": ["a", 1]},
              "prev": [1, 0, 0, 0], "curr": [0, 1, 0, 0]}, "coupling.dims"),
            ({"mode": "diagonal", "extra_point": ["a", 2], "extra_value": [1, 0, 0, 0]},
             "extra_point"),
            ({"mode": "diagonal", "extra_point": [0.5, 1.5], "extra_value": [1, 0, 0, 0]},
             "extra_point"),
            ({"mode": "line", "periodic": "false"}, "periodic"),
            ({"mode": "line", "axis": "n3"}, "axis"),
            ({"mode": "line", "initial_field": "abc"}, "initial_field"),
            ({"mode": "line", "axis": "n2"}, "initial_field"),
            ({"mode": "diagonal", "extra_point": [0, 7], "extra_value": [1, 0, 0, 0]},
             "initial_field"),
            ({"mode": "second_order", "prev": [1, 0, 0], "curr": [0, 1, 0, 0]}, "prev"),
            ({"mode": "first_order", "state": [1, 0, 0, 0],
              "coupling": {"separable": [{"preset": "H2"}]}}, "coupling.separable"),
            ({"kind": "ontology-scan", "model": {"preset": "H2"}, "basis": []}, "basis"),
        ],
    )
    def test_bad_input_names_config_path(self, tmp_path, capsys, fields, path):
        # two lines of a 2x2 field; the cell "abc" stands for the one bad CSV case
        rows = [f"{n1},{n2},{k},{n1 + n2 + k},0"
                for n1 in (0, 1) for n2 in range(5) for k in range(4)]
        if fields.get("initial_field") == "abc":
            rows[0] = "0,0,0,abc,0"
        field_path = tmp_path / "field.csv"
        field_path.write_text("\n".join(["n1,n2,component,re,im", *rows]) + "\n")
        doc = {"kind": "multitime", "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
               **fields, "initial_field": str(field_path)}
        cfg = write_json(tmp_path / "c.json", doc)
        assert run([doc["kind"], cfg, "--out", str(tmp_path / "o.out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize(
        "fields, flags, path",
        [
            ({"mode": "first_order", "state": [1, 0, 0, 0], "prev": [1, 0, 0, 0]}, [], "prev"),
            ({"mode": "first_order", "state": [1, 0, 0, 0], "periodic": True}, [], "periodic"),
            ({"mode": "first_order", "state": [1, 0, 0, 0], "axis": "n2"}, [], "axis"),
            ({"mode": "first_order", "state": [1, 0, 0, 0], "initial_field": "lines_n1.csv"}, [],
             "initial_field"),
            ({"mode": "second_order", "prev": [1, 0, 0, 0], "curr": [0, 1, 0, 0],
              "direction": -1}, [], "direction"),
            ({"mode": "second_order", "prev": [1, 0, 0, 0], "curr": [0, 1, 0, 0],
              "state": [1, 0, 0, 0]}, [], "state"),
            ({"mode": "diagonal", "initial_field": "diagonals.csv", "extra_point": [4, 5],
              "extra_value": [1, 0, 0, 0], "steps": 7}, [], "steps"),
            ({"mode": "diagonal", "initial_field": "diagonals.csv", "extra_point": [4, 5],
              "extra_value": [1, 0, 0, 0]}, ["--steps", "3"], "steps"),
            ({"mode": "diagonal", "initial_field": "diagonals.csv", "extra_point": [4, 5],
              "extra_value": [1, 0, 0, 0], "periodic": True}, [], "periodic"),
            ({"mode": "line", "initial_field": "lines_n1.csv", "extra_point": [0, 2]}, [],
             "extra_point"),
            ({"mode": "line", "initial_field": "lines_n1.csv", "curr": [1, 0, 0, 0]}, [], "curr"),
        ],
    )
    def test_key_of_another_mode_exits_2(self, tmp_path, capsys, fields, flags, path):
        for name, points in TestMultitimeFuzz.FIELDS.items():
            (tmp_path / name).write_text(_field_text(points))
        doc = {"kind": "multitime", "coupling": {"separable": [{"preset": "H2"}, {"preset": "H2"}]},
               **fields}
        if "initial_field" in doc:
            doc["initial_field"] = str(tmp_path / doc["initial_field"])
        out = str(tmp_path / "o.csv")
        assert run(["multitime", write_json(tmp_path / "c.json", doc), *flags, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: unknown key")
        # the same config without the key runs
        doc = {key: value for key, value in doc.items() if key != path}
        assert run(["multitime", write_json(tmp_path / "c.json", doc), "--out", out]) == 0

    def test_synchronized_modes_write_the_dense_boxed_route(self, tmp_path):
        """second_order and first_order write the states of a dense GaussianInt
        iteration of H, as the field CSV of those boxed states."""
        from ontoca.gaussian import GaussianInt
        from ontoca.multitime import MultiTimeField, TensorHamiltonian
        from ontoca.ontology import preset_hamiltonian
        from ontoca.serialize import field_csv, vector_from_config

        h = TensorHamiltonian.separable(preset_hamiltonian("H2"), preset_hamiltonian("H3"))
        dense = h.model.h_matrix

        def minus_i_h(v):
            return [-sum((dense[r][c] * v[c] for c in range(6)), GaussianInt(0)).times_i()
                    for r in range(6)]

        prev, curr = [1, 0, [0, 1], 0, 0, -1], [0, 2, 0, 0, [1, 1], 0]
        second = [list(vector_from_config(prev)), list(vector_from_config(curr))]
        first = second[:1]
        for _ in range(9):
            second.append([a + b for a, b in zip(second[-2], minus_i_h(second[-1]))])
            first.append(minus_i_h(first[-1]))
        runs = {
            "second": ({"mode": "second_order", "prev": prev, "curr": curr, "steps": 9}, second, 1),
            "first": ({"mode": "first_order", "state": prev, "steps": 9, "direction": -1},
                      first, -1),
        }
        for name, (fields, boxed, direction) in runs.items():
            cfg = write_json(tmp_path / f"{name}.json", {
                "kind": "multitime",
                "coupling": {"separable": [{"preset": "H2"}, {"preset": "H3"}]}, **fields,
            })
            out = tmp_path / f"{name}.csv"
            assert run(["multitime", cfg, "--out", str(out)]) == 0
            field = MultiTimeField((2, 3), {(direction * n, direction * n): vec
                                            for n, vec in enumerate(boxed)})
            assert out.read_text() == field_csv(field)

    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        src = str(Path(ontoca.__file__).resolve().parents[1])
        doc = {"kind": "multitime", "mode": "second_order",
               "coupling": {"separable": [{"preset": "H2"}, {"preset": "H3"}]},
               "prev": [1, 0, 0, 0, 0, 0], "curr": [0, 0, 0, 0, 1, 0], "steps": 9}
        runs = []
        for level in ("WARNING", "INFO"):
            workdir = tmp_path / level
            workdir.mkdir()
            cfg = write_json(workdir / "c.json", doc)
            env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
            argv = [sys.executable, "-m", "ontoca.cli", "multitime", cfg, "--out", "mt.csv"]
            done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                                  check=True)
            runs.append((done, (workdir / "mt.csv").read_bytes()))
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        assert "multitime: mode=second_order dims=2x3 steps=9 max_coeff_bits=" in loud.stderr
        assert re.search(r"multitime: stage times propagate=\S+s write=\S+s", loud.stderr)
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)


def _field_text(points):
    rows = [f"{n1},{n2},{k},{n1 - 2 * n2 + k},{k - n1}" for n1, n2 in points for k in range(4)]
    return "\n".join(["n1,n2,component,re,im", *rows]) + "\n"


# Valid values mixed with values of the wrong type or range; every config
# below is either run or refused with exit 2 naming a config path.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(-3, 3), st.text(max_size=2),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.just("a"), st.integers(), max_size=1),
)


def _or_junk(valid):
    """Mostly `valid`, sometimes junk (a plain one_of would flatten to mostly junk)."""
    return st.integers(0, 5).flatmap(lambda k: _JUNK if k == 5 else valid)


def _entry():
    return st.one_of(st.integers(-2, 2), st.lists(st.integers(-2, 2), min_size=2, max_size=2))


_VECTOR = _or_junk(st.lists(_or_junk(_entry()), min_size=4, max_size=4))


@st.composite
def _couplings(draw):
    """Couplings on a 4-component index: two-factor separable or general, valid or not."""
    kind = draw(st.sampled_from(["preset", "separable", "matrix"]))

    def square(n):
        return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n,
                        max_size=n)

    if kind == "preset":
        return {"separable": [{"preset": "H2"}, {"preset": "H2"}]}
    if kind == "separable":
        symmetric = square(2).map(
            lambda m: [[m[r][c] + m[c][r] for c in range(2)] for r in range(2)]
        )
        return {"separable": draw(_or_junk(st.lists(
            st.fixed_dictionaries({"S": _or_junk(symmetric), "A": square(2)}), min_size=1,
            max_size=3)))}
    if draw(st.booleans()):  # a self-adjoint matrix, from S and A
        s, a = draw(square(4)), draw(square(4))
        rows = [[[s[r][c] + s[c][r], a[r][c] - a[c][r]] for c in range(4)] for r in range(4)]
    else:
        rows = draw(st.lists(st.lists(_or_junk(_entry()), min_size=4, max_size=4), min_size=1,
                             max_size=4))
    dims = draw(_or_junk(st.sampled_from([[2, 2], [4, 1], [1, 4], [2, 3], [0, 4]])))
    return {"matrix": rows, "dims": dims}


@st.composite
def _multitime_configs(draw):
    mode = draw(_or_junk(st.sampled_from(["line", "diagonal", "second_order", "first_order"])))
    doc = {"kind": "multitime", "mode": mode, "coupling": draw(_couplings())}
    axis = draw(_or_junk(st.sampled_from(["n1", "n2"])))
    optional = {
        "steps": _or_junk(st.integers(-1, 8)),  # 6 or more outrun the 12-point lines
        "direction": _or_junk(st.sampled_from([1, -1, 0, 2])),
        "periodic": _or_junk(st.booleans()),
        "axis": st.just(axis),
        # on the next diagonal (9) mostly, or on the field's last one or past the next
        "extra_point": _or_junk(st.tuples(st.integers(0, 9), st.sampled_from([9, 9, 8, 10]))
                                .map(lambda seed: [seed[0], seed[1] - seed[0]])),
        "extra_value": _VECTOR,
        "prev": _VECTOR,
        "curr": _VECTOR,
        "state": _VECTOR,
    }
    own = _MODE_KEYS.get(mode, ()) if isinstance(mode, str) else ()
    for key, strategy in optional.items():
        # a key of the mode mostly, sometimes missing; a key of another mode now and then
        if draw(st.integers(0, 11)) < (10 if key in own else 1):
            doc[key] = draw(strategy)
    if "initial_field" in own or draw(st.integers(0, 11)) == 0:
        # the field geometry matches the mode, so a run can only fail on a config value
        doc["initial_field"] = "diagonals.csv" if mode == "diagonal" else f"lines_{axis}.csv"
    return doc


# the keys each multitime mode reads besides kind, mode and coupling
_MODE_KEYS = {
    "line": ("initial_field", "steps", "axis", "direction", "periodic", "out"),
    "diagonal": ("initial_field", "extra_point", "extra_value", "out"),
    "second_order": ("steps", "prev", "curr", "out"),
    "first_order": ("steps", "direction", "state", "out"),
}


class TestMultitimeFuzz:
    FIELDS = {
        "lines_n1.csv": [(n1, n2) for n1 in (0, 1) for n2 in range(12)],
        "lines_n2.csv": [(n1, n2) for n2 in (0, 1) for n1 in range(12)],
        "diagonals.csv": [(n1, s - n1) for s in (7, 8) for n1 in range(s + 1)],
    }

    @given(_multitime_configs())
    @settings(max_examples=150, deadline=None)
    def test_exits_0_or_2_and_is_deterministic(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, points in self.FIELDS.items():
                (tmp / name).write_text(_field_text(points))
            if "initial_field" in doc:
                doc = {**doc, "initial_field": str(tmp / doc["initial_field"])}
            cfg = write_json(tmp / "c.json", doc)
            results = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(["multitime", cfg, "--out", str(tmp / "o.csv")])
                written = (tmp / "o.csv").read_bytes() if code == 0 else b""
                results.append((code, out.getvalue(), err.getvalue(), written))
                if code == 0:
                    (tmp / "o.csv").unlink()
        code, _, err, _ = results[0]
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("config error: ")
        assert results[0] == results[1]
        mode = doc["mode"]
        if isinstance(mode, str) and mode in _MODE_KEYS:
            if set(doc) - {"kind", "mode", "coupling", *_MODE_KEYS[mode]}:
                assert code == 2, "a key of another mode was not refused"


@st.composite
def _ising_configs(draw):
    """ising-a/ising-b configs on graphs of 2 to 8 vertices, valid or not.

    Schedules mostly name edges of the graph, so valid runs are common.
    """
    kind = draw(st.sampled_from(["ising-a", "ising-b"]))
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    preset = draw(st.sampled_from([None, "ring", "path", "fully_connected"]))
    if preset is None:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
        topology = {"n_vertices": n, "edges": [list(e) for e in edges]}
        if draw(st.integers(0, 5)) == 5:  # a self-loop, an out-of-range or a repeated edge
            topology["edges"].append(draw(st.sampled_from([[1, 1], [0, n], [0, 1]])))
    else:
        edges = list(getattr(ising.GraphTopology, preset)(n).edges)
        topology = {"preset": preset, "n_vertices": n}
    if draw(st.integers(0, 9)) == 9:
        topology[draw(st.sampled_from(_MISSPELT_DOCUMENT_KEYS))] = 1
    doc = {"kind": kind, "topology": draw(_or_junk(st.just(topology)))}

    bits = _or_junk(st.text("01", min_size=n, max_size=n))
    if kind == "ising-a":
        step = st.tuples(st.sampled_from(edges or pairs), _or_junk(st.sampled_from([1, -1, 0])))
        step = _or_junk(step.map(lambda t: [*t[0], t[1]]))
        listed = st.fixed_dictionaries({
            "kind": _or_junk(st.sampled_from(["periodic", "explicit"])),
            "steps": _or_junk(st.lists(step, min_size=1, max_size=6)),
        })
        seeded = st.fixed_dictionaries({
            "kind": _or_junk(st.just("seeded_random")),
            "seed": _or_junk(st.integers(-3, 3)),
            "pool": _or_junk(st.lists(st.sampled_from(edges or pairs).map(list), min_size=1,
                                      max_size=3)),
        })
        schedule = st.one_of(listed, seeded)
        optional = {"schedule": _or_junk(schedule), "start": bits}
    else:
        rule = st.one_of(st.sampled_from(["frozen", "cyclic"]),
                         st.fixed_dictionaries({"seeded_random": _or_junk(st.integers(-5, 5))}))
        optional = {
            "start": _or_junk(st.fixed_dictionaries({}, optional={"vertices": bits,
                                                                  "edges": _BITS})),
            "edge_rule": _or_junk(rule),
        }
    optional["steps"] = _or_junk(st.integers(-1, 12))
    for key, strategy in optional.items():
        if draw(st.integers(0, 5)) < 5:  # mostly present, sometimes missing
            doc[key] = draw(strategy)
    if isinstance(doc.get("schedule"), dict) and draw(st.integers(0, 9)) == 9:
        doc["schedule"][draw(st.sampled_from(_MISSPELT_DOCUMENT_KEYS))] = 4
    return doc


# keys one typo away from a model, topology or schedule key; a document
# holding one is refused
_MISSPELT_DOCUMENT_KEYS = ("dimm", "presets", "s", "a", "edge", "n_vertex", "sed", "kinds")


def _misspelt(document) -> bool:
    return isinstance(document, dict) and any(key in document for key in _MISSPELT_DOCUMENT_KEYS)


_BITS = _or_junk(st.text("01", max_size=10))


class TestIsingFuzz:
    """ising-a and ising-b configs: exit 0 or 2, never a traceback, and equal
    bytes for equal configs.  Graphs stay within 8 vertices, so no large
    table is built."""

    @given(_ising_configs())
    @settings(max_examples=200, deadline=None)
    def test_exits_0_or_2_and_is_deterministic(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write_json(tmp / "c.json", doc)
            results = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run([doc["kind"], cfg, "--out", str(tmp / "o.csv")])
                written = (tmp / "o.csv").read_bytes() if code == 0 else b""
                results.append((code, out.getvalue(), err.getvalue(), written))
                if code == 0:
                    (tmp / "o.csv").unlink()
        code, _, err, _ = results[0]
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("config error: ")
        assert results[0] == results[1]
        if _misspelt(doc["topology"]) or _misspelt(doc.get("schedule")):
            assert code == 2, "a misspelled document key was not refused"


bit_strings = st.integers(0, 12).flatmap(
    lambda n: st.text(alphabet="01", min_size=n, max_size=n))


class TestSpinStrings:
    """Spin strings exist only at the edge: the CLI reads a start string to a
    basis index and the CSV writes an orbit's indices back, bit k of the
    vertex (edge) bits as character k of the vertex (edge) string."""

    @given(bit_strings, bit_strings, st.integers(0, 3))
    def test_round_trip(self, vertices, edges, phase):
        n_vertices, n_edges = len(vertices), len(edges)
        index = (_spin_bits(vertices, n_vertices, "start.vertices")
                 | _spin_bits(edges, n_edges, "start.edges") << n_vertices)
        for k, c in enumerate(vertices + edges):
            assert (index >> k) & 1 == int(c)
        assert index < 1 << (n_vertices + n_edges)
        csv_text = spin_trajectory_csv([(index, phase)], n_vertices, n_edges)
        assert csv_text.splitlines()[1] == f"0,{vertices},{edges},{phase}"

    def test_bit_packing_vertex_low_edge_high(self):
        index = _spin_bits("101", 3, "start.vertices") | _spin_bits("01", 2, "start.edges") << 3
        assert index == 0b10101

    @pytest.mark.parametrize("value", ["012", "1 0", "10", "1010", 5, ["1", "0", "1"], None])
    def test_bad_bits_refused(self, value):
        with pytest.raises(ConfigInvalid, match="start: expected 3 characters of '0'/'1'"):
            _spin_bits(value, 3, "start")

    @pytest.mark.parametrize("index", [-1, 1 << 5])
    def test_formatter_refuses_an_index_beyond_the_bits(self, index):
        with pytest.raises(ValueError):
            spin_trajectory_csv([(0, 0), (index, 0)], 3, 2)


class TestIsing:
    def test_driven_run(self, tmp_path):
        topo = write_json(tmp_path / "topo.json", {"n_vertices": 3, "edges": [[0, 1], [1, 2]]})
        sched = write_json(tmp_path / "sched.json", {"kind": "periodic", "steps": [[0, 1, 1], [1, 2, 1]]})
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "ising-a", "topology": topo, "schedule": sched, "start": "000", "steps": 4},
        )
        out = tmp_path / "a.csv"
        assert run(["ising-a", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "0,000,,0"
        assert lines[2] == "1,110,,3"
        assert lines[3] == "2,101,,2"

    def test_missing_topology_file_exits_2(self, tmp_path):
        sched = write_json(tmp_path / "sched.json", {"kind": "periodic", "steps": [[0, 1, 1]]})
        cfg = write_json(
            tmp_path / "c.json",
            {"kind": "ising-a", "topology": str(tmp_path / "nope.json"), "schedule": sched},
        )
        assert run(["ising-a", cfg]) == 2

    @pytest.mark.parametrize(
        "command, fields, path",
        [
            ("ising-a", {"start": "01x"}, "start"),
            ("ising-a", {"start": "01"}, "start"),
            ("ising-a", {"steps": -1}, "steps"),
            ("ising-b", {"start": {"vertices": "10", "edges": "11"}}, "start.vertices"),
            ("ising-b", {"start": {"vertices": "101", "edges": "110"}}, "start.edges"),
            ("ising-b", {"steps": -1}, "steps"),
            ("ising-b", {"edge_rule": {"seeded_random": "x"}}, "edge_rule.seeded_random"),
            ("ising-a", {"topology": {"n_vertices": 3.9, "edges": [[0, 1], [1, 2]]}}, "topology"),
            ("ising-a", {"topology": {"n_vertices": 3, "edges": [[0, 1.7], [1, 2]]}}, "topology"),
            ("ising-a", {"schedule": {"kind": "periodic", "steps": [[0, 1.5, 1]]}}, "schedule"),
            ("ising-a", {"schedule": {"kind": "seeded_random", "seed": 2.5, "pool": [[0, 1]]}},
             "schedule"),
            ("ising-a", {"edge_rule": "cyclic"}, "edge_rule"),
            ("ising-b", {"schedule": {"kind": "periodic", "steps": [[0, 1, 1]]}}, "schedule"),
            ("ising-b", {"start": {"vertex": "101"}}, "start.vertex"),
            ("ising-b", {"edge_rule": "shuffled"}, "edge_rule"),
            ("ising-b", {"edge_rule": {"seeded_random": 3, "seed": 4}}, "edge_rule.seed"),
        ],
    )
    def test_bad_input_names_config_path(self, tmp_path, capsys, command, fields, path):
        doc = {"kind": command, "topology": {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}}
        if command == "ising-a":
            doc["schedule"] = {"kind": "periodic", "steps": [[0, 1, 1], [1, 2, 1]]}
        cfg = write_json(tmp_path / "c.json", {**doc, **fields})
        assert run([command, cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    def test_size_limit_checked_before_any_table(self, tmp_path, capsys, monkeypatch):
        # 13 vertices + 13 edges = 26 bits: the cyclic rule has 2^13 entries, and the
        # 2^26-entry tables are those of the patched builders below
        def no_table(*args, **kwargs):
            raise AssertionError("a 2^bits table was built")

        for name in ("lift_pattern_rule", "model_b_transfer"):
            monkeypatch.setattr(ising, name, no_table)
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-b", "topology": {"preset": "ring", "n_vertices": 13},
            "edge_rule": "cyclic",
        })
        assert run(["ising-b", cfg, "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: topology: 26 vertex + edge bits")

    def test_edge_gated_run(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "kind": "ising-b",
                "topology": {"preset": "ring", "n_vertices": 3},
                "start": {"vertices": "100", "edges": "101"},
                "steps": 4,
                "edge_rule": "frozen",
            },
        )
        out = tmp_path / "b.csv"
        assert run(["ising-b", cfg, "--out", str(out)]) == 0
        assert "unitary=True" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,vertex_bits,edge_bits,phase_exponent"
        assert len(lines) == 6

    def test_failed_exact_identity_fails_the_run(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-b", "topology": {"preset": "ring", "n_vertices": 3}, "steps": 4,
        })
        assert run(["ising-b", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        passed = capsys.readouterr().out
        monkeypatch.setattr(ising, "exponential_identity_holds", lambda topology: False)
        assert run(["ising-b", cfg, "--out", str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().out == passed

    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        src = str(Path(ontoca.__file__).resolve().parents[1])
        cfg = {"kind": "ising-b", "topology": {"preset": "ring", "n_vertices": 4},
               "start": {"vertices": "1000", "edges": "1010"}, "steps": 5, "edge_rule": "cyclic"}
        argv = [sys.executable, "-m", "ontoca.cli", "ising-b", "c.json", "--out", "b.csv"]
        runs = []
        for level in ("WARNING", "INFO"):
            workdir = tmp_path / level
            workdir.mkdir()
            write_json(workdir / "c.json", cfg)
            env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
            done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                                  check=True)
            runs.append((done, (workdir / "b.csv").read_bytes()))
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        assert "ising-b: bits=8 steps=5" in loud.stderr
        assert re.search(r"ising-b: stage times build=\S+s check=\S+s write=\S+s", loud.stderr)
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)

    def test_ising_a_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        cfg = {"kind": "ising-a", "topology": {"preset": "ring", "n_vertices": 4},
               "schedule": {"kind": "periodic", "steps": [[0, 1, 1], [1, 2, -1], [0, 3, 1]]},
               "start": "1000", "steps": 7}
        runs = run_at_warning_and_info(tmp_path, ["ising-a", "c.json", "--out", "a.csv"],
                                       "a.csv", cfg)
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        assert "ising-a: vertices=4 steps=7" in loud.stderr
        assert re.search(r"ising-a: stage times evolve=\S+s check=\S+s write=\S+s", loud.stderr)
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)

    def test_ising_b_info_log_counts_edge_patterns(self, tmp_path):
        cfg = {"kind": "ising-b", "topology": {"preset": "fully_connected", "n_vertices": 4},
               "start": {"vertices": "1000", "edges": "101100"}, "steps": 5,
               "edge_rule": {"seeded_random": 3}}
        runs = run_at_warning_and_info(tmp_path, ["ising-b", "c.json", "--out", "b.csv"],
                                       "b.csv", cfg)
        (quiet, quiet_csv), (loud, loud_csv) = runs
        assert quiet.stderr == ""
        assert "ising-b: bits=10 steps=5 edge_patterns=64" in loud.stderr
        assert (loud.stdout, loud_csv) == (quiet.stdout, quiet_csv)

    @pytest.mark.parametrize("rule", ["frozen", "cyclic", {"seeded_random": 11}])
    def test_large_run_builds_no_full_size_table(self, tmp_path, capsys, monkeypatch, rule):
        topo = ising.GraphTopology.ring(9)  # 18 bits
        if rule == "frozen":
            pattern = ising.frozen_pattern_rule(topo)
        elif rule == "cyclic":
            pattern = ising.cyclic_pattern_rule(topo)
        else:
            pattern = ising.seeded_pattern_rule(topo, 11)
        lifted = ising.lift_pattern_rule(topo, pattern)
        combined = ising.edge_update_compose(ising.model_b_transfer(topo), lifted, topo)
        # vertex bits 110010001 and edge bits 101000011, bit k as character k
        index, phase, orbit = 0b100010011 | 0b110000101 << 9, 0, []
        for _ in range(25):
            orbit.append((index, phase))
            index, ph = combined.apply(index)
            phase = (phase + ph) % 4

        def no_table(*args, **kwargs):
            raise AssertionError("a 2^bits table was built")

        for name in ("model_b_transfer", "lift_pattern_rule"):
            monkeypatch.setattr(ising, name, no_table)
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-b", "topology": {"preset": "ring", "n_vertices": 9},
            "start": {"vertices": "110010001", "edges": "101000011"}, "steps": 24,
            "edge_rule": rule,
        })
        out = tmp_path / "b.csv"
        assert run(["ising-b", cfg, "--out", str(out)]) == 0
        assert out.read_text() == spin_trajectory_csv(orbit, 9, 9)
        assert capsys.readouterr().out == (
            f"ising-b: bits=18 steps=24 unitary=True exponential_dev=skipped out={out}\n"
        )

    def test_checked_run_reads_an_exact_zero_deviation(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-b", "topology": {"preset": "ring", "n_vertices": 5},
            "start": {"vertices": "10110", "edges": "01101"}, "steps": 9, "edge_rule": "cyclic",
        })
        out = tmp_path / "b.csv"
        assert run(["ising-b", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"ising-b: bits=10 steps=9 unitary=True exponential_dev=0.000e+00 out={out}\n"
        )

    @pytest.mark.parametrize(
        "schedule, steps",
        [
            ({"kind": "periodic", "steps": [[0, 1, 1], [0, 2, 1]]}, 3),  # (0,2) not an edge
            ({"kind": "explicit", "steps": [[0, 1, 1]]}, 2),  # one step, two asked for
            ({"kind": "seeded_random", "seed": 1, "pool": [[1, 3]]}, 1),  # vertex 3 absent
        ],
    )
    def test_schedule_that_does_not_fit_exits_2(self, tmp_path, capsys, schedule, steps):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-a", "topology": {"preset": "path", "n_vertices": 3},
            "schedule": schedule, "steps": steps,
        })
        assert run(["ising-a", cfg, "--out", str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: schedule:")

    def test_ising_a_vertex_limit_checked_before_any_table(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-a", "topology": {"preset": "path", "n_vertices": 25},
            "schedule": {"kind": "periodic", "steps": [[0, 1, 1]]}, "steps": 1,
        })
        assert run(["ising-a", cfg, "--out", str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: topology: 25 vertices")

    def test_topology_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "kind": "ising-b", "topology": str(tmp_path),
        })
        assert run(["ising-b", cfg, "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path}: cannot read")


class TestGup:
    def test_report_schema_and_exit(self, tmp_path):
        out = tmp_path / "g.json"
        assert (
            run(["gup", "--sites", "64", "--samples", "40", "--out", str(out)]) == 0
        )
        doc = json.loads(out.read_text())
        assert doc["robertson_violations"] == 0
        assert 0.0 <= doc["paper_bound_holds_fraction"] <= 1.0
        assert doc["bound_min_dx"] == pytest.approx(2**-0.5)
        assert "sharp_state_counterexample" in doc
        assert doc["sharp_state_counterexample"]["satisfies_deformed_bound"] is False

    def test_open_boundary_minimum_at_the_widest_member(self, tmp_path):
        # only the widest default member (16 at 128 sites) satisfies the deformed
        # bound with an open boundary; a minimum at the wide end stands
        out = tmp_path / "g.json"
        assert run(["gup", "--sites", "128", "--boundary", "open", "--samples", "20",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        widest = doc["family"][-1]
        assert widest["width"] == 16 and widest["satisfies_deformed_bound"]
        assert doc["realized_min_dx"] == widest["delta_x"]

    def test_info_log_reports_stages_without_changing_outputs(self, tmp_path):
        src = str(Path(ontoca.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "ontoca.cli", "gup", "--sites", "64", "--samples", "20",
                "--boundary", "open", "--out", "gup.json"]
        runs = []
        for level in ("WARNING", "INFO"):
            workdir = tmp_path / level
            workdir.mkdir()
            env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
            done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                                  check=True)
            runs.append((done, (workdir / "gup.json").read_bytes()))
        (quiet, quiet_json), (loud, loud_json) = runs
        assert quiet.stderr == ""
        assert "gup: sites=64 samples=20 boundary=open blocks=1 rows_per_block=20" in loud.stderr
        assert re.search(r"gup: stage times family=\S+s samples=\S+s write=\S+s", loud.stderr)
        assert (loud.stdout, loud_json) == (quiet.stdout, quiet_json)

    def test_each_in_process_call_applies_ontoca_log(self, tmp_path):
        # basicConfig alone kept the level of the first call for the whole process
        src = str(Path(ontoca.__file__).resolve().parents[1])
        script = (
            "import os, sys\n"
            "from ontoca import cli\n"
            "argv = ['gup', '--sites', '32', '--samples', '4', '--out', 'g.json']\n"
            "for level in (None, 'INFO', None, 'info'):\n"
            "    os.environ.pop('ONTOCA_LOG', None)\n"
            "    if level:\n"
            "        os.environ['ONTOCA_LOG'] = level\n"
            "    print('-- call', level, file=sys.stderr, flush=True)\n"
            "    assert cli.main(argv) == 0\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "ONTOCA_LOG"}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
                              check=True)
        calls = done.stderr.split("-- call ")[1:]
        assert [c.split("\n", 1)[0] for c in calls] == ["None", "INFO", "None", "info"]
        for text, loud in zip(calls, (False, True, False, True)):
            assert ("gup: stage times family=" in text) == loud
            assert ("gup: sites=32 samples=4 boundary=periodic" in text) == loud
        assert done.stdout.count("gup: sites=32 samples=4 ") == 4

    @pytest.mark.parametrize("sites, samples, blocks, rows", [
        (256, 40, 3, 16),  # 2**12 amplitudes a block: 16 rows of 256, the last one 8
        (256, 256, 16, 16),
        (256, 257, 17, 16),
        (4096, 3, 3, 1),  # at least one row a block
    ])
    def test_info_log_counts_sample_blocks(self, tmp_path, caplog, sites, samples, blocks, rows):
        caplog.set_level(logging.INFO, logger="ontoca")
        assert run(["gup", "--sites", str(sites), "--samples", str(samples),
                    "--out", str(tmp_path / "g.json")]) == 0
        assert (f"gup: sites={sites} samples={samples} boundary=periodic blocks={blocks} "
                f"rows_per_block={rows}") in caplog.text


class TestParserOncePerProcess:
    """main reuses one argparse tree, built on first use."""

    def test_built_once(self):
        from ontoca.cli import build_parser

        assert build_parser() is build_parser()

    def test_a_flag_does_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert run(["gup", "--sites", "32", "--samples", "10", "--boundary", "open",
                    "--out", out]) == 0
        assert "gup: sites=32 samples=10 " in capsys.readouterr().out
        assert run(["gup", "--samples", "10", "--out", out]) == 0
        assert "gup: sites=64 samples=10 " in capsys.readouterr().out
        from ontoca.cli import build_parser

        args = build_parser().parse_args(["gup"])
        assert (args.sites, args.boundary, args.samples, args.out) == (None, None, None, None)

    def test_a_parse_error_is_followed_by_a_good_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gup", "--sites", "abc"])
        assert exc.value.code == 2
        assert "--sites: invalid int value" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(["gup", "--sites", "32", "--samples", "4",
                    "--out", str(tmp_path / "g.json")]) == 0
        captured = capsys.readouterr()
        assert "gup: sites=32 samples=4 " in captured.out
        assert captured.err == ""


class TestVerifyAll:
    def test_passes_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert run(["verify-all", "--seed", "3", "--out", str(out1)]) == 0
        assert run(["verify-all", "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["all_passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_info_log_reports_check_times_without_changing_outputs(self, tmp_path):
        src = str(Path(ontoca.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "ontoca.cli", "verify-all", "--seed", "1"]
        runs = []
        for level in ("WARNING", "INFO"):
            env = {**os.environ, "PYTHONPATH": src, "ONTOCA_LOG": level}
            runs.append(subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                                       text=True, check=True))
        quiet, loud = runs
        assert quiet.stderr == ""
        names = [c["name"] for c in json.loads(quiet.stdout.rsplit("\n", 2)[0])["checks"]]
        timed = re.findall(r"verify-all: check (\S+) took \S+s", loud.stderr)
        assert timed == names
        assert loud.stdout == quiet.stdout


class TestNumericInputs:
    """Counts must be integers in range and matrix and vector entries exact integers."""

    H2_PAIR = {"separable": [{"preset": "H2"}, {"preset": "H2"}]}

    @pytest.mark.parametrize("key, rows, entry", [("S", [[0, 1.0], [1, 0]], "S[0][1]"),
                                                  ("A", [[0, 0], [True, 0]], "A[1][0]")])
    def test_preset_with_a_bad_entry_names_the_entry(self, tmp_path, capsys, key, rows, entry):
        model = {"preset": "H2", "S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]], key: rows}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "evolve", "model": model}))  # keeps 1.0 a JSON float
        assert run(["evolve", str(cfg), "--out", str(tmp_path / "o.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model: {entry} must be an integer, got ")
        assert "disagree" not in err

    @pytest.mark.parametrize(
        "command, fields, flags, path",
        [
            ("evolve", {"steps": "abc"}, [], "steps"),
            ("evolve", {"steps": 1.5}, [], "steps"),
            ("evolve", {}, ["--steps", "0"], "steps"),
            ("evolve", {"model": {"S": [[0, 1.5], [1.5, 0]], "A": [[0, 0], [0, 0]]}}, [], "model"),
            ("evolve", {"model": {"S": [[True, 0], [0, 0]], "A": [[0, 0], [0, 0]]}}, [], "model"),
            ("evolve", {"model": {"S": [[0, 0], [0, 0]], "A": [["0", 0], [0, 0]]}}, [], "model"),
            ("evolve", {"model": {"preset": "H2", "dim": 2.5}}, [], "model"),
            ("evolve", {"psi0": [[1, 0.5], 0]}, [], "psi0"),
            ("evolve", {"psi1": [0, "1"]}, [], "psi1"),
            ("ontology-scan", {"max_steps": 0}, [], "max_steps"),
            ("ontology-scan", {"max_steps": "8"}, [], "max_steps"),
            ("multitime", {"mode": "first_order", "state": [1, 0, 0, 0], "steps": 0}, [], "steps"),
            ("multitime", {"mode": "second_order", "prev": [1, 0, 0, 0], "curr": [0, 1, 0, 0],
                           "steps": "x"}, [], "steps"),
            ("gup", {}, ["--sites", "0"], "sites"),
            ("gup", {"sites": 0}, [], "sites"),
            ("gup", {}, ["--samples", "0"], "samples"),
            ("gup", {"samples": 0}, [], "samples"),
            ("gup", {}, ["--scale", "0"], "scale"),
            ("gup", {"scale": 0}, [], "scale"),
            ("gup", {"scale": "1"}, [], "scale"),
            ("gup", {"seed": 1.7}, [], "seed"),
            ("gup", {"seed": "3"}, [], "seed"),
            ("gup", {"widths": ["x"]}, [], "widths"),
            ("gup", {"widths": []}, [], "widths"),
            ("gup", {"widths": [4, -1]}, [], "widths"),
            ("gup", {"widths": [100]}, [], "widths"),
            ("gup", {"boundary": "closed"}, [], "boundary"),
            ("verify-all", {"seed": 1.7}, [], "seed"),
            ("verify-all", {"seed": "3"}, [], "seed"),
            ("dispersion", {"sweep": {"epsilons": ["abc"]}}, [], "sweep.epsilons[0]"),
            ("dispersion", {"sweep": {"epsilons": [0.1, 0]}}, [], "sweep.epsilons[1]"),
            ("dispersion", {"sweep": {"epsilons": [0.1, "0.05"]}}, [], "sweep.epsilons[1]"),
            ("dispersion", {"sweep": {"epsilons": 0.1}}, [], "sweep.epsilons"),
            ("dispersion", {"sweep": {"epsilons": []}}, [], "sweep.epsilons"),
            ("dispersion", {"sweep": {"epsilons": [0.1], "scale_product": 0}}, [],
             "sweep.scale_product"),
            ("dispersion", {"sweep": {"epsilons": [0.1], "scale_product": "abc"}}, [],
             "sweep.scale_product"),
            ("ontology-scan", {"basis": [[1, 0], [0, 0]]}, [], "basis[1]"),
            ("ontology-scan", {"basis": [[1, 0, 0], [0, 1, 0]]}, [], "basis[0]"),
            ("dispersion", {"sweep": {"epsilons": [0.1], "psi0": [1, 0, 0]}}, [], "sweep.psi0"),
            ("dispersion", {"sweep": {"epsilons": [0.1], "scale_prodcut": 2.0}}, [],
             "sweep.scale_prodcut"),
            ("evolve", {"step": 3}, [], "step"),
            ("evolve", {"format": "xml"}, [], "format"),
            ("evolve", {"psi1": [1, 0, 0]}, [], "psi1"),
            ("ontology-scan", {"steps": 5}, [], "steps"),
            ("dispersion", {"format": "json"}, [], "format"),
            ("gup", {"format": "csv"}, [], "format"),
            ("gup", {"scale": 5e-324}, [], "scale"),
            ("gup", {"scale": 1e300}, [], "scale"),
            ("gup", {"scale": 10**400}, [], "scale"),
            ("gup", {"widths": [2, 1e-200]}, [], "widths"),
            ("dispersion", {"sweep": {"epsilons": [0.1, 1e-300]}}, [], "sweep.epsilons[1]"),
            ("dispersion", {"sweep": {"epsilons": [0.1], "scale_product": 1e300}}, [],
             "sweep.epsilons[0]"),
            ("gup", {"boundary": True}, [], "boundary"),
            ("verify-all", {}, [], "model"),
            ("multitime", {"mode": "first_order", "state": [1, 0, 0, 0], "stpes": 2}, [],
             "stpes"),
            ("multitime", {"mode": "first_order", "state": [1, 0, 0, 0],
                           "coupling": {"separable": [{"preset": "H2"}, 2]}}, [],
             "coupling.separable"),
        ],
    )
    def test_bad_input_names_config_path(self, tmp_path, capsys, command, fields, flags, path):
        doc = {"kind": command, "model": {"preset": "H2"}}
        if command == "multitime":
            doc = {"kind": command, "coupling": self.H2_PAIR}
        elif command == "gup":
            doc = {"kind": command, "sites": 32, "samples": 4}
        cfg = write_json(tmp_path / "c.json", {**doc, **fields})
        assert run([command, cfg, *flags, "--out", str(tmp_path / "o.out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")


class TestLongIntegers:
    """Parts and config entries past Python's 4300-digit int<->str limit are
    read and written in full, and main leaves that limit as it found it."""

    LONG = "1" + "0" * 4400 + "7"  # 4402 digits
    MODEL = {"S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]]}

    @pytest.fixture(autouse=True)
    def default_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(limit)

    @staticmethod
    def write_config(path, doc, text):
        """`doc` as JSON, with every "@LONG" ("-@LONG") string replaced by the
        bare digits `text` (with a minus sign)."""
        path.write_text(json.dumps(doc).replace('"-@LONG"', "-" + text).replace('"@LONG"', text))
        return str(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evolve_with_long_parts_exits_0(self, tmp_path, capsys, fmt):
        cfg = self.write_config(tmp_path / "c.json", {
            "kind": "evolve", "model": self.MODEL, "psi0": [["@LONG", 0], [1, 0]],
            "psi1": [[0, "@LONG"], [0, 0]], "steps": 3, "format": fmt,
        }, self.LONG)
        out = tmp_path / f"e.{fmt}"
        assert run(["evolve", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            rows = f"0,0,{self.LONG},0\n0,1,1,0\n1,0,0,{self.LONG}\n"
            assert text.startswith("n,alpha,re,im\n" + rows)
        else:
            assert re.search(rf"\[\s*0,\s*0,\s*{self.LONG},\s*0\s*\]", text)
        assert capsys.readouterr().out.startswith("evolve: dim=2 steps=3 Q=")

    @pytest.mark.parametrize("doc", [
        {"psi0": [["@LONG", 0], [1, 0]]},
        {"psi1": [[0, 0], ["-@LONG", 1]]},
        {"model": {"S": [["@LONG", 1], [1, 0]], "A": [[0, 0], [0, 0]]}},
        {"model": {"S": [[0, "@LONG"], [0, 0]], "A": [[0, 0], [0, 0]]}},
        {"model": {"S": [[0, 1], [1, 0]], "A": [["@LONG", 0], [0, 0]]}},
        {"model": {"S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]], "dim": "@LONG"}},
        {"model": {"preset": "@LONG"}},
        {"steps": "-@LONG"},
        {"format": "@LONG"},
        {"out": "@LONG"},
        {"schema_version": "@LONG"},
        {"psi0": "@LONG"},
    ], ids=str)
    def test_a_5000_digit_entry_exits_0_or_2(self, tmp_path, capsys, doc):
        doc = {"kind": "evolve", "model": self.MODEL, "psi0": [[1, 0], [0, 0]], "steps": 2,
               "out": str(tmp_path / "e.csv"), **doc}
        cfg = self.write_config(tmp_path / "c.json", doc, "7" * 5000)
        code = run(["evolve", cfg])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert code == 0 or err.startswith("config error: ")


class TestUnwritableOutput:
    """An output path that is a directory exits 2 naming its key and leaves no temp file."""

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["gup", "--sites", "32", "--samples", "2", "--out", "{dir}"], None, "out"),
            (["evolve", "--preset", "H2", "--out", "{dir}"], None, "out"),
            (["verify-all", "c.json"], {"out": "{dir}"}, "out"),
            (["dispersion", "c.json", "--out", "d.csv"],
             {"model": {"preset": "H2"}, "sweep": {"epsilons": [0.2], "out": "{dir}"}},
             "sweep.out"),
        ],
    )
    def test_directory_as_output_exits_2(self, tmp_path, capsys, monkeypatch, argv, config, key):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "target"
        target.mkdir()
        if config is not None:
            text = json.dumps(config).replace("{dir}", str(target))
            (tmp_path / "c.json").write_text(text)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run([arg.replace("{dir}", str(target)) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: cannot write")
        written = {"d.csv"} if key == "sweep.out" else set()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*before, *written})
        assert list(target.iterdir()) == []


class TestOntologyScanOnePass:
    """The norm trace comes from the scan itself; no second `evolve` runs."""

    @pytest.mark.parametrize(
        "fields, outcome",
        [
            ({"model": {"preset": "H3"}}, "ontological"),
            ({"model": {"preset": "H2"}, "psi0": [1, 0], "psi1": [1, 1]}, "fails at psi1"),
            ({"model": {"preset": "H2"}, "psi0": [0, 0], "psi1": [1, 0]}, "fails at psi0"),
            ({"model": {"preset": "H2"}, "psi0": [1, 0], "psi1": [1, 0]}, "fails later"),
            ({"model": {"preset": "H4"}, "max_steps": 3}, "max_steps exhausted"),
        ],
    )
    def test_json_matches_the_two_pass_route(self, tmp_path, monkeypatch, fields, outcome):
        from ontoca import cli, ontology
        from ontoca.gaussian import CAPairState, GaussianIntVector, evolve
        from ontoca.serialize import model_from_mapping, vector_from_config

        model = model_from_mapping(fields["model"])
        psi0 = (vector_from_config(fields["psi0"]) if "psi0" in fields
                else GaussianIntVector.basis(model.dim, 0))
        psi1 = (vector_from_config(fields["psi1"]) if "psi1" in fields
                else GaussianIntVector.basis(model.dim, 1))
        report = ontology.detect_phased_permutation(
            model, psi0, psi1, ontology.standard_basis_rays(model.dim),
            max_steps=fields.get("max_steps"))
        assert outcome == {
            (True, None): "ontological",
            (False, 1): "fails at psi1",
            (False, 0): "fails at psi0",
            (False, 2): "fails later",
            (False, None): "max_steps exhausted",
        }[report.is_ontological, report.failure_step]
        # the route the scan replaced: a second run of max(steps_scanned, 1) steps
        trace = ontology.norm_trace(evolve(CAPairState(psi0, psi1), model,
                                           max(report.steps_scanned, 1)))
        expected = dumps_json({
            "schema_version": 1,
            "kind": "ontology-scan",
            "ontological": report.is_ontological,
            "exact_period": report.exact_state_period,
            "ray_period": report.ray_period,
            "ray_cycle": [str(ray) for ray in report.ray_cycle],
            "failure_step": report.failure_step,
            "norm_trace": list(trace),
        })

        def no_evolve(*args, **kwargs):
            raise AssertionError("ontology-scan ran a second evolve")

        monkeypatch.setattr(cli, "evolve", no_evolve)
        cfg = write_json(tmp_path / "c.json", {"kind": "ontology-scan", **fields})
        out = tmp_path / "r.json"
        assert run(["ontology-scan", cfg, "--out", str(out)]) == 0
        assert out.read_text() == expected


RING3 = {"n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}


class TestDocumentKeys:
    """A key that a model, topology or schedule document does not read exits 2,
    named by its path."""

    @pytest.mark.parametrize(
        "command, fields, path",
        [
            ("evolve", {"model": {"preset": "H2", "dimm": 3}}, "model.dimm"),
            ("evolve", {"model": {"S": [[0, 1], [1, 0]], "A": [[0, 0], [0, 0]], "s": [[0]]}},
             "model.s"),
            ("ontology-scan", {"model": {"preset": "H4", "Preset": "H2"}}, "model.Preset"),
            ("multitime", {"mode": "first_order", "state": [1, 0, 0, 0], "coupling": {
                "separable": [{"preset": "H2"}, {"preset": "H2", "dimm": 2}]}},
             "coupling.separable.dimm"),
            ("ising-a", {"topology": {**RING3, "edge": [[1, 2]]},
                         "schedule": {"kind": "periodic", "steps": [[0, 1, 1]]}}, "topology.edge"),
            ("ising-b", {"topology": {"preset": "ring", "n_vertices": 3, "edges": [[0, 1]]}},
             "topology.edges"),
            ("ising-a", {"topology": RING3,
                         "schedule": {"kind": "seeded_random", "seed": 1, "pool": [[0, 1]],
                                      "sed": 4}}, "schedule.sed"),
            ("ising-a", {"topology": RING3,
                         "schedule": {"kind": "explicit", "steps": [[0, 1, 1]] * 8, "seed": 4}},
             "schedule.seed"),
        ],
    )
    def test_unread_key_exits_2(self, tmp_path, capsys, command, fields, path):
        cfg = write_json(tmp_path / "c.json", {"kind": command, **fields})
        assert run([command, cfg, "--out", str(tmp_path / "o.out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: unknown key")

    def test_model_files_carry_schema_version(self, tmp_path, capsys):
        from ontoca.ontology import preset_hamiltonian
        from ontoca.serialize import model_to_mapping

        written = model_to_mapping(preset_hamiltonian("H3"))
        assert "schema_version" in written
        for name, doc, code in (("m.json", written, 0),
                                ("v2.json", {**written, "schema_version": 2}, 2),
                                ("typo.json", {**written, "dimm": 3}, 2)):
            model_file = write_json(tmp_path / name, doc)
            cfg = write_json(tmp_path / "c.json", {"kind": "evolve", "model": model_file})
            assert run(["evolve", cfg, "--out", str(tmp_path / "a.csv")]) == code
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"config error: {tmp_path / 'v2.json'}.schema_version:")
        assert err[1].startswith(f"config error: {tmp_path / 'typo.json'}.dimm: unknown key")


def test_every_flag_overrides_a_key_its_subcommand_reads():
    import argparse

    from ontoca.cli import CONFIG_KEYS, build_parser

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(CONFIG_KEYS)
    for name, sub in commands.choices.items():
        flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        keys = {"model" if dest == "preset" else dest for dest in flags}
        read = CONFIG_KEYS[name]
        if isinstance(read, dict):  # one key set per mode; a flag is read in some mode
            read = set().union(*read.values())
        assert keys <= set(read), name
        assert "out" in keys, name


# =============================================================================
# Config fuzzers for evolve, ontology-scan, dispersion, gup and verify-all
# =============================================================================


def _run_config_twice(command, doc):
    """Run `ontoca command c.json` twice in a fresh working directory.

    The strings "@OUT" and "@DIR" anywhere in `doc` stand for a new file and
    for an existing directory there.  Returns each run's (exit code, stdout,
    stderr, artifacts by name) and what is left in the directory afterwards.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        tmp = Path(tmp)
        (tmp / "dir").mkdir()
        text = json.dumps(doc)
        for mark, place in (("@OUT", tmp / "o.out"), ("@DIR", tmp / "dir")):
            text = text.replace(json.dumps(mark), json.dumps(str(place)))
        (tmp / "c.json").write_text(text)
        results = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command, str(tmp / "c.json")])
            written = {}
            for path in tmp.iterdir():
                if path.is_file() and path.name != "c.json":
                    written[path.name] = path.read_bytes()
                    path.unlink()
            results.append((code, out.getvalue(), err.getvalue(), written))
        left = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*"))
    return results, left


def _check_runs(results, left, refused=False):
    code, _, err, _ = results[0]
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("config error: "), err
    if refused:
        assert code == 2, "a misspelled document key was not refused"
    assert results[0] == results[1]
    assert left == ["c.json", "dir"]


# a path, an existing directory, or a value that is no path
_OUT_VALUE = st.sampled_from(["@OUT", "@OUT", "@DIR", "@DIR", "", None, 0])


# mostly a moderate number, sometimes one at the edge of the float range
_FLOAT = st.one_of(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0),
                   st.sampled_from([5e-324, 1e-200, 1e300]))


def _maybe(doc, draw, optional):
    """Add each optional key to `doc` mostly, and now and then one unread key."""
    for key, strategy in optional.items():
        if draw(st.integers(0, 5)) < 5:
            doc[key] = draw(strategy)
    if draw(st.integers(0, 5)) == 5:
        doc[draw(st.sampled_from(["step", "seed", "format", "model", "basis", "sweep"]))] = 1
    return doc


def _fuzz_vector(dim):
    """Mostly `dim` components, sometimes one more or one fewer, sometimes junk."""
    return _or_junk(st.sampled_from([dim, dim, dim, dim + 1, dim - 1]).flatmap(
        lambda n: st.lists(_entry(), min_size=n, max_size=n)))


@st.composite
def _models(draw):
    """A model of dim <= 4 and its dim: a preset or a self-adjoint integer matrix."""
    preset = draw(st.sampled_from([None, "H2", "H3", "H4"]))
    if preset is not None:
        model, dim = {"preset": preset}, int(preset[1])
    else:
        dim = draw(st.integers(1, 4))
        square = st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
                          min_size=dim, max_size=dim)
        s, a = draw(square), draw(square)
        model = {"S": [[s[r][c] + s[c][r] for c in range(dim)] for r in range(dim)],
                 "A": [[a[r][c] - a[c][r] for c in range(dim)] for r in range(dim)]}
    if draw(st.integers(0, 5)) == 5:
        model[draw(st.sampled_from(_MISSPELT_DOCUMENT_KEYS))] = dim
    return model, dim


@st.composite
def _evolve_configs(draw):
    model, dim = draw(_models())
    doc = {"kind": "evolve", "model": draw(_or_junk(st.just(model)))}
    return _maybe(doc, draw, {
        "psi0": _fuzz_vector(dim),
        "psi1": _fuzz_vector(dim),
        "steps": _or_junk(st.integers(0, 8)),
        "format": _or_junk(st.sampled_from(["csv", "json"])),
        "out": _OUT_VALUE,
    })


@st.composite
def _scan_configs(draw):
    model, dim = draw(_models())
    doc = {"kind": "ontology-scan", "model": draw(_or_junk(st.just(model)))}
    vectors = st.one_of(_fuzz_vector(dim), st.just([0] * dim))
    basis = st.one_of(st.just("standard"), st.lists(vectors, max_size=3))
    return _maybe(doc, draw, {
        "psi0": _fuzz_vector(dim),
        "psi1": _fuzz_vector(dim),
        "basis": _or_junk(basis),
        "max_steps": _or_junk(st.integers(0, 8)),
        "out": _OUT_VALUE,
    })


@st.composite
def _dispersion_configs(draw):
    # H3 sits on the critical |lambda| = 2, where a sweep is a model error (exit 1)
    model, dim = draw(st.sampled_from([({"preset": "H2"}, 2), ({"preset": "H4"}, 4)]))
    doc = {"kind": "dispersion", "model": draw(_or_junk(st.just(model)))}
    sweep = {}
    _maybe(sweep, draw, {
        "epsilons": _or_junk(st.lists(_or_junk(_FLOAT.filter(lambda x: x <= 1)), max_size=3)),
        "scale_product": _or_junk(_FLOAT),
        "psi0": _fuzz_vector(dim),
        "out": _OUT_VALUE,
    })
    return _maybe(doc, draw, {"sweep": _or_junk(st.just(sweep)), "out": _OUT_VALUE})


@st.composite
def _gup_configs(draw):
    doc = {"kind": "gup"}
    return _maybe(doc, draw, {
        "sites": _or_junk(st.integers(0, 64)),
        "samples": _or_junk(st.integers(1, 4)),
        "scale": _or_junk(_FLOAT),
        "boundary": _or_junk(st.sampled_from(["periodic", "open"])),
        "seed": _or_junk(st.integers(0, 9)),
        "widths": _or_junk(st.lists(_FLOAT.map(lambda x: 2 * x), min_size=1, max_size=3)),
        "out": _OUT_VALUE,
    })


@st.composite
def _verify_all_configs(draw):
    return _maybe({"kind": "verify-all"}, draw, {
        "seed": _or_junk(st.integers(-1, 3)),
        "out": _OUT_VALUE,
    })


class TestConfigFuzz:
    """Every subcommand config exits 0 or 2, never with a traceback, and equal
    configs write equal bytes; an output that cannot be written leaves no
    temp file.  Inputs stay small: dim <= 4, gup <= 64 sites and 4 samples."""

    @given(_evolve_configs())
    @settings(max_examples=120, deadline=None)
    def test_evolve(self, doc):
        _check_runs(*_run_config_twice("evolve", doc), refused=_misspelt(doc["model"]))

    @given(_scan_configs())
    @settings(max_examples=120, deadline=None)
    def test_ontology_scan(self, doc):
        _check_runs(*_run_config_twice("ontology-scan", doc), refused=_misspelt(doc["model"]))

    @given(_dispersion_configs())
    @settings(max_examples=80, deadline=None)
    def test_dispersion(self, doc):
        _check_runs(*_run_config_twice("dispersion", doc))

    @given(_gup_configs())
    @settings(max_examples=60, deadline=None)
    def test_gup(self, doc):
        _check_runs(*_run_config_twice("gup", doc))

    @given(_verify_all_configs())
    @settings(max_examples=8, deadline=None)
    def test_verify_all(self, doc):
        # each valid example runs the whole battery twice
        _check_runs(*_run_config_twice("verify-all", doc))
