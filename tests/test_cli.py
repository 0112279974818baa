"""End-to-end command line tests: outputs, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinbath.cli import main
from spinbath.diagnostics import RateReport

ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(tmp_path, doc, command, *argv, name="scenario.json", outname=None):
    cfg = write_cfg(tmp_path, doc, name=name)
    out = tmp_path / (outname or (name + ".out"))
    code = main([command, "--config", str(cfg), "--out", str(out), *argv])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def parse_csv(text):
    comments = {}
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            comments[key] = val
        else:
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return comments, header, rows


def z_pair_doc(**extra):
    doc = {
        "model": {
            "kind": "independent",
            "axes": ["z"],
            "gamma1": {"zz": 1.0},
            "gamma2": {"zz": 1.0},
        },
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
    }
    doc.update(extra)
    return doc


def dephasing_doc(**extra):
    doc = {
        "model": {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}},
        "ensembles": {"j1": 0.5},
        "state": {"kind": "plus_x"},
    }
    doc.update(extra)
    return doc


class TestRateCommand:
    def test_uniform_pair_values(self, tmp_path):
        code, text = run_cli(tmp_path, z_pair_doc(), "rate")
        assert code == 0
        comments, header, rows = parse_csv(text)
        assert header[:6] == [
            "state",
            "normalization",
            "rate_numeric",
            "rate_analytic",
            "rate_estimate",
            "rate_closed_form",
        ]
        row = rows[0]
        assert row["state"] == "uniform(Ntilde=1)"
        assert row["normalization"] == "composite"
        assert float(row["rate_analytic"]) == pytest.approx(8 / 3, rel=1e-12)
        assert float(row["rate_numeric"]) == pytest.approx(8 / 3, rel=1e-10)
        assert float(row["rate_estimate"]) == pytest.approx(4 / 3, rel=1e-12)
        assert row["rate_closed_form"] == ""
        assert float(row["contrib_zz"]) == pytest.approx(8 / 3, rel=1e-12)

    def test_provenance_header(self, tmp_path):
        code, text = run_cli(tmp_path, z_pair_doc(), "rate", "--seed", "7")
        assert code == 0
        comments, _, _ = parse_csv(text)
        assert comments["tool"].startswith("spinbath ")
        assert comments["command"] == "rate"
        assert len(comments["config_sha256"]) == 64
        assert comments["seed"] == "7"
        assert set(comments) == {"tool", "command", "config_sha256", "seed"}

    def test_seed_defaults_to_none(self, tmp_path):
        _, text = run_cli(tmp_path, z_pair_doc(), "rate")
        comments, _, _ = parse_csv(text)
        assert comments["seed"] == "none"

    def test_reruns_byte_identical(self, tmp_path):
        _, first = run_cli(tmp_path, z_pair_doc(), "rate", outname="a.csv")
        _, second = run_cli(tmp_path, z_pair_doc(), "rate", outname="b.csv")
        assert first == second
        assert first.encode() == second.encode()

    def test_json_format(self, tmp_path):
        code, text = run_cli(tmp_path, z_pair_doc(), "rate", "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["command"] == "rate"
        assert len(doc["config_sha256"]) == 64
        idx = doc["columns"].index("rate_analytic")
        assert doc["rows"][0][idx] == pytest.approx(8 / 3, rel=1e-12)

    def test_config_output_block_used(self, tmp_path):
        target = tmp_path / "fromconfig.csv"
        doc = z_pair_doc(output={"path": str(target), "format": "csv"})
        cfg = write_cfg(tmp_path, doc)
        assert main(["rate", "--config", str(cfg)]) == 0
        assert target.exists()

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, z_pair_doc())
        assert main(["rate", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "rate_analytic" in text

    def test_coupled_state_reports_closed_form(self, tmp_path):
        doc = {
            "model": {
                "kind": "common",
                "axes": ["x", "z"],
                "gamma": {"xx": 0.1, "zz": 1.0},
                "lambda": 1.0,
            },
            "ensembles": {"j1": 1, "j2": 1},
            "state": {"kind": "coupled", "L": 1},
        }
        code, text = run_cli(tmp_path, doc, "rate")
        assert code == 0
        _, _, rows = parse_csv(text)
        row = rows[0]
        assert row["normalization"] == "total_spin"
        assert float(row["rate_closed_form"]) == pytest.approx(0.2, rel=1e-12)
        assert float(row["rate_analytic"]) == pytest.approx(0.2, rel=1e-9)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["rate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(json.dumps(z_pair_doc()).replace("uniform", "unif\u00f6rm").encode("latin-1"))
        assert main(["rate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_integer_past_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "digits.json"
        cfg.write_text('{"model": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["rate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_integer_too_large_for_float(self, tmp_path, capsys):
        doc = z_pair_doc()
        doc["ensembles"]["j1"] = 10**400
        code, _ = run_cli(tmp_path, doc, "rate")
        assert code == 2
        assert "ensembles.j1" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--out", "output.path"])
    def test_unwritable_output(self, tmp_path, capsys, via):
        target = str(tmp_path / "missing" / "out.csv")
        doc = z_pair_doc(output={"path": target}) if via == "output.path" else z_pair_doc()
        argv = ["--out", target] if via == "--out" else []
        assert main(["rate", "--config", str(write_cfg(tmp_path, doc)), *argv]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_lambda_out_of_range(self, tmp_path):
        doc = {
            "model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 2.5},
            "ensembles": {"j1": 1, "j2": 1},
            "state": {"kind": "uniform"},
        }
        code, _ = run_cli(tmp_path, doc, "rate")
        assert code == 2

    def test_indefinite_damping_matrix(self, tmp_path):
        doc = z_pair_doc()
        doc["model"] = {
            "kind": "independent",
            "axes": ["x", "z"],
            "gamma1": {"xx": 0.1, "zz": 1.0, "xz": 0.5},
        }
        doc["ensembles"] = {"j1": 1}
        doc["state"] = {"kind": "plus_x"}
        code, _ = run_cli(tmp_path, doc, "rate")
        assert code == 2

    def test_unknown_sweep_parameter(self, tmp_path):
        code, _ = run_cli(
            tmp_path, z_pair_doc(sweep={"parameter": "coupling", "values": [1]}), "sweep"
        )
        assert code == 2

    def test_sweep_without_block(self, tmp_path):
        code, _ = run_cli(tmp_path, z_pair_doc(), "sweep")
        assert code == 2

    def test_simulate_without_evolution(self, tmp_path):
        code, _ = run_cli(tmp_path, z_pair_doc(), "simulate")
        assert code == 2

    def test_dfs_without_block(self, tmp_path):
        code, _ = run_cli(tmp_path, z_pair_doc(), "dfs")
        assert code == 2

    def test_rate_without_state(self, tmp_path):
        doc = z_pair_doc()
        del doc["state"]
        code, _ = run_cli(tmp_path, doc, "rate")
        assert code == 2

    def test_snapshots_need_json(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 0.1, "snapshots": True})
        code, _ = run_cli(tmp_path, doc, "simulate")
        assert code == 2

    def test_rate_self_check_tripwire(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "spinbath.cli.entropy_rate_analytic",
            lambda *a, **k: RateReport(1.0, 2.0, {}),
        )
        code, _ = run_cli(tmp_path, z_pair_doc(), "rate")
        assert code == 3

    @pytest.mark.parametrize(
        "numeric,analytic,mismatch",
        [
            # rates of magnitude >= 1: relative to the larger one
            (1e3, 1e3 * (1.0 - 0.9e-6), 0.9e-6),
            (1e3, 1e3 * (1.0 - 1.1e-6), 1.1e-6),
            (-5.0, -5.0 * (1.0 + 1.1e-6), 1.1e-6 / (1.0 + 1.1e-6)),
            # rates below 1 in magnitude: relative to 1
            (1e-3, 1e-3 + 0.9e-6, 0.9e-6),
            (1e-3, 1e-3 + 1.1e-6, 1.1e-6),
            (0.0, -1.1e-6, 1.1e-6),
        ],
    )
    def test_rate_tripwire_boundary(self, tmp_path, monkeypatch, capsys, numeric, analytic, mismatch):
        report = RateReport(numeric, analytic, {})
        assert report.mismatch == pytest.approx(mismatch, rel=1e-6)
        monkeypatch.setattr("spinbath.cli.entropy_rate_analytic", lambda *a, **k: report)
        code, text = run_cli(tmp_path, z_pair_doc(), "rate")
        if mismatch > 1e-6:
            assert code == 3
            assert text == ""
            assert "self-check failed" in capsys.readouterr().err
        else:
            assert code == 0
            _, _, rows = parse_csv(text)
            assert float(rows[0]["rate_numeric"]) == numeric

    def test_integration_abort(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 100.0, "step": 10.0})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 4
        assert text == ""

    def test_step_budget_exceeded(self, tmp_path, capsys):
        doc = dephasing_doc(evolution={"t_final": 1e6, "step": 1e-3})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert "max_steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "block,key,body",
        [
            ("ensembles", "j1", '{"j1": 1, "j1": 2, "j2": 1}'),
            ("model", "gamma1", '{"kind": "independent", "axes": ["z"], '
             '"gamma1": {"zz": 1.0}, "gamma1": {"zz": 0.5}, "gamma2": {"zz": 1.0}}'),
        ],
        ids=["ensembles.j1", "model.gamma1"],
    )
    def test_duplicate_key(self, tmp_path, capsys, block, key, body):
        # json.dumps cannot repeat a key, so the block is spliced in as text
        doc = z_pair_doc()
        del doc[block]
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps(doc)[:-1] + f', "{block}": {body}}}', encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["state", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"duplicate key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_all_sweep_points_failed(self, tmp_path):
        doc = z_pair_doc(sweep={"parameter": "gamma1.zz", "values": [-1.0, -2.0]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 5
        _, _, rows = parse_csv(text)
        assert all(r["error"] for r in rows)
        assert all(r["rate_analytic"] == "" for r in rows)


class TestSweepCommand:
    def test_ntilde_grid_rates(self, tmp_path):
        doc = z_pair_doc(sweep={"parameter": "Ntilde", "values": [1, 2, 3]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, header, rows = parse_csv(text)
        assert header[0] == "Ntilde"
        assert header[-1] == "error"
        for row, nt in zip(rows, (1.0, 2.0, 3.0)):
            assert float(row["Ntilde"]) == nt
            assert float(row["rate_analytic"]) == pytest.approx(4 * nt * (nt + 1) / 3, rel=1e-12)
            assert float(row["rate_estimate"]) == pytest.approx(4 * nt * nt / 3, rel=1e-12)
            assert row["error"] == ""

    def test_lambda_grid_symmetric_about_balance(self, tmp_path):
        doc = {
            "model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
            "ensembles": {"j1": 2, "j2": 2},
            "state": {"kind": "uniform"},
            "sweep": {"parameter": "lambda", "values": [0.5, 1.0, 1.5]},
        }
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        rates = [float(r["rate_analytic"]) for r in rows]
        assert rates[1] == pytest.approx(0.0, abs=1e-13)
        assert rates[0] == pytest.approx(rates[2], rel=1e-12)
        assert rates[0] == pytest.approx(2 * 0.25 * 2 * 3 / 3, rel=1e-12)
        assert rows[1]["rate_numeric"] != "-0"

    def test_coupled_level_grid_closed_forms(self, tmp_path):
        doc = {
            "model": {
                "kind": "common",
                "axes": ["x", "z"],
                "gamma": {"xx": 0.1, "zz": 1.0},
                "lambda": 1.0,
            },
            "ensembles": {"j1": 1, "j2": 1},
            "state": {"kind": "coupled", "L": 0},
            "sweep": {"parameter": "L", "values": [0, 1, 2]},
        }
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        closed = [float(r["rate_closed_form"]) for r in rows]
        np.testing.assert_allclose(closed, [0.0, 0.2, 0.6], atol=1e-12)
        for row in rows:
            assert float(row["rate_analytic"]) == pytest.approx(
                float(row["rate_closed_form"]), abs=1e-9
            )

    def test_threads_do_not_change_bytes(self, tmp_path):
        doc = z_pair_doc(sweep={"parameter": "Ntilde", "values": [1, 1.5, 2, 2.5, 3]})
        _, serial = run_cli(tmp_path, doc, "sweep", "--threads", "1", outname="serial.csv")
        _, pooled = run_cli(tmp_path, doc, "sweep", "--threads", "4", outname="pooled.csv")
        assert serial == pooled

    def test_tripped_point_becomes_error_row(self, tmp_path, monkeypatch):
        import spinbath.cli

        real = spinbath.cli.entropy_rate_analytic

        def rate(psi, *args, **kwargs):
            report = real(psi, *args, **kwargs)
            if len(psi) == 25:  # the Ntilde = 2 point
                report.analytic_rate = report.numeric_rate + 1.0
            return report

        monkeypatch.setattr("spinbath.cli.entropy_rate_analytic", rate)
        doc = z_pair_doc(sweep={"parameter": "Ntilde", "values": [1, 2, 3]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [r["Ntilde"] for r in rows] == ["1", "2", "3"]
        assert rows[1]["error"].startswith("RateMismatchError: ")
        assert rows[1]["rate_numeric"] == rows[1]["rate_analytic"] == ""
        for row, nt in ((rows[0], 1.0), (rows[2], 3.0)):
            assert row["error"] == ""
            assert float(row["rate_analytic"]) == pytest.approx(4 * nt * (nt + 1) / 3, rel=1e-12)

    @pytest.mark.parametrize(
        "model,parameter,canonical,values",
        [
            (
                {"kind": "common", "axes": ["x", "z"], "lambda": 1.4,
                 "gamma": {"xx": 1.0, "zz": 0.5, "xz": 0.1}},
                "gamma.zx", ("gamma", "xz"), [-0.3, 0.0, 0.2, 0.6],
            ),
            (
                {"kind": "independent", "axes": ["x", "y"],
                 "gamma1": {"xx": 1.0, "yy": 0.7}, "gamma2": {"xx": 0.4, "yy": 0.9, "xy": 0.1}},
                "gamma1.yx", ("gamma1", "xy"), [-0.5, 0.0, 0.3],
            ),
        ],
        ids=["gamma.zx", "gamma1.yx"],
    )
    def test_off_diagonal_alias_sweep_matches_explicit_rate(
        self, tmp_path, monkeypatch, model, parameter, canonical, values
    ):
        # no configurable state has a nonzero off-diagonal covariance, so every
        # run here evaluates one fixed random state of the configured spins
        def random_state(cfg):
            dims = (int(2 * cfg.j1 + 1), int(2 * cfg.j2 + 1))
            rng = np.random.default_rng(7)
            raw = rng.normal(size=dims[0] * dims[1]) + 1j * rng.normal(size=dims[0] * dims[1])
            return raw / np.linalg.norm(raw), dims, "random", None

        monkeypatch.setattr("spinbath.cli.build_state", random_state)
        base = {"model": model, "ensembles": {"j1": 1, "j2": 1.5}, "state": {"kind": "plus_x"}}
        code, text = run_cli(tmp_path, dict(base, sweep={"parameter": parameter, "values": values}),
                             "sweep", outname="sweep.csv")
        assert code == 0
        _, _, rows = parse_csv(text)
        field, pair = canonical
        # the swept entry reaches the rate: each value gives its own contribution
        contributions = {float(row["contrib_" + pair]) for row in rows}
        assert len(contributions) == len(values) and max(map(abs, contributions)) > 0.01
        for value, row in zip(values, rows):
            assert row["error"] == ""
            explicit = json.loads(json.dumps(base))
            explicit["model"][field][pair] = value
            code, rate_text = run_cli(tmp_path, explicit, "rate", name="explicit.json")
            assert code == 0
            _, header, (want,) = parse_csv(rate_text)
            assert {c: row[c] for c in header} == want

    def test_partial_failures_keep_grid_order(self, tmp_path):
        doc = z_pair_doc(sweep={"parameter": "gamma1.zz", "values": [1.0, -1.0, 2.0]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [r["gamma1.zz"] for r in rows] == ["1", "-1", "2"]
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert "NotPositiveSemidefinite" in rows[1]["error"]
        assert rows[1]["rate_numeric"] == ""
        assert float(rows[2]["rate_analytic"]) == pytest.approx(2 * 3 * 2 / 3, rel=1e-12)


class TestSimulateCommand:
    def test_dephasing_table(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 1.0, "step": 0.001, "stride": 100})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        comments, header, rows = parse_csv(text)
        assert header == ["t", "s_lin", "trace_dev", "min_eig", "fidelity"]
        assert comments["state"] == "plus_x"
        assert comments["accepted_steps"] == "1000"
        assert comments["rejected_steps"] == "0"
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[-1]["t"]) == 1.0
        expect = 0.5 * (1.0 - np.exp(-1.0))
        assert float(rows[-1]["s_lin"]) == pytest.approx(expect, abs=1e-8)
        fidelities = [float(r["fidelity"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(fidelities, fidelities[1:]))
        assert max(float(r["trace_dev"]) for r in rows) <= 1e-12
        assert min(float(r["min_eig"]) for r in rows) >= -1e-10

    def test_adaptive_mode_reports_step_counts(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 2.0, "tol": 1e-10})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert int(comments["accepted_steps"]) >= 1
        assert float(rows[-1]["t"]) == 2.0

    def test_snapshots_embedded_in_json(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 0.1, "step": 0.05, "snapshots": True})
        code, text = run_cli(tmp_path, doc, "simulate", "--format", "json")
        assert code == 0
        out = json.loads(text)
        snaps = out["snapshots"]
        assert len(snaps) == len(out["rows"])
        first = snaps[0]
        assert first["t"] == 0.0
        re = np.array(first["re"])
        im = np.array(first["im"])
        assert re.shape == (2, 2)
        np.testing.assert_allclose(re + 1j * im, np.full((2, 2), 0.5), atol=1e-12)

    def test_zero_horizon_single_row(self, tmp_path):
        doc = dephasing_doc(evolution={"t_final": 0.0})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 1
        assert float(rows[0]["s_lin"]) == pytest.approx(0.0, abs=1e-14)

    def test_runs_on_numpy_alone(self, tmp_path):
        # importing scipy.sparse alone adds about 16 MB of resident memory
        script = (
            "import sys, spinbath.cli\n"
            "code = spinbath.cli.main(sys.argv[1:])\n"
            "assert code == 0, code\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        argv = ["simulate", "--config", str(ROOT / "configs" / "simulate_dephasing.json"),
                "--out", str(tmp_path / "out.csv")]
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestDfsCommand:
    def test_fock_basis_certified_for_pure_z(self, tmp_path):
        doc = z_pair_doc(dfs={"candidates": "fock_basis"})
        doc["ensembles"] = {"j1": 0.5, "j2": 0.5}
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["certified"] == "true"
        assert len(rows) == 4
        for row in rows:
            assert row["certified"] == "true"
            assert float(row["residual"]) <= 1e-13

    def test_fock_basis_fails_as_subspace(self, tmp_path):
        doc = z_pair_doc(dfs={"candidates": "fock_basis", "subspace": True})
        doc["ensembles"] = {"j1": 0.5, "j2": 0.5}
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["certified"] == "false"
        pair_rows = [r for r in rows if r["candidate"].startswith("pair(")]
        assert len(pair_rows) == 6
        assert any(r["certified"] == "false" for r in pair_rows)

    def test_pair_rows_carry_the_certificate_verdict(self, tmp_path, monkeypatch):
        # with a tolerance between the one-flip (1/2) and two-flip (1)
        # residuals, rows above it and the overall flag are false
        import functools

        import spinbath.cli as cli

        monkeypatch.setattr(
            cli, "certify_stationary", functools.partial(cli.certify_stationary, residual_tol=0.75)
        )
        doc = z_pair_doc(dfs={"candidates": "fock_basis", "subspace": True})
        doc["ensembles"] = {"j1": 0.5, "j2": 0.5}
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["certified"] == "false"
        pair_rows = [r for r in rows if r["candidate"].startswith("pair(")]
        verdicts = sorted((float(r["residual"]), r["certified"]) for r in pair_rows)
        assert [v for _, v in verdicts] == ["true"] * 4 + ["false"] * 2
        assert all(row["certified"] == "true" for row in rows if row not in pair_rows)

    def test_transverse_damping_breaks_certification(self, tmp_path):
        doc = z_pair_doc(dfs={"candidates": "fock_basis"})
        doc["model"] = {
            "kind": "independent",
            "axes": ["x", "z"],
            "gamma1": {"xx": 0.5, "zz": 1.0},
            "gamma2": {"xx": 0.5, "zz": 1.0},
        }
        doc["ensembles"] = {"j1": 0.5, "j2": 0.5}
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, _ = parse_csv(text)
        assert comments["certified"] == "false"

    def test_singlet_certified_under_balanced_common_bath(self, tmp_path):
        doc = {
            "model": {
                "kind": "common",
                "axes": ["x", "y", "z"],
                "gamma": {"xx": 1.0, "yy": 1.0, "zz": 1.0},
                "lambda": 1.0,
            },
            "ensembles": {"j1": 1, "j2": 1},
            "dfs": {"candidates": "singlet"},
        }
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["certified"] == "true"
        assert rows[0]["candidate"] == "singlet(j=1)"

    def test_configured_state_candidate(self, tmp_path):
        doc = {
            "model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
            "ensembles": {"j1": 1, "j2": 1},
            "state": {"kind": "uniform"},
            "dfs": {"candidates": "state"},
        }
        code, text = run_cli(tmp_path, doc, "dfs")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["certified"] == "true"
        assert rows[0]["candidate"] == "uniform(Ntilde=1)"

    def test_singlet_candidate_needs_equal_ensembles(self, tmp_path):
        doc = z_pair_doc(dfs={"candidates": "singlet"})
        doc["ensembles"] = {"j1": 1, "j2": 2}
        code, _ = run_cli(tmp_path, doc, "dfs")
        assert code == 2


class TestStateCommand:
    def test_singlet_coefficients_and_extras(self, tmp_path):
        doc = z_pair_doc()
        doc["ensembles"] = {"j1": 0.5, "j2": 0.5}
        doc["state"] = {"kind": "singlet"}
        code, text = run_cli(tmp_path, doc, "state")
        assert code == 0
        comments, header, rows = parse_csv(text)
        assert header == ["m", "re", "im", "weight"]
        assert comments["state"] == "singlet(j=0.5)"
        assert comments["schmidt_number"] == "2"
        assert float(comments["entanglement_entropy"]) == pytest.approx(np.log(2), rel=1e-12)
        assert float(comments["pairing_residual"]) == 0.0
        assert float(comments["variance_x_approx"]) == 0.0
        assert float(comments["variance_x_exact"]) == pytest.approx(0.0, abs=1e-12)
        r = 1 / np.sqrt(2)
        assert float(rows[0]["m"]) == 0.5
        assert float(rows[0]["re"]) == pytest.approx(r, rel=1e-15)
        assert float(rows[1]["re"]) == pytest.approx(-r, rel=1e-15)

    def test_product_fock_schmidt_rows(self, tmp_path):
        doc = z_pair_doc()
        doc["state"] = {"kind": "fock", "m1": 1, "m2": -1}
        code, text = run_cli(tmp_path, doc, "state")
        assert code == 0
        comments, header, rows = parse_csv(text)
        assert header == ["k", "schmidt_value"]
        assert comments["schmidt_number"] == "1"
        values = sorted(float(r["schmidt_value"]) for r in rows)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)
        assert max(values[:-1]) <= 1e-12

    def test_single_ensemble_amplitudes(self, tmp_path):
        doc = {
            "model": {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}},
            "ensembles": {"j1": 0.5},
            "state": {"kind": "plus_x"},
        }
        code, text = run_cli(tmp_path, doc, "state")
        assert code == 0
        comments, header, rows = parse_csv(text)
        assert header == ["m", "re", "im", "weight"]
        assert "schmidt_number" not in comments
        for row in rows:
            assert float(row["weight"]) == pytest.approx(0.5, rel=1e-12)

    def test_gaussian_label_and_weights(self, tmp_path):
        doc = z_pair_doc()
        doc["ensembles"] = {"j1": 2, "j2": 2}
        doc["state"] = {"kind": "gaussian", "width": 2.0}
        code, text = run_cli(tmp_path, doc, "state")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert comments["state"] == "gaussian(width=2;Ntilde=2)"
        total = sum(float(r["weight"]) for r in rows)
        assert total == pytest.approx(1.0, rel=1e-12)


class TestArgumentParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("spinbath ")

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        doc = z_pair_doc(sweep={"parameter": "Ntilde", "values": [1, 2]})
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_format_choices_enforced(self, tmp_path):
        cfg = write_cfg(tmp_path, z_pair_doc())
        with pytest.raises(SystemExit):
            main(["rate", "--config", str(cfg), "--format", "yaml"])
