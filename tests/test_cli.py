"""End-to-end command line tests: outputs, determinism, exit codes."""

import csv
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinbath.cli import cmd_simulate, main
from spinbath.config import load_config
from spinbath.diagnostics import RateReport
from spinbath.generator import _memory_limit

ROOT = Path(__file__).resolve().parents[1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_module(*argv, stdout=subprocess.PIPE):
    """``python -m spinbath`` in a child process: ``main_entry``, as the console script runs it."""
    return subprocess.run([sys.executable, "-m", "spinbath", *argv], env=child_env(), cwd=ROOT,
                          stdout=stdout, stderr=subprocess.PIPE)


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
    def test_plus_x_past_the_float_range_of_the_binomial(self, tmp_path):
        # j1 = 600 (n = 1,201), where C(2j, j) exceeds 1.8e308; the
        # numeric and analytic rates agree to 1e-9, a bound fixed before
        # running
        code, text = run_cli(tmp_path, dephasing_doc(ensembles={"j1": 600}), "rate")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert float(rows[0]["rate_numeric"]) == pytest.approx(float(rows[0]["rate_analytic"]), rel=1e-9)

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

    def test_digest_leaves_out_openssl(self, tmp_path):
        # hashlib loads OpenSSL (_hashlib), about 3.6 MB resident in every
        # process; the digest takes CPython's built-in sha256 instead
        script = (
            "import sys, spinbath.cli\n"
            "code = spinbath.cli.main(sys.argv[1:])\n"
            "assert code == 0, code\n"
            "assert '_hashlib' not in sys.modules\n"
        )
        argv = ["rate", "--config", str(ROOT / "configs" / "rate_uniform.json"),
                "--out", str(tmp_path / "out.csv")]
        done = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        comments, _, _ = parse_csv((tmp_path / "out.csv").read_text(encoding="utf-8"))
        assert len(comments["config_sha256"]) == 64

    def test_import_leaves_out_dataclasses(self):
        # each @dataclass execs its generated methods at every import; the
        # record types are named tuples and plain classes instead
        script = "import sys, spinbath.cli\nassert 'dataclasses' not in sys.modules\n"
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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

    def test_large_fixed_step_does_not_abort(self, tmp_path):
        # ten steps of 10 sample exp(t L) exactly (the qubit's Krylov basis
        # closes), so the state decays and never trips the exit-4 norm cap.
        # Bound fixed before the first run: |S_lin error| <= 2 ||rho error||_F
        # <= 2 (GRID_TOL t + 1e-13) = 2.02e-10 at t = 100
        doc = dephasing_doc(evolution={"t_final": 100.0, "step": 10.0})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        comments, _, rows = parse_csv(text)
        assert (comments["accepted_steps"], comments["rejected_steps"]) == ("10", "0")
        times = [float(r["t"]) for r in rows]
        assert times == [10.0 * k for k in range(11)]
        for t, row in zip(times, rows):
            assert abs(float(row["s_lin"]) - 0.5 * (1.0 - np.exp(-t))) <= 1e-9

    def test_step_budget_exceeded(self, tmp_path, capsys):
        doc = dephasing_doc(evolution={"t_final": 1e6, "step": 1e-3})
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert "max_steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [{"tol": 1e-10}, {"step": 0.1}], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize(
        "gamma_xx,reason",
        [(1e160, "past the float range"), (1e100, "step size underflow")],
        ids=["norm-overflows", "exponential-untrusted"],
    )
    def test_huge_damping_aborts(self, tmp_path, capsys, mode, gamma_xx, reason):
        # gamma_xx = 1e160 puts entries near 6e159 in K, whose squares
        # overflow; at 1e100 every usable tau ||T|| is far past what the
        # small problem keeps (``_kernels.EXPM_NORM_MAX``).  Either run once
        # wrote the zero state (s_lin 1, trace_dev 1, fidelity 0) and exited 0
        doc = {
            "model": {
                "kind": "common",
                "axes": ["x", "y", "z"],
                "gamma": {"xx": gamma_xx, "yy": 0.5, "zz": 0.25},
                "lambda": 1.4,
            },
            "ensembles": {"j1": 1, "j2": 1},
            "state": {"kind": "uniform"},
            "evolution": {"t_final": 1.0, **mode},
        }
        code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert reason in err
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

    def test_overflowing_rate_trips_the_self_check(self, tmp_path, capsys):
        # gamma_xx = 1e308 at j1 = j2 = 4 overflows the numeric rate to nan
        # and the analytic one to inf.  A NaN mismatch fails every
        # comparison, so a tripwire tested with ">" let rate exit 0 with nan
        # and sweep write the row with an empty error column.  The rate is
        # computed with numpy's overflow warnings off (a RuntimeWarning fails
        # any test here), so the tripwire alone reports it
        doc = {
            "model": {"kind": "common", "axes": ["x"], "gamma": {"xx": 1e308}, "lambda": 1.0},
            "ensembles": {"j1": 4, "j2": 4},
            "state": {"kind": "uniform"},
            "sweep": {"parameter": "Ntilde", "values": [4]},
        }
        code, text = run_cli(tmp_path, doc, "rate")
        assert code == 3
        assert text == ""
        assert "self-check failed" in capsys.readouterr().err
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 5
        _, _, rows = parse_csv(text)
        assert rows[0]["error"].startswith("RateMismatchError: ")
        assert rows[0]["rate_numeric"] == rows[0]["rate_analytic"] == ""

    def test_all_sweep_points_failed(self, tmp_path):
        doc = z_pair_doc(sweep={"parameter": "gamma1.zz", "values": [-1.0, -2.0]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 5
        _, _, rows = parse_csv(text)
        assert all(r["error"] for r in rows)
        assert all(r["rate_analytic"] == "" for r in rows)


class TestProcessEntry:
    CONFIG = str(ROOT / "configs" / "sweep_levels.json")

    def test_outputs_match_in_process_main(self, tmp_path, capsys):
        assert main(["sweep", "--config", self.CONFIG, "--out", str(tmp_path / "main.csv")]) == 0
        expected = (tmp_path / "main.csv").read_bytes()
        assert main(["sweep", "--config", self.CONFIG]) == 0
        assert capsys.readouterr().out.encode("utf-8") == expected
        done = run_module("sweep", "--config", self.CONFIG, "--out", str(tmp_path / "child.csv"))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "child.csv").read_bytes() == expected
        done = run_module("sweep", "--config", self.CONFIG)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
        assert done.stderr == b""

    def test_missing_config(self, tmp_path):
        done = run_module("sweep", "--config", str(tmp_path / "nope.json"))
        assert done.returncode == 2
        assert done.stderr.decode().startswith("spinbath: config error")

    @pytest.mark.parametrize("nested", ["[", '{"a": '])
    def test_deeply_nested_config(self, tmp_path, nested):
        # json.load raises RecursionError past the interpreter's recursion
        # limit; the run reports it as a config error on one line
        cfg = tmp_path / "deep.json"
        close = "]" if nested == "[" else "}"
        cfg.write_text(nested * 100_000 + "1" + close * 100_000, encoding="utf-8")
        done = run_module("rate", "--config", str(cfg))
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith("spinbath: config error")
        assert err.count("\n") == 1

    def test_overflowing_rate_exits_3_with_one_message(self, tmp_path):
        # gamma_xx = 1e308 at j1 = j2 = 4 (test_overflowing_rate_trips_the_self_check):
        # the process exits 3 and stderr carries the tripwire's line alone,
        # with no RuntimeWarning from numpy before it
        doc = {
            "model": {"kind": "common", "axes": ["x", "y", "z"], "gamma": {"xx": 1e308}, "lambda": 1.4},
            "ensembles": {"j1": 4, "j2": 4},
            "state": {"kind": "uniform"},
        }
        done = run_module("rate", "--config", str(write_cfg(tmp_path, doc)))
        assert done.returncode == 3
        err = done.stderr.decode()
        assert "RuntimeWarning" not in err
        assert err.startswith("spinbath: self-check failed") and err.count("\n") == 1

    OVERFLOWING = {
        "model": {"kind": "common", "axes": ["x"], "gamma": {"xx": 1e308}, "lambda": 1.0},
        "ensembles": {"j1": 4, "j2": 4},
        "state": {"kind": "uniform"},
        "evolution": {"t_final": 1.0, "tol": 1e-10},
        "dfs": {"candidates": "fock_basis"},
    }

    def test_overflowing_simulate_exits_4_with_one_message(self, tmp_path):
        # the generator's drift overflows while it is built, and the Krylov
        # basis refuses its norm: exit 4 and that line alone on stderr, with
        # no RuntimeWarning from numpy before it
        out = tmp_path / "out.csv"
        done = run_module("simulate", "--config", str(write_cfg(tmp_path, self.OVERFLOWING)), "--out", str(out))
        assert done.returncode == 4
        err = done.stderr.decode()
        assert "RuntimeWarning" not in err
        assert err.startswith("spinbath: integration aborted: generator norm nan") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_dfs_writes_its_table_without_warnings(self, tmp_path):
        # 81 Fock candidates whose generator images overflow: the table is
        # the one written with the warnings (4 rows inf, 77 nan, none
        # certified) and stderr is empty
        out = tmp_path / "out.csv"
        done = run_module("dfs", "--config", str(write_cfg(tmp_path, self.OVERFLOWING)), "--out", str(out))
        assert done.returncode == 0
        assert done.stderr == b""
        comments, _, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert comments["certified"] == "false"
        cells = [(r["residual"], r["purity_rate"], r["certified"]) for r in rows]
        assert sorted(set(cells)) == [("inf", "inf", "false"), ("nan", "nan", "false")]
        assert cells.count(("inf", "inf", "false")) == 4 and len(cells) == 81

    # j1 = j2 = 3,000,000: the state is a vector of (6,000,001)^2 complex
    # numbers, 524 TiB, more than any machine's physical memory, so it is
    # refused before numpy is asked for it.  The coupled level and the Fock
    # product allocate little before that
    HUGE = {"j1": 3_000_000, "j2": 3_000_000}
    REFUSED = "cannot allocate: a state of 3.60e+13 amplitudes needs 5.76e+14 bytes, more than the "

    @pytest.mark.parametrize("command,extra", [
        ("rate", {"state": {"kind": "coupled", "L": 0, "M": 0}}),
        ("state", {"state": {"kind": "coupled", "L": 0, "M": 0}}),
        ("simulate", {"state": {"kind": "fock", "m1": 0, "m2": 0}, "evolution": {"t_final": 1.0}}),
        ("dfs", {"dfs": {"candidates": "singlet"}}),
        ("dfs", {"dfs": {"candidates": "fock_basis"}}),
    ])
    def test_refused_allocation_exits_2_with_one_message(self, tmp_path, command, extra):
        doc = {"model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
               "ensembles": self.HUGE, **extra}
        out = tmp_path / "out.csv"
        done = run_module(command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out))
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith("spinbath: " + self.REFUSED) and err.count("\n") == 1
        assert not out.exists()

    # numpy refused the state at 1e18 as too big for its size type, and at
    # 1e300 as past its dimension limit, both as ValueError (config errors
    # "state: ..."); at 3e6 it raised MemoryError.  The one refusal names
    # each size, computed in exact integers: 16 n bytes is past the float
    # range at 1e300
    @pytest.mark.parametrize("j,size", [
        (1e300, "a state of 4.00e+600 amplitudes needs 6.40e+601 bytes"),
        (1e18, "a state of 4.00e+36 amplitudes needs 6.40e+37 bytes"),
        (3e6, "a state of 3.60e+13 amplitudes needs 5.76e+14 bytes"),
    ])
    def test_refused_allocation_names_the_size_at_any_spin(self, tmp_path, j, size):
        doc = z_pair_doc(ensembles={"j1": j, "j2": j})
        done = run_module("rate", "--config", str(write_cfg(tmp_path, doc)))
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith(f"spinbath: cannot allocate: {size}, more than the ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"bytes of {_memory_limit()[1]}")

    @pytest.mark.parametrize("value,size", [(HUGE["j1"], "3.60e+13"), (1e300, "4.00e+600")])
    def test_refused_allocation_is_a_sweep_error_row(self, tmp_path, value, size):
        doc = {"model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.4},
               "ensembles": {"j1": 1, "j2": 1},
               "state": {"kind": "uniform"},
               "sweep": {"parameter": "Ntilde", "values": [1, value]}}
        out = tmp_path / "out.csv"
        done = run_module("sweep", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out))
        assert done.returncode == 0
        assert done.stderr == b""
        _, _, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert rows[0]["error"] == "" and rows[0]["rate_analytic"] != ""
        assert rows[1]["error"].startswith(f"MemoryError: a state of {size} amplitudes needs ")
        assert rows[1]["rate_analytic"] == ""

    def test_spin_whose_double_overflows_is_a_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, z_pair_doc(ensembles={"j1": 1e308, "j2": 1}))
        done = run_module("rate", "--config", str(cfg))
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith("spinbath: config error") and "ensembles.j1" in err
        assert err.count("\n") == 1

    def test_step_with_tol_is_a_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, z_pair_doc(evolution={"t_final": 1.0, "step": 0.1, "tol": 1e-10}))
        done = run_module("simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv"))
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith("spinbath: config error") and "step and tol are exclusive" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_in_process_main_leaves_the_heap_unfrozen(self, tmp_path):
        # main_entry freezes the heap for the exit; main runs inside other
        # programs, which keep collecting
        before = gc.get_freeze_count()
        assert main(["sweep", "--config", self.CONFIG, "--out", str(tmp_path / "out.csv")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("via", ["--out", "stdout", "unbuffered stdout"])
    def test_failed_write_exits_2(self, via, monkeypatch):
        # /dev/full opens, and every write to it fails with ENOSPC.  A
        # buffered stdout still holds the table after the failed flush, and
        # the flush at exit must not report it a second time
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        if via == "unbuffered stdout":
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        argv = ["rate", "--config", str(ROOT / "configs" / "rate_uniform.json")]
        with open("/dev/full", "wb") as full:
            done = run_module(*argv, "--out", "/dev/full") if via == "--out" else run_module(*argv, stdout=full)
        assert done.returncode == 2
        err = done.stderr.decode()
        assert err.startswith("spinbath: cannot write output: [Errno 28]")  # ENOSPC
        assert err.count("\n") == 1


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

    def test_ntilde_whose_double_overflows_is_an_error_row(self, tmp_path):
        # the point fails on its own and the sweep still exits 0
        doc = z_pair_doc(sweep={"parameter": "Ntilde", "values": [1, 1e308]})
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert rows[0]["error"] == ""
        assert float(rows[0]["rate_analytic"]) == pytest.approx(8 / 3, rel=1e-12)
        assert rows[1]["error"].startswith("ConfigError: sweep: Ntilde=") and "not a finite number" in rows[1]["error"]
        assert rows[1]["rate_analytic"] == ""

    @pytest.mark.parametrize("parameter", ["Ntilde", "L"])
    def test_value_off_a_half_integer_is_an_error_row(self, tmp_path, parameter):
        # doubling is exact, so 1 + 1e-10 is no half-integer: the point once
        # ran at 1 under the label 1.0000000001.  Both parameters break the
        # library's one spin rule and report it in one form, as a config
        # error of the sweep (a bad L read "ConfigError: state: L=...")
        doc = z_pair_doc(sweep={"parameter": parameter, "values": [1, 1.0000000001, 0.3]})
        if parameter == "L":
            doc["state"] = {"kind": "coupled", "L": 1}
        code, text = run_cli(tmp_path, doc, "sweep")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert rows[0]["error"] == ""
        for row, value in zip(rows[1:], ("1.0000000001", "0.3")):
            assert row["error"] == f"ConfigError: sweep: {parameter}={value} is not a half-integer"
            assert row["rate_analytic"] == ""

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

    def test_import_leaves_out_the_thread_pool(self):
        # concurrent.futures adds about 10 ms to every start-up; only a sweep
        # with --threads above 1 needs it
        script = (
            "import sys, spinbath.cli\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
        # re-encoding the parsed document gives the written bytes: the
        # arrays are written as the float lists they convert to
        assert json.dumps(out, indent=2) + "\n" == text

    def test_snapshots_are_kept_as_arrays(self, tmp_path):
        # j1 = j2 = 4 (n = 81), fixed mode's default grid of 101 rows, every
        # state a snapshot.  The traced peak of the run stays below the 101
        # states (16 n^2 bytes each), a basis's KRYLOV_DIM kept vectors, its
        # (3, n, n) workspace and two Lanczos vectors, the initial state, its
        # copy and the next basis's start, and 1 MiB of slack for the rows'
        # cells.  Bound fixed before the first run; as Python float lists
        # the snapshots alone take about 42 MB here.  The writer, which
        # converts one array at a time, is left out: json's encoder takes
        # 1.4 s on these 1.3 million floats, and 9 s traced
        doc = {"model": {"kind": "common", "axes": ["x", "y", "z"],
                         "gamma": {"xx": 1.0, "yy": 0.5, "zz": 0.25}, "lambda": 1.4},
               "ensembles": {"j1": 4, "j2": 4}, "state": {"kind": "uniform"},
               "evolution": {"t_final": 0.5, "snapshots": True}}
        cfg = load_config(str(write_cfg(tmp_path, doc)))
        vector = 16 * 81**2
        tracemalloc.start()
        try:
            _, rows, _, snapshots, _ = cmd_simulate(cfg, "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(snapshots) == 101
        assert peak <= (101 + 16 + 3 + 2 + 3) * vector + 2**20

    def test_row_cells_keep_the_callers_warnings(self, tmp_path, monkeypatch):
        # the integration runs with numpy's overflow warnings off, and the
        # rows are computed inside it; a row cell that overflows still warns
        import spinbath.cli as cli

        def overflowing_fidelity(psi, mat):
            return float(np.float64(1e308) * 10.0)

        monkeypatch.setattr(cli, "pure_fidelity", overflowing_fidelity)
        doc = dephasing_doc(evolution={"t_final": 0.1, "step": 0.05})
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, text = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [row["fidelity"] for row in rows] == ["inf"] * 3

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
        import spinbath.diagnostics as diagnostics

        monkeypatch.setattr(diagnostics, "STATIONARY_RESIDUAL_TOL", 0.75)
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

    def test_subspace_table_memory_is_the_pair_array(self, tmp_path):
        # j1 = j2 = 8 under the z-only common bath at lambda = 1: N = 289
        # Fock candidates of n = 289 and N (N - 1) / 2 = 41,616 pair rows.
        # The traced peak of main stays below the pair residuals (8 bytes a
        # pair), the candidates' vectors (16 n bytes each), their two R
        # factors and the conjugated copy of the R_V ((k + 2)^2 complex
        # numbers each, k = 1 jump), and 1 MiB of slack for the config, the
        # labels and one row's temporaries.  Bound fixed before the first
        # run; a table held as row dicts takes about 23 MB here
        doc = {"model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
               "ensembles": {"j1": 8, "j2": 8},
               "dfs": {"candidates": "fock_basis", "subspace": True}}
        cfg, out = write_cfg(tmp_path, doc), tmp_path / "out.csv"
        count = dim = 17 * 17
        pairs = count * (count - 1) // 2
        tracemalloc.start()
        try:
            code = main(["dfs", "--config", str(cfg), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * pairs + 16 * count * dim + 3 * count * 3**2 * 16 + 2**20
        comments, _, rows = parse_csv(out.read_text(encoding="utf-8"))
        assert len(rows) == count + pairs
        assert comments["certified"] == "false"

    def test_json_rows_are_written_as_they_are_made(self, tmp_path):
        # j1 = j2 = 6: N = 169 Fock candidates of n = 169 and 14,196 pair
        # rows in --format json.  The traced peak of main stays within the
        # bound the CSV table keeps above (pair residuals, candidate vectors,
        # R factors and 1 MiB of slack).  Bound fixed before the first run;
        # with the rows held as lists the run peaks at about 3.2 MB here
        doc = {"model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
               "ensembles": {"j1": 6, "j2": 6},
               "dfs": {"candidates": "fock_basis", "subspace": True}}
        cfg, out = write_cfg(tmp_path, doc), tmp_path / "out.json"
        count = dim = 13 * 13
        pairs = count * (count - 1) // 2
        tracemalloc.start()
        try:
            code = main(["dfs", "--config", str(cfg), "--out", str(out), "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * pairs + 16 * count * dim + 3 * count * 3**2 * 16 + 2**20
        text = out.read_text(encoding="utf-8")
        written = json.loads(text)
        assert len(written["rows"]) == count + pairs
        assert written["meta"]["certified"] is False
        # the writer's bytes are json's own for the document it wrote
        assert json.dumps(written, indent=2) + "\n" == text

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

    @pytest.mark.parametrize(
        "width,same_as",
        [(1e-300, {"kind": "custom", "coeffs": [0, 0, 1, 0, 0]}), (1e300, {"kind": "uniform"})],
        ids=["narrow", "wide"],
    )
    def test_gaussian_at_the_float_extremes(self, tmp_path, width, same_as):
        # (m / width)^2 is inf for every m != 0 at width 1e-300, leaving the
        # m = 0 pair, and 0 at width 1e300, leaving the uniform profile.
        # m^2 / (2 width^2) divided by 0 (nan rates, an SVD failure) or
        # overflowed (OverflowError)
        doc = z_pair_doc(ensembles={"j1": 2, "j2": 2}, state={"kind": "gaussian", "width": width})
        for command in ("rate", "state"):
            code, text = run_cli(tmp_path, doc, command, outname=f"gaussian.{command}")
            assert code == 0
            _, _, rows = parse_csv(text)
            _, _, want = parse_csv(run_cli(tmp_path, {**doc, "state": same_as}, command,
                                           outname=f"reference.{command}")[1])
            assert [{**r, "state": ""} for r in rows] == [{**r, "state": ""} for r in want]

    def test_narrow_gaussian_without_an_m0_pair(self, tmp_path, capsys):
        # at half-integer Ntilde every coefficient underflows to 0
        doc = z_pair_doc(ensembles={"j1": 2.5, "j2": 2.5}, state={"kind": "gaussian", "width": 1e-300})
        code, _ = run_cli(tmp_path, doc, "state")
        assert code == 2
        assert "zero coefficient vector" in capsys.readouterr().err


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
