"""Scenario document parsing, round-trips and digests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spinbath.config import (
    ConfigError,
    DfsConfig,
    EvolutionConfig,
    OutputConfig,
    StateConfig,
    SweepConfig,
    config_digest,
    config_to_dict,
    load_config,
    parse_config,
)
from spinbath.generator import CommonBath, IndependentBath

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_doc(**extra):
    doc = {
        "model": {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}, "gamma2": {"zz": 1.0}},
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
    }
    doc.update(extra)
    return doc


def common_doc(**extra):
    doc = {
        "model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
    }
    doc.update(extra)
    return doc


class TestParseModel:
    def test_independent_parsed(self):
        cfg = parse_config(base_doc())
        assert isinstance(cfg.model, IndependentBath)
        assert cfg.model.axes == ("z",)
        assert cfg.model.gamma1[2, 2] == 1.0
        assert cfg.model.gamma2[2, 2] == 1.0

    def test_common_parsed(self):
        cfg = parse_config(common_doc())
        assert isinstance(cfg.model, CommonBath)
        assert cfg.model.lam == 1.0

    def test_gamma_aliases_fold(self):
        doc = base_doc()
        doc["model"] = {
            "kind": "independent",
            "axes": ["x", "z"],
            "gamma1": {"xx": 1.0, "zz": 1.0, "zx": 0.5},
        }
        doc["ensembles"] = {"j1": 1}
        del doc["state"]
        cfg = parse_config(doc)
        assert cfg.model.gamma1[0, 2] == 0.5
        assert cfg.model.gamma1[2, 0] == 0.5

    def test_alias_collision_rejected(self):
        doc = base_doc()
        doc["model"]["gamma1"] = {"zz": 1.0, "xz": 0.1, "zx": 0.1}
        doc["model"]["axes"] = ["x", "z"]
        with pytest.raises(ConfigError, match="twice"):
            parse_config(doc)

    def test_unknown_model_kind(self):
        doc = base_doc()
        doc["model"] = {"kind": "squeezed", "axes": ["z"], "gamma1": {"zz": 1.0}}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(doc)

    def test_non_psd_gamma_rejected(self):
        doc = base_doc()
        doc["model"] = {
            "kind": "independent",
            "axes": ["x", "z"],
            "gamma1": {"xx": 0.1, "zz": 1.0, "xz": 0.5},
        }
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_lambda_out_of_range_rejected(self):
        doc = common_doc()
        doc["model"]["lambda"] = 2.5
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_common_requires_lambda(self):
        doc = common_doc()
        del doc["model"]["lambda"]
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(doc)

    def test_unknown_gamma_entry(self):
        doc = base_doc()
        doc["model"]["gamma1"] = {"ww": 1.0}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_axes_validated(self):
        doc = base_doc()
        doc["model"]["axes"] = ["z", "z"]
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["model"]["axes"] = []
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestParseScenario:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(base_doc(notes="hello"))

    def test_missing_ensembles(self):
        doc = base_doc()
        del doc["ensembles"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_spin_validation(self):
        doc = base_doc()
        doc["ensembles"]["j1"] = 0.3
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["ensembles"]["j1"] = -1
        with pytest.raises(ConfigError):
            parse_config(doc)
        # 1e308 is finite, 2 x 1e308 is not
        doc["ensembles"]["j1"] = 1e308
        with pytest.raises(ConfigError, match="ensembles.j1.*not a finite number"):
            parse_config(doc)

    def test_common_needs_j2(self):
        doc = common_doc()
        doc["ensembles"] = {"j1": 1}
        with pytest.raises(ConfigError, match="j2"):
            parse_config(doc)

    def test_gamma2_needs_j2(self):
        doc = base_doc()
        doc["ensembles"] = {"j1": 1}
        with pytest.raises(ConfigError, match="j2"):
            parse_config(doc)

    def test_profile_state_needs_two_ensembles(self):
        doc = {
            "model": {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}},
            "ensembles": {"j1": 1},
            "state": {"kind": "uniform"},
        }
        with pytest.raises(ConfigError, match="two ensembles"):
            parse_config(doc)

    def test_singlet_needs_equal_spins(self):
        doc = base_doc()
        doc["state"] = {"kind": "singlet"}
        doc["ensembles"] = {"j1": 1, "j2": 2}
        with pytest.raises(ConfigError, match="j1 == j2"):
            parse_config(doc)

    def test_fock_m2_rules(self):
        doc = base_doc()
        doc["state"] = {"kind": "fock", "m1": 1}
        with pytest.raises(ConfigError, match="m2"):
            parse_config(doc)
        doc = {
            "model": {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}},
            "ensembles": {"j1": 1},
            "state": {"kind": "fock", "m1": 1, "m2": 0},
        }
        with pytest.raises(ConfigError, match="m2"):
            parse_config(doc)

    def test_unknown_state_kind(self):
        doc = base_doc()
        doc["state"] = {"kind": "thermal"}
        with pytest.raises(ConfigError, match="state kind"):
            parse_config(doc)

    def test_state_kind_specific_keys(self):
        doc = base_doc()
        doc["state"] = {"kind": "uniform", "width": 2.0}
        with pytest.raises(ConfigError):
            parse_config(doc)
        doc["state"] = {"kind": "gaussian"}
        with pytest.raises(ConfigError, match="width"):
            parse_config(doc)

    def test_custom_coeff_forms(self):
        doc = base_doc()
        doc["state"] = {"kind": "custom", "coeffs": [0.6, [0.0, 0.8], 0.0]}
        cfg = parse_config(doc)
        assert cfg.state.coeffs == (complex(0.6), 0.8j, 0j)

    def test_bad_coeff_rejected(self):
        doc = base_doc()
        doc["state"] = {"kind": "custom", "coeffs": [[1.0, 0.0, 0.0]]}
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestParseEvolution:
    def test_defaults(self):
        cfg = parse_config(base_doc(evolution={"t_final": 2.0}))
        assert cfg.evolution.t_final == 2.0
        assert cfg.evolution.step is None
        assert cfg.evolution.tol is None
        assert cfg.evolution.stride == 1
        assert cfg.evolution.snapshots is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config(base_doc(evolution={"t_final": -1.0}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(evolution={"t_final": 1.0, "step": 0.0}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(evolution={"t_final": 1.0, "stride": 0}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(evolution={"t_final": 1.0, "snapshots": "yes"}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(evolution={"t_final": float("inf")}))

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, "2", 0])
    def test_stride_follows_the_library_rule(self, stride):
        # the library's ValueError, mapped as for the other evolution fields
        with pytest.raises(ConfigError, match=r"evolution: stride must be an integer >= 1, got "):
            parse_config(base_doc(evolution={"t_final": 1.0, "stride": stride}))

    def test_step_and_tol_are_exclusive(self):
        # adaptive mode has no grid step, so a step beside tol would do nothing
        with pytest.raises(ConfigError, match="evolution: step and tol are exclusive"):
            parse_config(base_doc(evolution={"t_final": 1.0, "step": 0.1, "tol": 1e-10}))


class TestParseSweep:
    def test_lambda_sweep_requires_common(self):
        doc = base_doc(sweep={"parameter": "lambda", "values": [0.5, 1.0]})
        with pytest.raises(ConfigError, match="common"):
            parse_config(doc)
        cfg = parse_config(common_doc(sweep={"parameter": "lambda", "values": [0.5, 1.0]}))
        assert cfg.sweep.values == (0.5, 1.0)

    def test_lambda_values_bounded(self):
        doc = common_doc(sweep={"parameter": "lambda", "values": [2.5]})
        with pytest.raises(ConfigError, match="outside"):
            parse_config(doc)

    def test_ntilde_sweep_needs_profile_state(self):
        doc = base_doc(sweep={"parameter": "Ntilde", "values": [1, 2]})
        doc["state"] = {"kind": "fock", "m1": 1, "m2": -1}
        with pytest.raises(ConfigError, match="profile"):
            parse_config(doc)

    def test_level_sweep_needs_coupled_state(self):
        doc = common_doc(sweep={"parameter": "L", "values": [0, 1]})
        with pytest.raises(ConfigError, match="coupled"):
            parse_config(doc)
        doc["state"] = {"kind": "coupled", "L": 1}
        assert parse_config(doc).sweep.parameter == "L"

    def test_unknown_parameter(self):
        doc = base_doc(sweep={"parameter": "temperature", "values": [1]})
        with pytest.raises(ConfigError, match="unknown sweep"):
            parse_config(doc)

    def test_gamma_entry_sweeps_address_matching_model(self):
        doc = base_doc(sweep={"parameter": "gamma.zz", "values": [1.0]})
        with pytest.raises(ConfigError, match="common"):
            parse_config(doc)
        doc = common_doc(sweep={"parameter": "gamma1.zz", "values": [1.0]})
        with pytest.raises(ConfigError, match="independent"):
            parse_config(doc)

    def test_gamma2_sweep_needs_second_block(self):
        doc = base_doc(sweep={"parameter": "gamma2.zz", "values": [1.0]})
        doc["model"] = {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}}
        with pytest.raises(ConfigError, match="second"):
            parse_config(doc)

    def test_swept_entry_must_stay_on_model_axes(self):
        doc = common_doc(sweep={"parameter": "gamma.xx", "values": [1.0]})
        with pytest.raises(ConfigError, match="axes"):
            parse_config(doc)

    def test_empty_values_rejected(self):
        doc = common_doc(sweep={"parameter": "lambda", "values": []})
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestParseDfsAndOutput:
    def test_dfs_candidates(self):
        cfg = parse_config(base_doc(dfs={"candidates": "fock_basis"}))
        assert cfg.dfs.candidates == "fock_basis"
        assert cfg.dfs.subspace is False
        cfg = parse_config(base_doc(dfs={"candidates": "singlet", "subspace": True}))
        assert cfg.dfs.subspace is True

    def test_unknown_candidates(self):
        with pytest.raises(ConfigError, match="candidate"):
            parse_config(base_doc(dfs={"candidates": "dicke"}))

    def test_output_defaults(self):
        cfg = parse_config(base_doc())
        assert cfg.output.path is None
        assert cfg.output.format == "csv"

    def test_output_format_checked(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(base_doc(output={"format": "parquet"}))


# one state block per kind, with and without each optional field
STATES = [
    {"kind": "uniform"},
    {"kind": "alternating_uniform"},
    {"kind": "singlet"},
    {"kind": "gaussian", "width": 0.7},
    {"kind": "custom", "coeffs": [0.6, [0.0, 0.8], 0.0]},
    {"kind": "custom", "coeffs": [1, 1, 1], "auto_normalize": True},
    {"kind": "fock", "m1": 1, "m2": -1},
    {"kind": "coupled", "L": 1},
    {"kind": "coupled", "L": 2, "M": -1},
]

# (block, block document, field, another valid value of the field)
REPLACEMENTS = [
    ("state", {"kind": "uniform"}, "kind", "singlet"),
    ("state", {"kind": "gaussian", "width": 0.5}, "width", 0.7),
    ("state", {"kind": "custom", "coeffs": [1, 0, 0]}, "coeffs", (0.6, 0.8j, 0.0)),
    ("state", {"kind": "custom", "coeffs": [1, 1, 1], "auto_normalize": True}, "auto_normalize", False),
    ("state", {"kind": "fock", "m1": 1, "m2": -1}, "m1", 0.0),
    ("state", {"kind": "fock", "m1": 1, "m2": -1}, "m2", 0.0),
    ("state", {"kind": "coupled", "L": 1}, "L", 2.0),
    ("state", {"kind": "coupled", "L": 1}, "M", 1.0),
    ("evolution", {"t_final": 1.0, "step": 0.1}, "t_final", 2.0),
    ("evolution", {"t_final": 1.0, "step": 0.1}, "step", 0.2),
    ("evolution", {"t_final": 1.0, "tol": 1e-8}, "tol", 1e-9),
    ("evolution", {"t_final": 1.0}, "stride", 3),
    ("evolution", {"t_final": 1.0}, "snapshots", True),
    ("sweep", {"parameter": "Ntilde", "values": [1, 2]}, "parameter", "gamma1.zz"),
    ("sweep", {"parameter": "Ntilde", "values": [1, 2]}, "values", (1.0, 3.0)),
    ("dfs", {"candidates": "fock_basis"}, "candidates", "singlet"),
    ("dfs", {"candidates": "fock_basis"}, "subspace", True),
    ("output", {}, "path", "out.csv"),
    ("output", {}, "format", "json"),
]


class TestRoundTrip:
    def test_to_dict_reparses_identically(self):
        docs = [
            base_doc(evolution={"t_final": 1.0, "step": 0.01}),
            common_doc(sweep={"parameter": "lambda", "values": [0.0, 1.0, 2.0]}),
            base_doc(dfs={"candidates": "fock_basis", "subspace": True}),
        ]
        single = {"kind": "independent", "axes": ["z"], "gamma1": {"zz": 1.0}}
        for state in STATES:
            docs.append(base_doc(state=state))
        docs.append(base_doc(model=single, ensembles={"j1": 1}, state={"kind": "fock", "m1": 0}))
        docs.append(base_doc(model=single, ensembles={"j1": 1}, state={"kind": "plus_x"}))
        for doc in docs:
            cfg = parse_config(doc)
            canon = config_to_dict(cfg)
            again = config_to_dict(parse_config(canon))
            assert canon == again
            assert config_digest(cfg) == config_digest(parse_config(canon))

    @pytest.mark.parametrize("block,doc,field,value", REPLACEMENTS,
                             ids=[f"{block}.{field}" for block, _, field, _ in REPLACEMENTS])
    def test_digest_covers_every_field(self, block, doc, field, value):
        cfg = parse_config(base_doc(**{block: doc}))
        changed = cfg._replace(**{block: getattr(cfg, block)._replace(**{field: value})})
        canon = config_to_dict(changed)
        assert config_to_dict(parse_config(canon)) == canon
        assert config_digest(parse_config(canon)) != config_digest(cfg)

    def test_replacements_name_every_field(self):
        types = {"state": StateConfig, "evolution": EvolutionConfig, "sweep": SweepConfig, "dfs": DfsConfig,
                 "output": OutputConfig}
        covered = {(block, field) for block, _, field, _ in REPLACEMENTS}
        assert covered == {(block, field) for block, tuple_type in types.items() for field in tuple_type._fields}

    def test_canonical_gamma_spelled_out(self):
        canon = config_to_dict(parse_config(base_doc()))
        assert set(canon["model"]["gamma1"]) == {"xx", "xy", "xz", "yy", "yz", "zz"}

    def test_digest_tracks_values(self):
        a = config_digest(parse_config(base_doc()))
        doc = base_doc()
        doc["model"]["gamma1"] = {"zz": 1.0000001}
        b = config_digest(parse_config(doc))
        assert a != b
        assert len(a) == 64
        assert a == config_digest(parse_config(base_doc()))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_digest_is_hashlib_sha256(self, name):
        # the built-in sha256 the digest takes gives hashlib's bytes, on every
        # shipped config
        cfg = load_config(CONFIGS / name)
        blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
        assert config_digest(cfg) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_doc()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.j1 == 1.0
        assert np.all(cfg.model.gamma1 >= 0)
