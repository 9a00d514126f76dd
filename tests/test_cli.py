import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ibkernel.cli import ConfigError, RunConfig, main
from ibkernel.experiments import CircleCaseConfig, run_circle_case, validate_moments
from ibkernel.kernels import BasisDegree, KernelSource, KernelWeights, build_basis


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCircle:
    def test_case1_outputs(self, in_tmp, capsys):
        assert main(["circle", "--case", "1"]) == 0
        header, rows = read_csv(in_tmp / "circle_case1_table.csv")
        assert header == [
            "marker_deg", "rel_error", "psi_min", "psi_max", "eq_residual",
            "mode",
        ]
        assert len(rows) == 4
        assert [r["marker_deg"] for r in rows] == ["40", "140", "230", "310"]
        for r in rows:
            assert float(r["rel_error"]) <= 1e-12
            assert r["mode"] == "Exact"
        wheader, wrows = read_csv(in_tmp / "circle_case1_weights.csv")
        assert wheader == ["x", "y", "psi", "marker_deg"]
        assert len(wrows) > 100
        out = capsys.readouterr().out
        assert "marker 40 deg" in out

    def test_deterministic_bytes(self, in_tmp):
        args = ["circle", "--case", "3", "--table", "a.csv", "--weights", "wa.csv"]
        assert main(args) == 0
        again = ["circle", "--case", "3", "--table", "b.csv", "--weights", "wb.csv"]
        assert main(again) == 0
        assert (in_tmp / "a.csv").read_bytes() == (in_tmp / "b.csv").read_bytes()
        assert (in_tmp / "wa.csv").read_bytes() == (in_tmp / "wb.csv").read_bytes()

    def test_case3_bounds_in_table(self, in_tmp):
        assert main(["circle", "--case", "3"]) == 0
        _, rows = read_csv(in_tmp / "circle_case3_table.csv")
        for r in rows:
            assert float(r["psi_min"]) >= -0.07 - 1e-10
            assert float(r["psi_max"]) <= 0.5 + 1e-10
            assert r["mode"] == "Exact"

    def test_bounds_flag_overrides(self, in_tmp):
        code = main(["circle", "--case", "4", "--bounds", "0.0", "0.9"])
        assert code == 0
        _, rows = read_csv(in_tmp / "circle_case4_table.csv")
        for r in rows:
            assert float(r["psi_max"]) <= 0.9 + 1e-10

    def test_zero_width_bounds(self, in_tmp):
        # alpha == beta: no marker can meet the moments, so every row is
        # the soft fallback, with every weight at the bound.
        assert main(["circle", "--case", "4", "--bounds", "0", "0"]) == 0
        _, rows = read_csv(in_tmp / "circle_case4_table.csv")
        assert len(rows) == 4
        for r in rows:
            assert r["mode"] == "SoftConstraint"
            assert float(r["psi_min"]) == float(r["psi_max"]) == 0.0

    def test_bounds_on_unbounded_case_rejected(self, in_tmp, capsys):
        code = main(["circle", "--case", "1", "--bounds", "0.0", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (in_tmp / "circle_case1_table.csv").exists()

    def test_config_file_case(self, in_tmp):
        (in_tmp / "ibkernel.json").write_text(json.dumps({"case": 2}))
        assert main(["circle"]) == 0
        _, rows = read_csv(in_tmp / "circle_case2_table.csv")
        assert min(float(r["psi_min"]) for r in rows) < -1e-3

    def test_case_flag_wins_over_config(self, in_tmp):
        (in_tmp / "ibkernel.json").write_text(json.dumps({"case": 2}))
        assert main(["circle", "--case", "1"]) == 0
        assert (in_tmp / "circle_case1_table.csv").exists()

    def test_unknown_config_key_rejected(self, in_tmp, capsys):
        (in_tmp / "bad.json").write_text(json.dumps({"mesh": 0.075}))
        code = main(["circle", "--case", "1", "--config", "bad.json"])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (in_tmp / "circle_case1_table.csv").exists()

    def test_missing_config_file(self, in_tmp, capsys):
        code = main(["circle", "--case", "1", "--config", "absent.json"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_config_geometry_matches_library(self, in_tmp):
        cfg = {"mesh_width": 0.1, "radius": 0.45, "marker_angles_deg": [10, 20]}
        (in_tmp / "cfg.json").write_text(json.dumps(cfg))
        assert main(["circle", "--case", "2", "--config", "cfg.json"]) == 0
        _, rows = read_csv(in_tmp / "circle_case2_table.csv")
        table = run_circle_case(CircleCaseConfig.for_case(
            2, mesh_width=0.1, radius=0.45, marker_angles_deg=(10.0, 20.0)
        ))
        assert len(rows) == len(table.rows) == 2
        for row, ref in zip(rows, table.rows):
            assert float(row["marker_deg"]) == ref.marker_deg
            assert float(row["rel_error"]) == ref.rel_error
            assert float(row["psi_min"]) == ref.psi_min
            assert float(row["psi_max"]) == ref.psi_max
            assert float(row["eq_residual"]) == ref.eq_residual
            assert row["mode"] == ref.mode


NAN, INF = float("nan"), float("inf")
ONE_SIDED = ["kernel", "--formulation", "one-sided", "--eval", "0.383", "0.321"]
CASE_2 = ["circle", "--case", "2"]


@pytest.mark.parametrize("argv, cfg", [
    (["circle"], {"tolerances": {"zero_weight": "x"}}),
    (["circle"], {"case": "x"}),
    (["circle"], {"penalty": 1e8}),
    (["circle"], {"tolerances": {"residual": 1e-10}}),
    (["circle"], {"tolerances": {"complementarity": 1e-10}}),
    (["kernel", "--eval", "0.31", "-0.17"], {"tolerances": {"spd_pivot": 1e-14}}),
    (["kernel", "--eval", "0.31", "-0.17"], {"mesh_width": "abc"}),
    (["kernel", "--eval", "0.31", "-0.17"], {"extents": [["a", 1], [-1, 1]]}),
    (ONE_SIDED, {"radius": "x"}),
    (["kernel", "--formulation", "peskin4"], {"shift": ["a"]}),
    (["circle"], {"field_coefficients": [NAN, 1]}),
    (["circle"], {"marker_angles_deg": [INF]}),
    (["circle"], {"marker_angles_deg": 40}),
    (["circle"], {"marker_angles_deg": [[40, 140]]}),
    (["circle"], {"center": [NAN, 0]}),
    (["circle"], {"mesh_width": NAN}),
    (["circle"], {"mesh_width": -0.1}),
    (["circle"], {"extents": [[1, -1], [-1, 1]]}),
    (["kernel", "--eval", "0.31", "-0.17"], {"extents": [[1, -1], [-1, 1]]}),
    (ONE_SIDED, {"center": [NAN, 0]}),
    (["circle"], {"mesh_width": INF}),
    (["kernel", "--eval", "0.31", "-0.17"], {"mesh_width": INF}),
    (CASE_2, {"field_coefficients": [1, 2, 3]}),
    (CASE_2, {"field_coefficients": 5}),
    (CASE_2, {"center": [0, 0, 0]}),
    (CASE_2, {"extents": [[-1, 1]]}),
    (ONE_SIDED, {"center": [0, 0, 0]}),
    (ONE_SIDED, {"center": [0]}),
    (["circle"], {"weight_kernel": "psi4"}),
    (["circle"], {"basis_degree": "ConstantOnly"}),
], ids=["tolerance", "case", "penalty", "residual", "complementarity",
     "spd_pivot", "mesh_width", "extents", "radius", "shift", "nan_field",
     "inf_angle", "scalar_angle", "nested_angles", "nan_center",
     "nan_mesh_width", "negative_mesh_width", "inverted_extents",
     "kernel_inverted_extents", "one_sided_nan_center", "inf_mesh_width",
     "kernel_inf_mesh_width", "three_field_coefficients",
     "scalar_field_coefficients", "3d_center", "one_extent",
     "one_sided_3d_center", "one_sided_1d_center", "circle_weight_kernel",
     "circle_basis_degree"])
def test_malformed_config_value_is_config_error(in_tmp, capsys, argv, cfg):
    (in_tmp / "cfg.json").write_text(json.dumps(cfg))
    assert main([*argv, "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # The message names the key at fault.
    if list(cfg) in (["mesh_width"], ["weight_kernel"], ["basis_degree"]):
        assert err.startswith(f"error: {list(cfg)[0]}")
    assert [p.name for p in in_tmp.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("field", ["rank_pivot", "zero_weight", "feasibility"])
@pytest.mark.parametrize("value", ["nan", "inf", -5, -1e-3])
@pytest.mark.parametrize("argv", [
    ["circle", "--case", "4"], ["kernel", "--eval", "0.31", "-0.17"],
], ids=["circle", "kernel"])
def test_tolerance_out_of_range_is_config_error(in_tmp, capsys, argv, field, value):
    # The thresholds are constants now, so a config that still sets one is
    # refused before any run, whatever its value.
    (in_tmp / "cfg.json").write_text(json.dumps({"tolerances": {field: value}}))
    assert main([*argv, "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys: ['tolerances']")
    assert [p.name for p in in_tmp.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("coords", [["nan", "0.1"], ["inf", "0.2"], ["0.3", "inf"]])
def test_non_finite_eval_is_config_error(in_tmp, capsys, coords):
    assert main(["kernel", "--eval", *coords]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --eval")
    assert list(in_tmp.iterdir()) == []


def test_negative_numbers_in_exponent_form_are_arguments(in_tmp):
    assert main(["kernel", "--eval", "0.31", "-1e-3", "--out", "e.json"]) == 0
    assert main(["kernel", "--eval", "0.31", "-0.001", "--out", "d.json"]) == 0
    assert (in_tmp / "e.json").read_bytes() == (in_tmp / "d.json").read_bytes()
    assert main(["circle", "--case", "3", "--bounds", "-7E-2", "0.5e+0",
                 "--table", "e.csv", "--weights", "ew.csv"]) == 0
    assert main(["circle", "--case", "3", "--bounds", "-0.07", "0.5",
                 "--table", "d.csv", "--weights", "dw.csv"]) == 0
    assert (in_tmp / "e.csv").read_bytes() == (in_tmp / "d.csv").read_bytes()
    assert main(["validate", "e.json", "--tolerance", "-1e-10"]) == 2


class TestKernel:
    def test_standard_matches_backus_gilbert(self, in_tmp):
        ev = ["0.31", "-0.17"]
        assert main(["kernel", "--formulation", "standard",
                     "--eval", *ev, "--out", "std.json"]) == 0
        assert main(["kernel", "--formulation", "backus-gilbert",
                     "--eval", *ev, "--out", "bg.json"]) == 0
        std = json.loads((in_tmp / "std.json").read_text())
        bg = json.loads((in_tmp / "bg.json").read_text())
        # the closed form is Problem B's minimizer: one pipeline, one text
        for key in ("sites", "eval", "psi", "eq_residual"):
            assert std[key] == bg[key]
        assert std["source"] == "ClosedForm"
        assert bg["source"] == "ProblemB"

    def test_grid_node_returns_raw_weights(self, in_tmp):
        # cell center (0.0125, 0.0125): the tensor weights already satisfy
        # the moment conditions, so psi must equal them
        assert main(["kernel", "--formulation", "standard",
                     "--eval", "0.0125", "0.0125", "--out", "k.json"]) == 0
        doc = json.loads((in_tmp / "k.json").read_text())
        sites = np.array([[float(v) for v in s] for s in doc["sites"]])
        psi = np.array([float(v) for v in doc["psi"]])
        from ibkernel.kernels import WeightFunction, tensor_weight

        wf = WeightFunction.six_point_spline(0.075)
        raw = np.array(
            [tensor_weight(s, [0.0125, 0.0125], wf) for s in sites]
        )
        assert np.max(np.abs(psi - raw)) <= 1e-13

    def test_peskin4(self, in_tmp, capsys):
        assert main(["kernel", "--formulation", "peskin4",
                     "--shift", "0.5", "--out", "p.json"]) == 0
        doc = json.loads((in_tmp / "p.json").read_text())
        w = np.array([float(v) for v in doc["weights"][0]])
        lo = (2 - np.sqrt(2)) / 8
        hi = (2 + np.sqrt(2)) / 8
        assert_allclose(w, [lo, hi, hi, lo], atol=1e-15)
        assert doc["source"] == "ProblemC"
        assert doc["offsets"] == [-1, 0, 1, 2]
        assert "0.073223" in capsys.readouterr().out

    def test_peskin4_requires_shift(self, in_tmp):
        assert main(["kernel", "--formulation", "peskin4"]) == 2

    def test_peskin4_nan_shift_rejected(self, in_tmp, capsys):
        assert main(["kernel", "--formulation", "peskin4",
                     "--shift", "nan", "--out", "p.json"]) == 2
        assert "[0, 1)" in capsys.readouterr().err
        assert not (in_tmp / "p.json").exists()

    def test_one_sided_with_bounds(self, in_tmp):
        cfg = {"bounds": [-0.07, 0.5], "radius": 0.5, "center": [0.0, 0.0]}
        (in_tmp / "cfg.json").write_text(json.dumps(cfg))
        ang = np.deg2rad(40.0)
        ev = [f"{0.5 * np.cos(ang):.17g}", f"{0.5 * np.sin(ang):.17g}"]
        assert main(["kernel", "--formulation", "one-sided", "--config",
                     "cfg.json", "--eval", *ev, "--out", "os.json"]) == 0
        doc = json.loads((in_tmp / "os.json").read_text())
        psi = np.array([float(v) for v in doc["psi"]])
        assert doc["source"] == "ProblemD"
        assert np.all(psi >= -0.07 - 1e-10)
        assert np.all(psi <= 0.5 + 1e-10)

    def test_one_sided_psi4_constant_basis(self, in_tmp):
        cfg = {"weight_kernel": "psi4", "basis_degree": "ConstantOnly",
               "bounds": [0.0, 0.75]}
        (in_tmp / "cfg.json").write_text(json.dumps(cfg))
        assert main(["kernel", "--formulation", "one-sided", "--config",
                     "cfg.json", "--eval", "0.383", "0.321",
                     "--out", "os.json"]) == 0
        doc = json.loads((in_tmp / "os.json").read_text())
        sites = np.array([[float(v) for v in s] for s in doc["sites"]])
        psi = np.array([float(v) for v in doc["psi"]])
        assert doc["source"] == "ProblemD"
        assert doc["basis_degree"] == "ConstantOnly"
        assert len(psi) == 16
        assert abs(psi.sum() - 1.0) <= 1e-10
        inside = np.linalg.norm(sites, axis=1) <= 0.5
        assert np.count_nonzero(inside) == 8
        assert np.all(psi[inside] == 0.0)
        assert np.all((psi >= 0.0) & (psi <= 0.75))
        weights = KernelWeights(
            psi=psi, sites=sites,
            eval=np.array([float(v) for v in doc["eval"]]),
            source=KernelSource(doc["source"]),
            equality_residual=float(doc["eq_residual"]),
        )
        basis = build_basis(2, BasisDegree.CONSTANT_ONLY)
        assert np.max(validate_moments(weights, basis)) <= 1e-10

    def test_eval_required(self, in_tmp, capsys):
        assert main(["kernel", "--formulation", "standard"]) == 2
        assert "--eval" in capsys.readouterr().err

    def test_eval_dimension_checked(self, in_tmp):
        assert main(["kernel", "--formulation", "standard",
                     "--eval", "0.1"]) == 2

    def test_edge_eval_is_solver_error(self, in_tmp, capsys):
        code = main(["kernel", "--formulation", "standard",
                     "--eval", "0.9", "0.0", "--out", "edge.json"])
        assert code == 3
        assert "StencilOutsideDomain" in capsys.readouterr().err
        assert not (in_tmp / "edge.json").exists()

    def test_bad_formulation_in_config(self, in_tmp):
        (in_tmp / "cfg.json").write_text(json.dumps({"formulation": "qp"}))
        assert main(["kernel", "--config", "cfg.json",
                     "--eval", "0.1", "0.1"]) == 2

    def test_psi4_weight_kernel(self, in_tmp):
        (in_tmp / "cfg.json").write_text(json.dumps({"weight_kernel": "psi4"}))
        assert main(["kernel", "--formulation", "standard", "--config",
                     "cfg.json", "--eval", "0.31", "-0.17",
                     "--out", "k4.json"]) == 0
        doc = json.loads((in_tmp / "k4.json").read_text())
        # 4-point tensor support is at most 16 sites
        assert len(doc["psi"]) <= 16


class TestValidate:
    def _write_kernel(self, path="k.json", ev=("0.31", "-0.17")):
        assert main(["kernel", "--formulation", "standard",
                     "--eval", *ev, "--out", path]) == 0
        return path

    def test_clean_file_passes(self, in_tmp, capsys):
        path = self._write_kernel()
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "moment zeroth" in out
        assert "[ok]" in out

    def test_corrupt_psi_fails(self, in_tmp, capsys):
        path = self._write_kernel()
        doc = json.loads((in_tmp / path).read_text())
        doc["psi"][0] = "0.25"
        (in_tmp / path).write_text(json.dumps(doc))
        assert main(["validate", path]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_nan_psi_fails(self, in_tmp, capsys):
        path = self._write_kernel()
        doc = json.loads((in_tmp / path).read_text())
        doc["psi"][0] = "nan"
        (in_tmp / path).write_text(json.dumps(doc))
        assert main(["validate", path]) == 1
        assert "[ok]" not in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-10"])
    def test_bad_tolerance_rejected(self, in_tmp, capsys, tolerance):
        path = self._write_kernel()
        assert main(["validate", path, f"--tolerance={tolerance}"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_length_mismatch_is_input_error(self, in_tmp, capsys):
        path = self._write_kernel()
        doc = json.loads((in_tmp / path).read_text())
        doc["psi"].pop()
        (in_tmp / path).write_text(json.dumps(doc))
        assert main(["validate", path]) == 2
        assert "malformed weights file" in capsys.readouterr().err

    def test_malformed_json(self, in_tmp):
        (in_tmp / "junk.json").write_text("{not json")
        assert main(["validate", "junk.json"]) == 2

    def test_missing_fields(self, in_tmp):
        (in_tmp / "empty.json").write_text(json.dumps({"psi": ["0.5"]}))
        assert main(["validate", "empty.json"]) == 2

    def test_missing_file(self, in_tmp):
        assert main(["validate", "nowhere.json"]) == 2

    def test_peskin_file_postulates(self, in_tmp, capsys):
        assert main(["kernel", "--formulation", "peskin4",
                     "--shift", "0.37", "0.81", "--out", "p.json"]) == 0
        assert main(["validate", "p.json", "--tolerance", "1e-12"]) == 0
        out = capsys.readouterr().out
        for name in ("even-sum", "odd-sum", "first-moment", "sum-of-squares"):
            assert name in out

    def test_round_trip_residuals_match(self, in_tmp):
        path = self._write_kernel()
        doc = json.loads((in_tmp / path).read_text())
        sites = np.array([[float(v) for v in s] for s in doc["sites"]])
        from_file = KernelWeights(
            psi=np.array([float(v) for v in doc["psi"]]),
            sites=sites,
            eval=np.array([float(v) for v in doc["eval"]]),
            source=KernelSource(doc["source"]),
            equality_residual=float(doc["eq_residual"]),
        )
        basis = build_basis(2, BasisDegree.LINEAR)
        file_res = validate_moments(from_file, basis)

        cfg = CircleCaseConfig.for_case(1)
        strategy = cfg.strategy()
        from ibkernel.ibops import make_grid

        grid = make_grid(cfg.extents, cfg.mesh_width)
        _, weights = strategy.kernel_for(grid, np.array([0.31, -0.17]))
        live_res = validate_moments(weights, basis)
        assert np.max(np.abs(file_res - live_res)) <= 1e-14


class TestRunConfig:
    def test_known_keys(self):
        cfg = RunConfig({"case": 3, "mesh_width": 0.1})
        assert cfg.get("case") == 3
        assert "mesh_width" in cfg
        assert cfg.get("radius", 0.5) == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"mesh": 0.1})

    def test_tolerance_keys_checked(self):
        # The solver thresholds are constants: a tolerances key of any
        # shape, the former defaults included, is unknown.
        for tols in ({"spd": 1e-14}, [1e-14], {"zero_weight": 1e-14}, {}):
            with pytest.raises(ConfigError, match="tolerances"):
                RunConfig({"tolerances": tols})

    def test_empty(self):
        cfg = RunConfig()
        assert cfg.get("case") is None
        assert "case" not in cfg


def test_csv_values_round_trip(in_tmp):
    assert main(["circle", "--case", "2"]) == 0
    _, rows = read_csv(in_tmp / "circle_case2_table.csv")
    table = run_circle_case(CircleCaseConfig.for_case(2))
    for row, ref in zip(rows, table.rows):
        assert float(row["rel_error"]) == ref.rel_error
        assert float(row["psi_min"]) == ref.psi_min
        assert float(row["eq_residual"]) == ref.eq_residual
