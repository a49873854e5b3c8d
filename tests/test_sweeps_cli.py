import json
import math
from dataclasses import replace

import pytest

from pmcs import cli, nonclassical, states, sweeps
from pmcs.errors import ConfigError
from pmcs.sweeps import GammaGrid, QuasiSpec, SweepConfig, ZetaGrid

TINY = SweepConfig(
    family="fidelity",
    mu=(1 / 3,),
    nu=(2 / 3,),
    n_values=(0, 1),
    zeta=ZetaGrid(r_min=0.5, r_max=1.0, r_steps=2),
)


class TestConfig:
    def test_preset_names(self):
        for name in sweeps.PRESET_NAMES:
            cfg = sweeps.preset_config(name)
            cfg.validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            sweeps.preset_config("fig9")

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            replace(TINY, engine="fast").validate()
        with pytest.raises(ConfigError):
            replace(TINY, zeta=ZetaGrid(-0.5, 1.0, 2)).validate()
        with pytest.raises(ConfigError):
            replace(TINY, n_values=(40,)).validate()
        with pytest.raises(ConfigError):
            replace(TINY, family="quasiprob").validate()  # missing quasi block

    @pytest.mark.parametrize(
        "field,update",
        [
            ("mu", {"mu": (complex(math.inf, 0.0),)}),
            ("nu", {"nu": (complex(0.5, math.nan),)}),
            ("zeta.r_min", {"zeta": ZetaGrid(math.nan, 1.0, 2)}),
            ("zeta.r_max", {"zeta": ZetaGrid(0.5, math.inf, 2)}),
            ("zeta.thetas", {"zeta": ZetaGrid(0.5, 1.0, 2, (0.0, math.nan))}),
            ("quasi.s", {"family": "quasiprob", "quasi": QuasiSpec(math.nan, GammaGrid(0.0, 1.0, 2))}),
            (
                "quasi.gamma.r_max",
                {"family": "quasiprob", "quasi": QuasiSpec(-1.0, GammaGrid(0.0, math.inf, 2))},
            ),
            (
                "quasi.gamma.thetas",
                {"family": "quasiprob", "quasi": QuasiSpec(-1.0, GammaGrid(0.0, 1.0, 2, (math.inf,)))},
            ),
        ],
    )
    def test_non_finite_values_rejected(self, field, update):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            replace(TINY, **update).validate()

    def test_nan_config_exits_2_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"zeta": {"r_min": "nan", "r_max": 1.0, "r_steps": 2}}))
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "zeta.r_min must be finite" in err
        assert "cannot convert" not in err

    @pytest.mark.parametrize("r", [1e6, 1e200])
    def test_underflowing_coherent_state_is_a_convergence_row(self, r):
        cfg = replace(TINY, n_values=(1,), zeta=ZetaGrid(r, r, 1))
        rows = sweeps.run_sweep(cfg)
        assert [row.quantity for row in rows] == ["norm_sq", "fidelity"]
        for row in rows:
            assert row.error.startswith("ConvergenceError: ")
            assert "underflows at every level" in row.error

    def test_overflowing_gamma_step_is_a_config_error(self):
        # r_max - r_min overflows: the step is inf and the gammas would be NaN
        # or infinite; the sweep is refused before any row
        cfg = SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(2,), engine="oracle",
            zeta=ZetaGrid(1.0, 1.0, 1), quasi=QuasiSpec(-0.5, GammaGrid(-1e308, 1e308, 3)),
        )
        with pytest.raises(ConfigError, match=r"^quasi\.gamma radii must be finite, got nan$"):
            sweeps.run_sweep(cfg)

    @pytest.mark.parametrize(
        "command,doc,grid",
        [
            (["fidelity", "sweep", "--preset", "fig4"],
             {"zeta": {"r_min": 1e308, "r_max": -1e308, "r_steps": 3}}, "zeta"),
            (["quasiprob", "grid", "--preset", "fig3a"],
             {"quasi": {"s": -0.5, "gamma": {"r_min": -1e308, "r_max": 1e308, "r_steps": 3}}}, "quasi.gamma"),
        ],
        ids=["zeta", "gamma"],
    )
    def test_overflowing_radius_step_exits_2_naming_the_grid(self, tmp_path, capsys, command, doc, grid):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {grid} radii must be finite, got nan\n"

    def test_load_config_overrides(self, tmp_path):
        doc = {"N": [2], "engine": "oracle", "zeta": {"r_min": 1.0, "r_max": 1.0, "r_steps": 1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = sweeps.load_config(str(path), base=TINY)
        assert cfg.n_values == (2,)
        assert cfg.engine == "oracle"
        assert cfg.zeta.r_steps == 1
        assert cfg.mu == TINY.mu  # untouched fields survive

    def test_load_config_complex_forms(self, tmp_path):
        doc = {"family": "a3", "mu": [[0.0, 0.5], "1+2j", 0.25], "nu": [1.0], "N": [1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = sweeps.load_config(str(path))
        assert cfg.mu == (0.5j, 1 + 2j, 0.25 + 0j)

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "a3", "zoom": 2}))
        with pytest.raises(ConfigError):
            sweeps.load_config(str(path))

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            sweeps.load_config(str(path))


class TestRows:
    def test_base_schema_extends_documented_header(self):
        documented = (
            "mu_re,mu_im,nu_re,nu_im,N,r,theta,quantity,"
            "paper_value,oracle_value,rel_gap,truncation_dim,tail_mass"
        )
        assert ",".join(sweeps.columns_for("a3")).startswith(documented)
        assert sweeps.columns_for("a3")[-1] == "error"

    def test_quasi_schema_has_gamma_columns(self):
        cols = sweeps.columns_for("quasiprob")
        assert ("s", "gamma_re", "gamma_im") == cols[7:10]

    def test_fig3a_row_count_is_grid_product(self):
        cfg = sweeps.preset_config("fig3a")
        rows = sweeps.run_sweep(cfg)
        assert len(rows) == cfg.quasi.gamma.r_steps * len(cfg.quasi.gamma.thetas)

    def test_norm_row_and_quantity_rows(self):
        rows = sweeps.run_sweep(TINY)
        # per state point: one norm_sq row + one fidelity row
        assert len(rows) == 2 * 2 * 2
        assert [r.quantity for r in rows[:2]] == ["norm_sq", "fidelity"]
        fid = rows[1]
        assert fid.paper_value is not None and fid.oracle_value is not None
        assert fid.rel_gap == pytest.approx(
            abs(fid.paper_value - fid.oracle_value) / abs(fid.oracle_value)
        )

    def test_engine_oracle_drops_paper_values(self):
        rows = sweeps.run_sweep(replace(TINY, engine="oracle"))
        fid_rows = [r for r in rows if r.quantity == "fidelity"]
        assert all(r.paper_value is None and r.oracle_value is not None for r in fid_rows)

    def test_engine_paper_drops_oracle_values(self):
        rows = sweeps.run_sweep(replace(TINY, engine="paper"))
        fid_rows = [r for r in rows if r.quantity == "fidelity"]
        assert all(r.paper_value is not None and r.oracle_value is None for r in fid_rows)

    def test_degenerate_point_becomes_error_row(self):
        cfg = SweepConfig(
            family="fidelity", mu=(1.0,), nu=(0.0,), n_values=(1,),
            zeta=ZetaGrid(r_min=0.0, r_max=1.0, r_steps=2),
        )
        rows = sweeps.run_sweep(cfg)
        bad = [r for r in rows if r.r == 0.0]
        good = [r for r in rows if r.r == 1.0]
        assert bad and all("DegenerateStateError" in r.error for r in bad)
        assert all(r.paper_value is None and r.oracle_value is None for r in bad)
        assert good and all(not r.error for r in good)

    @pytest.mark.parametrize("family", ["a3", "squeeze", "fidelity", "quasiprob"])
    def test_one_state_build_per_point(self, monkeypatch, family):
        built = []
        original = states.build_state

        def spy(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(states, "build_state", spy)
        cfg = replace(TINY, family=family, n_values=(0, 2))
        if family == "quasiprob":
            cfg = replace(cfg, quasi=sweeps.QuasiSpec(s=-0.5, gamma=sweeps.GammaGrid(0.5, 1.0, 2)))
        rows = sweeps.run_sweep(cfg)
        assert len(built) == len(cfg.n_values) * cfg.zeta.r_steps
        if family != "quasiprob":
            norm_rows = [r for r in rows if r.quantity == "norm_sq"]
            assert [
                (r.paper_value, r.oracle_value, r.rel_gap) for r in norm_rows
            ] == [(st.norm_sq_paper, st.norm_sq_oracle, st.discrepancy) for st in built]

    def test_squeeze_family_quantities(self):
        cfg = SweepConfig(
            family="squeeze", mu=(1 / 3,), nu=(2 / 3,), n_values=(1,),
            zeta=ZetaGrid(r_min=1.0, r_max=1.0, r_steps=1),
        )
        rows = sweeps.run_sweep(cfg)
        assert [r.quantity for r in rows] == ["norm_sq", "I1", "I2", "uncertainty_product"]
        by_name = {r.quantity: r for r in rows}
        assert by_name["I1"].oracle_value == pytest.approx(-40 / 169, abs=1e-10)
        assert by_name["I2"].oracle_value == pytest.approx(8 / 13, abs=1e-10)

    def test_tiny_rerun_byte_identical(self):
        first = sweeps.render(sweeps.run_sweep(TINY), TINY.family, "csv")
        second = sweeps.render(sweeps.run_sweep(TINY), TINY.family, "csv")
        assert first == second

    def test_json_rendering_round_trips(self):
        rows = sweeps.run_sweep(TINY)
        payload = json.loads(sweeps.render(rows, TINY.family, "json"))
        assert len(payload) == len(rows)
        assert payload[0]["quantity"] == "norm_sq"
        assert set(payload[0]) == set(sweeps.columns_for(TINY.family))

    def test_empty_sweep_renders_header_only(self):
        text = sweeps.render([], "a3", "csv")
        assert text == ",".join(sweeps.columns_for("a3")) + "\n"

    def test_emit_writes_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = replace(TINY, output_path=str(out))
        text = sweeps.emit(sweeps.run_sweep(cfg), cfg)
        assert out.read_bytes().decode() == text

    def test_gnuplot_hint_mentions_file(self):
        hint = sweeps.gnuplot_hint(TINY, "out.csv")
        assert "out.csv" in hint and "plot" in hint


ONE_POINT = replace(TINY, n_values=(1,), zeta=ZetaGrid(1.0, 1.0, 1))
FAMILY_POINTS = {
    "a3": replace(ONE_POINT, family="a3"),
    "squeeze": replace(ONE_POINT, family="squeeze"),
    "fidelity": ONE_POINT,
    "quasiprob": replace(
        ONE_POINT, family="quasiprob", quasi=QuasiSpec(-0.5, GammaGrid(0.5, 1.0, 2, (0.0, 1.0)))
    ),
}
QUANTITIES = {
    "a3": ["norm_sq", "a3"],
    "squeeze": ["norm_sq", "I1", "I2", "uncertainty_product"],
    "fidelity": ["norm_sq", "fidelity"],
    "quasiprob": ["quasiprob"] * 4,
}


class TestEngineFamilyMatrix:
    @pytest.mark.parametrize("engine", sweeps.ENGINES)
    @pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
    def test_value_columns_follow_engine(self, family, engine):
        cfg = replace(FAMILY_POINTS[family], engine=engine)
        rows = sweeps.run_sweep(cfg)
        # norm_sq rows appear for the state families only
        assert [row.quantity for row in rows] == QUANTITIES[family]
        has_paper = family != "squeeze" and engine != "oracle"
        has_oracle = family == "squeeze" or engine != "paper"
        for row in rows:
            assert not row.error
            if row.quantity == "norm_sq":
                assert row.paper_value is not None and row.oracle_value is not None
                continue
            assert (row.paper_value is not None) == has_paper
            assert (row.oracle_value is not None) == has_oracle
            assert (row.rel_gap is not None) == (has_paper and has_oracle)
        if family == "squeeze":  # no closed form: the oracle runs under every engine
            both = sweeps.run_sweep(replace(cfg, engine="both"))
            assert [row.as_record(family) for row in rows] == [row.as_record(family) for row in both]
        if family == "quasiprob":
            assert [(row.s, row.gamma) for row in rows] == [(-0.5, g) for g in cfg.quasi.gamma.points()]
        else:
            assert all(row.s is None and row.gamma is None for row in rows)


class TestPresetCoverage:
    def test_presets_exercise_every_public_operation(self, monkeypatch):
        called = set()

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                called.add(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("build_state", "paper_norm_sq", "compare_norms"):
            spy(states, name)
        for name in (
            "moments_oracle", "moments_paper", "a3", "squeezing_identities",
            "uncertainty_product", "quasiprob_grid", "quasiprob_paper",
            "fidelity_oracle", "fidelity_paper",
        ):
            spy(nonclassical, name)

        for preset in sweeps.PRESET_NAMES:
            sweeps.run_sweep(sweeps.preset_config(preset))

        expected = {
            "build_state", "paper_norm_sq",
            "moments_oracle", "moments_paper", "a3", "squeezing_identities",
            "uncertainty_product", "quasiprob_grid", "quasiprob_paper",
            "fidelity_oracle", "fidelity_paper",
        }
        assert expected <= called


class TestCli:
    @pytest.mark.parametrize("command", [
        ["weyl", "dump", "--N", "2", "--mu", "2+5e-324j", "--nu", "1"],
        ["state", "build", "--mu", "0", "--nu", "1", "--N", "1", "--zeta-re", "2", "--zeta-im", "5e-324"],
    ])
    def test_underflowing_phase_is_no_traceback(self, command, capsys):
        # atan2(5e-324, 2) underflows; cmath.phase raised OverflowError on it
        assert cli.main(command) == 0

    def test_weyl_dump(self, capsys):
        assert cli.main(["weyl", "dump", "--N", "2", "--mu", "1", "--nu", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {(t["m"], t["n"]) for t in doc["terms"]} == {(0, 0), (0, 2), (1, 1), (2, 0)}

    def test_state_build(self, capsys):
        code = cli.main([
            "state", "build", "--mu", "0", "--nu", "1", "--N", "2",
            "--zeta-re", "1.0", "--zeta-im", "0.0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["norm_sq_paper"] == pytest.approx(7.0, rel=1e-12)
        assert doc["discrepancy"] <= 1e-9
        assert doc["basis_offset"] == 3
        assert len(doc["amplitudes"]) == doc["dim"]

    def test_state_build_degenerate_exit_code(self, capsys):
        code = cli.main([
            "state", "build", "--mu", "1", "--nu", "0", "--N", "1",
            "--zeta-re", "0", "--zeta-im", "0",
        ])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_amplitudes_exit_3_naming_the_overflow(self, capsys):
        # (1e200 a)^2 |zeta=1> leaves the double range in the amplitudes themselves
        code = cli.main([
            "state", "build", "--mu", "1e200", "--nu", "0", "--N", "2",
            "--zeta-re", "1", "--zeta-im", "0",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: superposed power overflows the double range")

    @pytest.mark.parametrize("dim", [[], ["--dim", "64"]], ids=["default-dim", "dim-64"])
    def test_overflowing_zeta_modulus_exits_3(self, capsys, dim):
        # |zeta| = 2.1e308 leaves the double range although both parts are finite
        code = cli.main([
            "state", "build", "--mu", "1", "--nu", "1", "--N", "1",
            "--zeta-re", "1.5e308", "--zeta-im", "1.5e308", *dim,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: coherent state |zeta| overflows the double range")

    def test_overflowing_norm_exits_3_naming_the_overflow(self, capsys):
        # |1e155 a|zeta=1>|^2 overflows while every amplitude stays finite
        code = cli.main([
            "state", "build", "--mu", "1e155", "--nu", "0", "--N", "1",
            "--zeta-re", "1", "--zeta-im", "0",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: superposed power overflows the double range")

    def test_sweep_requires_preset_or_config(self, capsys):
        assert cli.main(["a3", "sweep"]) == 2

    def test_family_mismatch_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "fidelity", "mu": [0.5], "nu": [0.5], "N": [1]}))
        assert cli.main(["a3", "sweep", "--config", str(path)]) == 2

    def test_fidelity_preset_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = cli.main(["fidelity", "sweep", "--preset", "fig4", "--out", str(out), "--gnuplot-hint"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("mu_re,mu_im,nu_re,nu_im,N,r,theta,quantity")
        assert len(lines) == 1 + 2 * 5 * 12  # header + (norm_sq + fidelity) * N-values * radii
        assert "plot" in capsys.readouterr().out

    def test_config_overrides_preset(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"N": [0], "zeta": {"r_min": 0.5, "r_max": 0.5, "r_steps": 1}}))
        out = tmp_path / "one.csv"
        code = cli.main([
            "fidelity", "sweep", "--preset", "fig4", "--config", str(path),
            "--engine", "oracle", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + norm_sq + fidelity for the single point

    def test_quasiprob_grid_runs(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({
            "mu": [0.001], "nu": [1.2], "N": [2],
            "zeta": {"r_min": 1.0, "r_max": 1.0, "r_steps": 1, "thetas": [math.pi / 2]},
            "quasi": {"s": -1.0, "gamma": {"r_min": 0.0, "r_max": 1.0, "r_steps": 3}},
        }))
        out = tmp_path / "q.csv"
        assert cli.main(["quasiprob", "grid", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[7:10] == ["s", "gamma_re", "gamma_im"]
        assert len(lines) == 4

    def test_wavefn_dump(self, capsys):
        assert cli.main(["wavefn", "dump", "--n", "3", "--xmin", "-2", "--xmax", "2", "--points", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,psi,V"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0 and float(mid[2]) == -8.0

    def test_wavefn_invalid_level_exit_code(self, capsys):
        assert cli.main(["wavefn", "dump", "--n", "2", "--xmin", "-1", "--xmax", "1", "--points", "3"]) == 2
