import hashlib
import json
import math
import pathlib
import re
import runpy
import struct
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
from pmcs import cli, nonclassical, states, sweeps, weyl
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "s,r,message",
        [
            (-0.5, 20.0, "Gaussian factor exp("),
            (-1.0, 40.0, "Gaussian factor exp("),
            *[(s, 1e100, "Laguerre row or product overflows") for s in (1.2, 0.5, 3.0, -3.0)],
            (-0.5, 1e200, "|gamma|^2 overflows"),
            (1.2, 1.4e154, "|gamma|^2 overflows"),
        ],
    )
    def test_closed_form_overflow_is_a_paper_error_row(self, s, r, message):
        # the fig3a state at one large gamma: the closed form of F leaves the double range
        cfg = replace(sweeps.preset_config("fig3a"), quasi=QuasiSpec(s, GammaGrid(r, r, 1)))
        (row,) = sweeps.run_sweep(cfg)
        assert row.error.startswith(f"paper: ValueError: {message}")
        assert row.paper_value is None and row.rel_gap is None
        assert row.oracle_value is None or math.isfinite(row.oracle_value)

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

    @pytest.mark.parametrize(
        "zeta,bounds",
        [
            ({"r_min": -0.5, "r_max": 2.0, "r_steps": 3}, "zeta.r_min=-0.5, zeta.r_max=2.0"),
            ({"r_min": 0.5, "r_max": -1.0, "r_steps": 3}, "zeta.r_min=0.5, zeta.r_max=-1.0"),
        ],
        ids=["r_min", "r_max"],
    )
    def test_negative_radius_exits_2_naming_the_field(self, tmp_path, capsys, zeta, bounds):
        # a descending grid through 0 would write rows with r < 0 at theta = 0
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"zeta": zeta}))
        out = tmp_path / "negative.csv"
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: zeta radii must be >= 0, from {bounds}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "update,grid",
        [
            ({"zeta": ZetaGrid(0.5, 2.0, 10**9)}, "1000000000 zeta radii x 1 zeta.thetas"),
            ({"family": "quasiprob", "quasi": QuasiSpec(-0.5, GammaGrid(0.5, 2.0, 50_000, (0.0, 1.0)))},
             "50000 quasi.gamma radii x 2 quasi.gamma.thetas"),
        ],
        ids=["zeta", "gamma"],
    )
    def test_oversized_grid_is_counted_not_built(self, monkeypatch, update, grid):
        monkeypatch.setattr(ZetaGrid, "radii", lambda self: pytest.fail("radii built"))
        with pytest.raises(ConfigError, match=f"points \\(.*{grid}\\) exceeds the bound {sweeps.MAX_GRID_POINTS}$"):
            replace(TINY, **update).validate()

    @pytest.mark.parametrize(
        "update,factor",
        [
            ({"mu": ()}, "mu (0)"),
            ({"n_values": ()}, "N (0)"),
            ({"zeta": ZetaGrid(0.5, 2.0, 3, ())}, "zeta.thetas (0)"),
            ({"zeta": ZetaGrid(0.5, 2.0, 0)}, "zeta radii (0)"),
            ({"family": "quasiprob", "quasi": QuasiSpec(-0.5, GammaGrid(0.5, 2.0, 3, ()))}, "quasi.gamma.thetas (0)"),
            ({"family": "quasiprob", "quasi": QuasiSpec(-0.5, GammaGrid(0.5, 2.0, -2))}, "quasi.gamma radii (-2)"),
        ],
        ids=["mu", "N", "zeta-thetas", "zeta-radii", "gamma-thetas", "gamma-radii"],
    )
    def test_empty_grid_is_refused_naming_the_factor(self, update, factor):
        with pytest.raises(ConfigError, match=f"^empty grid: no points along {re.escape(factor)}$"):
            replace(TINY, **update).validate()

    @pytest.mark.parametrize(
        "command,doc,factor",
        [
            (["fidelity", "sweep", "--preset", "fig4"], {"zeta": {"r_min": 0.5, "r_max": 2.0, "r_steps": 3, "thetas": []}},
             "zeta.thetas"),
            (["quasiprob", "grid", "--preset", "fig3a"],
             {"quasi": {"s": -0.5, "gamma": {"r_min": 0.5, "r_max": 2.0, "r_steps": 3, "thetas": []}}},
             "quasi.gamma.thetas"),
        ],
        ids=["zeta", "gamma"],
    )
    def test_empty_thetas_exit_2_writing_nothing(self, tmp_path, capsys, command, doc, factor):
        path, out = tmp_path / "empty.json", tmp_path / "out.csv"
        path.write_text(json.dumps(doc))
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: empty grid: no points along {factor} (0)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "gamma,refusal",
        [
            (GammaGrid(0.5, 2.0, 2000, tuple(k / 10 for k in range(60))),
             "grid of 120000 points (1 mu x 1 nu x 1 N x 1 zeta radii x 1 zeta.thetas x 2000 quasi.gamma radii x "
             f"60 quasi.gamma.thetas) exceeds the bound {sweeps.MAX_GRID_POINTS}"),
            (GammaGrid(0.5, 2.0, 3, ()), "empty grid: no points along quasi.gamma.thetas (0)"),
        ],
        ids=["oversized", "empty"],
    )
    def test_gamma_grid_counts_only_where_it_is_read(self, monkeypatch, gamma, refusal):
        fig4, fig3a = sweeps.preset_config("fig4"), sweeps.preset_config("fig3a")
        expected = sweeps.render(sweeps.run_sweep(fig4), "fidelity", "csv")
        monkeypatch.setattr(GammaGrid, "radii", lambda self: pytest.fail("gamma radii built"))
        rows = sweeps.run_sweep(replace(fig4, quasi=QuasiSpec(-0.5, gamma)))
        assert len(rows) == 120 and sweeps.render(rows, "fidelity", "csv") == expected
        with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
            replace(fig3a, quasi=QuasiSpec(-0.5, gamma)).validate()

    def test_grid_at_the_bound_validates(self):
        replace(TINY, n_values=(1,), zeta=ZetaGrid(0.5, 2.0, sweeps.MAX_GRID_POINTS)).validate()
        with pytest.raises(ConfigError, match="exceeds the bound"):
            replace(TINY, n_values=(1,), zeta=ZetaGrid(0.5, 2.0, sweeps.MAX_GRID_POINTS + 1)).validate()

    def test_oversized_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ZetaGrid, "radii", lambda self: pytest.fail("radii built"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"zeta": {"r_min": 0.5, "r_max": 2.0, "r_steps": 1e9}}))
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path)]) == 2
        assert "x 1000000000 zeta radii x" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"N": 5}, {"N": [1e400]}, {"zeta": {"r_min": 1, "r_max": 2, "r_steps": 1e400}}])
    def test_malformed_value_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: malformed {next(iter(doc))} ")

    @pytest.mark.parametrize("doc", [
        {"N": [1.5]}, {"N": [True]}, {"zeta": {"r_min": 0.5, "r_max": 2.0, "r_steps": 2.7}},
        {"dim_override": 100.9}, {"dim_override": True},
        {"quasi": {"s": -0.5, "gamma": {"r_min": 0.5, "r_max": 2.0, "r_steps": 2.5}}},
    ], ids=["N-fraction", "N-bool", "r_steps", "dim_override", "dim_override-bool", "gamma-r_steps"])
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed {next(iter(doc))} ") and "expected an integer" in err

    @pytest.mark.parametrize("doc", [
        {"N": "12"}, {"nu": "12"}, {"zeta": {"r_min": 0.5, "r_max": 2.0, "r_steps": 2, "thetas": "12"}},
        {"mu": [True]}, {"mu": [[True, 0]]}, {"nu": [[0.5, False]]},
        {"zeta": {"r_min": True, "r_max": 2.0, "r_steps": 2}},
        {"zeta": {"r_min": 0.5, "r_max": 2.0, "r_steps": 2, "thetas": [False]}},
        {"quasi": {"s": True, "gamma": {"r_min": 0.5, "r_max": 2.0, "r_steps": 2}}},
    ], ids=["N-string", "nu-string", "thetas-string", "mu-bool", "mu-pair-bool", "nu-pair-bool",
            "r_min-bool", "theta-bool", "s-bool"])
    def test_string_list_or_boolean_real_exits_2(self, tmp_path, capsys, doc):
        # a list field needs a JSON array (a string is not iterated), and a
        # real or complex entry refuses a boolean (not read as 0 or 1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fidelity", "sweep", "--preset", "fig4", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: malformed {next(iter(doc))} ")

    def test_integral_floats_are_integers(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": [2.0], "zeta": {"r_min": 1.0, "r_max": 2.0, "r_steps": 3.0}, "dim_override": 100.0}))
        cfg = sweeps.load_config(str(path), base=TINY)
        assert (cfg.n_values, cfg.zeta.r_steps, cfg.dim_override) == ((2,), 3, 100)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.zeta.r_steps, cfg.dim_override))

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
        original = states.build_states

        def spy(*args, **kwargs):
            for state in original(*args, **kwargs):
                built.append(state)
                yield state

        monkeypatch.setattr(states, "build_states", spy)
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

    def test_fig1_sweep_builds_one_lattice_table_per_power(self):
        # fig1 has 12 radii at each of N = 2, 20 and one (|mu|, |nu|)
        weyl._lattice_table.cache_clear()
        sweeps.run_sweep(replace(sweeps.preset_config("fig1"), engine="paper"))
        assert weyl._lattice_table.cache_info().misses == 2

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
        assert list(payload[0]) == list(sweeps.columns_for(TINY.family))
        quasi = replace(ONE_POINT, family="quasiprob", quasi=QuasiSpec(-0.5, GammaGrid(0.5, 0.5, 1)))
        payload = json.loads(sweeps.render(sweeps.run_sweep(quasi), "quasiprob", "json"))
        assert [list(rec) for rec in payload] == [list(sweeps.columns_for("quasiprob"))]

    def test_empty_sweep_renders_header_only(self):
        text = sweeps.render([], "a3", "csv")
        assert text == ",".join(sweeps.columns_for("a3")) + "\n"

    def test_gnuplot_hint_mentions_file(self):
        hint = sweeps.gnuplot_hint(TINY, "out.csv")
        assert "out.csv" in hint and "plot" in hint

    @pytest.mark.parametrize("family,command", [("fidelity", "plot"), ("quasiprob", "splot")])
    def test_gnuplot_hint_doubles_a_quote_in_the_path(self, family, command):
        # gnuplot reads '' inside a single-quoted string as one quote
        hint = sweeps.gnuplot_hint(replace(TINY, family=family), "it's.csv")
        assert f"\n{command} 'it''s.csv' every ::1 using " in hint
        assert "'it's.csv'" not in hint

    @pytest.mark.parametrize(
        "family,using",
        [("fidelity", ("r", "oracle_value")), ("quasiprob", ("gamma_re", "gamma_im", "paper_value", "oracle_value"))],
    )
    def test_gnuplot_hint_columns_are_schema_positions(self, family, using):
        hint = sweeps.gnuplot_hint(replace(TINY, family=family), "out.csv")
        clause = hint.split(" using ")[1].split(" with ")[0]  # 9:10:($12 ne '' ? $12 : $13) reads 9, 10, 12, 13
        numbers = list(dict.fromkeys(int(n) for n in re.findall(r"\d+", clause)))
        assert numbers == [sweeps.columns_for(family).index(c) + 1 for c in using]


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


def _clone(value: float) -> float:
    """An equal float that is a distinct object."""
    return struct.unpack("d", struct.pack("d", value))[0]


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
_REALS = st.floats() | _SIGNED_ZEROS
_CELLS = st.none() | _REALS
_TEXT = st.text(alphabet='ab ,"\'\n\r;:é', max_size=12)  # commas, quotes and line breaks need CSV quoting


@st.composite
def sweep_rows(draw):
    """Rows whose point fields (mu, nu, N, r, theta, s, truncation_dim,
    tail_mass) change from row to row in every way a renderer could confuse:
    not at all (the same objects, as a sweep's rows of one point share them),
    to equal but distinct objects, to 0.0 or -0.0 in r, theta or tail_mass,
    or to new values."""
    rows, point = [], None
    for _ in range(draw(st.integers(0, 8))):
        change = draw(st.sampled_from(["same", "clone", "signed zero", "new"])) if point else "new"
        if change == "new":
            point = dict(
                mu=complex(draw(_REALS), draw(_REALS)), nu=complex(draw(_REALS), draw(_REALS)),
                N=draw(st.integers(0, 300)), r=draw(_REALS), theta=draw(_REALS), s=draw(_CELLS),
                truncation_dim=draw(st.none() | st.integers(0, 300)), tail_mass=draw(_CELLS),
            )
        elif change == "clone":
            point = {
                key: complex(value.real, value.imag) if isinstance(value, complex)
                else _clone(value) if isinstance(value, float) else value
                for key, value in point.items()
            }
        elif change == "signed zero":
            point = dict(point, **{draw(st.sampled_from(["r", "theta", "tail_mass"])): draw(_SIGNED_ZEROS)})
        rows.append(sweeps.SweepRow(
            quantity=draw(_TEXT), gamma=draw(st.none() | st.builds(complex, _REALS, _REALS)),
            paper_value=draw(_CELLS), oracle_value=draw(_CELLS), rel_gap=draw(_CELLS), error=draw(_TEXT), **point,
        ))
    return rows


class TestRender:
    """``sweeps.render`` against ``dense_reference.reference_render``, which
    formats every cell of every row from its own record."""

    @given(st.sampled_from(sweeps.FAMILIES), sweep_rows())
    def test_render_equals_the_reference(self, family, rows):
        for fmt in sweeps.FORMATS:
            assert sweeps.render(rows, family, fmt) == dense_reference.reference_render(rows, family, fmt)

    @pytest.mark.parametrize("field", ["quantity", "error"])
    @pytest.mark.parametrize("char", [",", '"', "\n", "\r"])
    def test_text_cells_with_a_special_character_are_written_by_the_csv_module(self, char, field):
        row = sweeps.SweepRow(mu=0j, nu=1 + 0j, N=1, r=0.5, theta=0.0, quantity="a3", paper_value=0.25)
        rows = [replace(row, **{field: f"x{char}y"}), row]
        for family in ("a3", "quasiprob"):
            assert sweeps.render(rows, family, "csv") == dense_reference.reference_render(rows, family, "csv")

    @pytest.mark.parametrize("field,column", [("r", 5), ("theta", 6), ("tail_mass", 12)])
    def test_equal_point_fields_of_another_sign_are_not_shared(self, field, column):
        first = sweeps.SweepRow(mu=0j, nu=1 + 0j, N=1, r=0.0, theta=0.0, quantity="a3", tail_mass=0.0)
        rows = [first, replace(first, **{field: -0.0})]
        text = sweeps.render(rows, "a3", "csv")
        assert text == dense_reference.reference_render(rows, "a3", "csv")
        assert [line.split(",")[column] for line in text.splitlines()[1:]] == ["0", "-0"]

    @pytest.mark.parametrize("engine", sweeps.ENGINES)
    @pytest.mark.parametrize("name", sweeps.PRESET_NAMES)
    def test_presets_render_as_the_reference(self, name, engine):
        cfg = replace(sweeps.preset_config(name), engine=engine)
        rows = sweeps.run_sweep(cfg)
        for fmt in sweeps.FORMATS:
            assert sweeps.render(rows, cfg.family, fmt) == dense_reference.reference_render(rows, cfg.family, fmt)


# 1.34e154 squares past the double range; 1.2e308 is near the largest double
boundary_radius = st.sampled_from([0.0, 1e-300, 1.0, 12.0, 1.34e154, 1.2e308]) | st.floats(0.0, 1.2e308)
angle = st.floats(-7.0, 7.0)


class TestBoundaries:
    """Every family at the numeric edges: s at and around the poles, N at
    the power cap, the dimension at its floor and cap, |zeta| and |gamma|
    from zero through the overflow thresholds."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sweeps.FAMILIES),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]) | st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0, 1, 32]),
        st.sampled_from([None, 4, 256]),
        boundary_radius, angle, boundary_radius, angle,
    )
    def test_every_row_carries_finite_values_or_an_error(self, family, s, n_pow, dim, r, theta, g, phi):
        cfg = SweepConfig(
            family=family, mu=(1 / 3,), nu=(2 / 3 - 0.1j,), n_values=(n_pow,), dim_override=dim,
            zeta=ZetaGrid(r, r, 1, (theta,)), quasi=QuasiSpec(s, GammaGrid(g, g, 1, (phi,))),
        )
        rows = sweeps.run_sweep(cfg)
        assert rows
        for row in rows:
            values = [row.paper_value, row.oracle_value, row.rel_gap, row.tail_mass, row.r, row.theta, row.s]
            values += [] if row.gamma is None else [row.gamma.real, row.gamma.imag]
            assert all(math.isfinite(v) for v in values if v is not None), row
            sides = (row.oracle_value,) if family == "squeeze" and row.quantity != "norm_sq" else (
                row.paper_value, row.oracle_value)
            assert row.error or None not in sides, row
        for fmt in sweeps.FORMATS:
            sweeps.render(rows, family, fmt)


class TestPresetCoverage:
    def test_presets_exercise_every_public_operation(self, monkeypatch):
        called = set()

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                called.add(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("build_states", "paper_norm_sq", "compare_norms"):
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
            "build_states", "paper_norm_sq",
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_writes_exactly_the_stdout_bytes(self, tmp_path, capsys, fmt):
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"N": [0, 1], "zeta": {"r_min": 0.5, "r_max": 1.0, "r_steps": 2}}))
        command = ["fidelity", "sweep", "--preset", "fig4", "--config", str(path), "--format", fmt]
        capsys.readouterr()
        assert cli.main(command) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / f"rows.{fmt}"
        assert cli.main([*command, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode("utf-8") and stdout.count("\n") > 4

    def test_gnuplot_hint_with_json_exits_2_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "run_sweep", lambda cfg: pytest.fail("the sweep ran"))
        out = tmp_path / "f4.json"
        command = ["fidelity", "sweep", "--preset", "fig4", "--format", "json", "--out", str(out), "--gnuplot-hint"]
        assert cli.main(command) == 2
        assert "--gnuplot-hint" in capsys.readouterr().err and not out.exists()

    def test_gnuplot_hint_without_out_exits_2_before_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "run_sweep", lambda cfg: pytest.fail("the sweep ran"))
        assert cli.main(["a3", "sweep", "--preset", "fig1", "--gnuplot-hint"]) == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""

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

    @pytest.mark.parametrize("command,named", [
        (["state", "build", "--mu", "nan", "--nu", "1", "--N", "2", "--zeta-re", "1", "--zeta-im", "0"], "mu and nu"),
        (["state", "build", "--mu", "1", "--nu", "1", "--N", "2", "--zeta-re", "nan", "--zeta-im", "0"], "zeta"),
        (["wavefn", "dump", "--n", "3", "--xmin", "nan", "--xmax", "2", "--points", "5"], "--xmin"),
        (["wavefn", "dump", "--n", "3", "--xmin", "-2", "--xmax", "inf", "--points", "5"], "--xmax"),
    ], ids=["mu", "zeta", "xmin", "xmax"])
    def test_non_finite_input_exits_2_naming_it(self, tmp_path, capsys, command, named):
        out = tmp_path / "out.txt"
        assert cli.main([*command, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named} must be finite")
        assert not out.exists()

    def test_unparsable_complex_flag_shows_the_parser_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["weyl", "dump", "--N", "1", "--mu", "abc", "--nu", "1"])
        assert exc.value.code == 2
        assert "argument --mu: cannot parse complex value 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("window,message", [
        (["--xmin=-1e308", "--xmax=1e308"], "its span overflows the double range"),
        (["--xmin=1e200", "--xmax=2e200"], "V(x) overflows the double range"),
        (["--xmin=-1e300", "--xmax=1e300"], "V(x) overflows the double range"),
    ], ids=["span", "far", "wide"])
    def test_wavefn_window_beyond_the_double_range_exits_2(self, tmp_path, capsys, window, message):
        out = tmp_path / "w.csv"
        assert cli.main(["wavefn", "dump", "--n", "3", *window, "--points", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --xmin/--xmax window [") and err.rstrip().endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("n,reach", [(64, "1e5"), (3, "3e153")])
    def test_wavefn_far_window_writes_finite_cells(self, tmp_path, n, reach):
        # P_64(1e5) overflows and V's (2x^2+1)^2 does past |x| ~ 8e76, but psi
        # is 0 wherever the Gaussian underflows and V stays finite
        out = tmp_path / "w.csv"
        argv = ["wavefn", "dump", "--n", str(n), f"--xmin=-{reach}", f"--xmax={reach}", "--points", "5"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        rows = [[float(cell) for cell in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 and all(math.isfinite(cell) for row in rows for cell in row)
        assert [row[1] == 0.0 for row in rows] == [True, True, n == 3, True, True]

    def test_wavefn_points_bounded(self, tmp_path, capsys):
        argv = ["wavefn", "dump", "--n", "3", "--xmin", "-1", "--xmax", "1", "--out", str(tmp_path / "w.csv")]
        assert cli.main([*argv, "--points", str(sweeps.MAX_GRID_POINTS)]) == 0
        assert cli.main([*argv, "--points", str(sweeps.MAX_GRID_POINTS + 1)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --points must be in [2, {sweeps.MAX_GRID_POINTS}], got {sweeps.MAX_GRID_POINTS + 1}\n"
        )

    def test_wavefn_invalid_level_exit_code(self, capsys):
        assert cli.main(["wavefn", "dump", "--n", "2", "--xmin", "-1", "--xmax", "1", "--points", "3"]) == 2

    @pytest.mark.parametrize("n", [65, 170, 171, 1000])
    def test_wavefn_level_past_the_degree_cap_exits_2(self, capsys, n):
        # from n = 171 on, 2^n n! in the normalization overflows a float
        assert cli.main(["wavefn", "dump", "--n", str(n), "--xmin", "-1", "--xmax", "1", "--points", "3"]) == 2
        assert capsys.readouterr().err == f"config error: modified Hermite degree {n} exceeds the supported cap 64\n"


def test_run_figures_prints_each_files_digest(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(pathlib.Path(__file__).parents[1] / "scripts" / "run_figures.py"))
    monkeypatch.setattr(sys, "argv", ["run_figures.py", "--outdir", str(tmp_path), "--preset", "fig4"])
    assert script["main"]() == 0
    digest = hashlib.sha256((tmp_path / "fig4.csv").read_bytes()).hexdigest()[:8]
    assert capsys.readouterr().out == f"fig4: 120 rows (0 with an error column) -> {tmp_path / 'fig4.csv'} sha256 {digest}\n"
