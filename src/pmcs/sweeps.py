"""Sweep orchestration: deterministic figure-data grids and CSV/JSON emission.

Four sweep families cover the figure regimes: ``a3`` (moment-matrix ratio vs
r), ``squeeze`` (I1/I2/uncertainty product vs r), ``quasiprob`` (F(gamma, s)
over a polar gamma grid) and ``fidelity``.  State-based families additionally
emit one ``norm_sq`` row per state point, the machine-readable record of the
closed-form-vs-oracle norm gap.  Row order is the lexicographic grid order and
all floats are printed with 17 significant digits, so reruns are
byte-identical.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, replace

from . import nonclassical, states
from .errors import ConfigError, PmcsError
from .fock import DIM_CAP, default_dim
from .nonclassical import QuasiProbParams
from .weyl import MAX_POWER, ModulationParams

FAMILIES = ("a3", "squeeze", "quasiprob", "fidelity")
ENGINES = ("paper", "oracle", "both")
FORMATS = ("csv", "json")

_BASE_COLUMNS = (
    "mu_re", "mu_im", "nu_re", "nu_im", "N", "r", "theta",
    "quantity", "paper_value", "oracle_value", "rel_gap",
    "truncation_dim", "tail_mass", "error",
)
_QUASI_COLUMNS = (
    "mu_re", "mu_im", "nu_re", "nu_im", "N", "r", "theta",
    "s", "gamma_re", "gamma_im",
    "quantity", "paper_value", "oracle_value", "rel_gap",
    "truncation_dim", "tail_mass", "error",
)


def columns_for(family: str) -> tuple[str, ...]:
    return _QUASI_COLUMNS if family == "quasiprob" else _BASE_COLUMNS


@dataclass(frozen=True)
class ZetaGrid:
    r_min: float
    r_max: float
    r_steps: int
    thetas: tuple[float, ...] = (0.0,)

    def radii(self) -> list[float]:
        if self.r_steps == 1:
            return [self.r_min]
        step = (self.r_max - self.r_min) / (self.r_steps - 1)
        return [self.r_min + i * step for i in range(self.r_steps)]


@dataclass(frozen=True)
class GammaGrid:
    r_min: float
    r_max: float
    r_steps: int
    thetas: tuple[float, ...] = (0.0,)

    def points(self) -> list[complex]:
        if self.r_steps == 1:
            radii = [self.r_min]
        else:
            step = (self.r_max - self.r_min) / (self.r_steps - 1)
            radii = [self.r_min + i * step for i in range(self.r_steps)]
        return [r * cmath.exp(1j * th) for r in radii for th in self.thetas]


@dataclass(frozen=True)
class QuasiSpec:
    s: float
    gamma: GammaGrid


@dataclass(frozen=True)
class SweepConfig:
    family: str
    mu: tuple[complex, ...]
    nu: tuple[complex, ...]
    n_values: tuple[int, ...]
    zeta: ZetaGrid
    engine: str = "both"
    quasi: QuasiSpec | None = None
    dim_override: int | None = None
    output_path: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        for name, values in self._real_fields():
            for value in values:
                if not math.isfinite(value):
                    raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.zeta.r_min < 0:
            raise ConfigError(f"r_min must be >= 0, got {self.zeta.r_min}")
        if self.zeta.r_steps < 1:
            raise ConfigError(f"r_steps must be >= 1, got {self.zeta.r_steps}")
        if not self.mu or not self.nu or not self.n_values:
            raise ConfigError("mu, nu and N lists must be nonempty")
        for n in self.n_values:
            if not 0 <= n <= MAX_POWER:
                raise ConfigError(f"N={n} outside [0, {MAX_POWER}]")
        if self.family == "quasiprob":
            if self.quasi is None:
                raise ConfigError("quasiprob sweeps need a 'quasi' block (s and gamma grid)")
            if self.quasi.gamma.r_steps < 1:
                raise ConfigError("gamma grid needs r_steps >= 1")
        if self.dim_override is not None and not 4 <= self.dim_override <= DIM_CAP:
            raise ConfigError(f"dim_override must be in [4, {DIM_CAP}]")

    def _real_fields(self):
        """(field name, real values) for every float the grids are built from."""
        yield "mu", [part for z in self.mu for part in (z.real, z.imag)]
        yield "nu", [part for z in self.nu for part in (z.real, z.imag)]
        yield "zeta.r_min", [self.zeta.r_min]
        yield "zeta.r_max", [self.zeta.r_max]
        yield "zeta.thetas", self.zeta.thetas
        if self.quasi is not None:
            yield "quasi.s", [self.quasi.s]
            yield "quasi.gamma.r_min", [self.quasi.gamma.r_min]
            yield "quasi.gamma.r_max", [self.quasi.gamma.r_max]
            yield "quasi.gamma.thetas", self.quasi.gamma.thetas


@dataclass
class SweepRow:
    mu: complex
    nu: complex
    N: int
    r: float
    theta: float
    quantity: str
    s: float | None = None
    gamma: complex | None = None
    paper_value: float | None = None
    oracle_value: float | None = None
    rel_gap: float | None = None
    truncation_dim: int | None = None
    tail_mass: float | None = None
    error: str = ""

    def as_record(self, family: str) -> dict:
        rec = {
            "mu_re": self.mu.real, "mu_im": self.mu.imag,
            "nu_re": self.nu.real, "nu_im": self.nu.imag,
            "N": self.N, "r": self.r, "theta": self.theta,
        }
        if family == "quasiprob":
            rec["s"] = self.s
            rec["gamma_re"] = None if self.gamma is None else self.gamma.real
            rec["gamma_im"] = None if self.gamma is None else self.gamma.imag
        rec.update(
            quantity=self.quantity,
            paper_value=self.paper_value,
            oracle_value=self.oracle_value,
            rel_gap=self.rel_gap,
            truncation_dim=self.truncation_dim,
            tail_mass=self.tail_mass,
            error=self.error,
        )
        return rec


def dim_cap() -> int:
    """Truncation-dimension cap, lowered by the PMCS_MAX_DIM environment variable."""
    raw = os.environ.get("PMCS_MAX_DIM")
    if raw is None:
        return DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"PMCS_MAX_DIM must be an integer, got {raw!r}") from exc
    if cap < 4:
        raise ConfigError(f"PMCS_MAX_DIM must be >= 4, got {cap}")
    return min(cap, DIM_CAP)


def _rel_gap(paper: float | None, oracle: float | None) -> float | None:
    if paper is None or oracle is None:
        return None
    return abs(paper - oracle) / max(abs(oracle), 1e-300)


def _merge_error(*parts: str) -> str:
    return "; ".join(p for p in parts if p)


def _point_dim(cfg: SweepConfig, zeta: complex, n_pow: int) -> int:
    dim = cfg.dim_override if cfg.dim_override is not None else default_dim(zeta, n_pow)
    return min(dim, dim_cap())


def _state_rows(cfg: SweepConfig, mu: complex, nu: complex, n_pow: int, r: float, theta: float):
    zeta = r * cmath.exp(1j * theta)
    dim = _point_dim(cfg, zeta, n_pow)
    base = dict(mu=mu, nu=nu, N=n_pow, r=r, theta=theta, truncation_dim=dim)

    try:
        params = ModulationParams(mu, nu, n_pow)
        state = states.build_state(params, zeta, dim)
    except (PmcsError, ValueError) as exc:
        msg = f"{type(exc).__name__}: {exc}"
        for quantity in _quantities(cfg.family):
            yield SweepRow(quantity=quantity, error=msg, **base)
        return

    base["tail_mass"] = state.tail_mass()
    yield SweepRow(
        quantity="norm_sq",
        paper_value=state.norm_sq_paper,
        oracle_value=state.norm_sq_oracle,
        rel_gap=state.discrepancy,
        **base,
    )

    want_paper = cfg.engine in ("paper", "both")
    want_oracle = cfg.engine in ("oracle", "both")

    if cfg.family == "a3":
        paper = oracle = None
        err_p = err_o = ""
        if want_paper:
            try:
                moments = nonclassical.moments_paper(params, zeta, state.norm_sq_paper)
                paper = nonclassical.a3(moments).a3
            except (PmcsError, ValueError) as exc:
                err_p = f"paper: {type(exc).__name__}: {exc}"
        if want_oracle:
            try:
                oracle = nonclassical.a3(nonclassical.moments_oracle(state)).a3
            except (PmcsError, ValueError) as exc:
                err_o = f"oracle: {type(exc).__name__}: {exc}"
        yield SweepRow(
            quantity="a3", paper_value=paper, oracle_value=oracle,
            rel_gap=_rel_gap(paper, oracle), error=_merge_error(err_p, err_o), **base,
        )
    elif cfg.family == "squeeze":
        try:
            i1, i2 = nonclassical.squeezing_identities(state)
            product = nonclassical.uncertainty_product(state)
        except (PmcsError, ValueError) as exc:
            msg = f"oracle: {type(exc).__name__}: {exc}"
            for quantity in ("I1", "I2", "uncertainty_product"):
                yield SweepRow(quantity=quantity, error=msg, **base)
            return
        for quantity, value in (("I1", i1), ("I2", i2), ("uncertainty_product", product)):
            yield SweepRow(quantity=quantity, oracle_value=value, **base)
    elif cfg.family == "fidelity":
        paper = oracle = None
        err_p = err_o = ""
        if want_paper:
            try:
                paper = nonclassical.fidelity_paper(params, zeta, state.norm_sq_paper)
            except (PmcsError, ValueError) as exc:
                err_p = f"paper: {type(exc).__name__}: {exc}"
        if want_oracle:
            oracle = nonclassical.fidelity_oracle(state)
        yield SweepRow(
            quantity="fidelity", paper_value=paper, oracle_value=oracle,
            rel_gap=_rel_gap(paper, oracle), error=_merge_error(err_p, err_o), **base,
        )


def _quasi_rows(cfg: SweepConfig, mu: complex, nu: complex, n_pow: int, r: float, theta: float):
    zeta = r * cmath.exp(1j * theta)
    dim = _point_dim(cfg, zeta, n_pow)
    spec = cfg.quasi
    base = dict(mu=mu, nu=nu, N=n_pow, r=r, theta=theta, s=spec.s, truncation_dim=dim)

    gammas = spec.gamma.points()
    try:
        params = ModulationParams(mu, nu, n_pow)
        state = states.build_state(params, zeta, dim)
    except (PmcsError, ValueError) as exc:
        for gamma in gammas:
            yield SweepRow(quantity="quasiprob", gamma=gamma, error=f"{type(exc).__name__}: {exc}", **base)
        return
    base["tail_mass"] = state.tail_mass()

    want_paper = cfg.engine in ("paper", "both")
    # the oracle evaluates the point's whole gamma grid at once
    oracle_grid = (
        nonclassical.quasiprob_grid(state, gammas, spec.s)
        if cfg.engine in ("oracle", "both") else [None] * len(gammas)
    )
    for gamma, result in zip(gammas, oracle_grid):
        qp = QuasiProbParams(gamma=gamma, s=spec.s)
        paper = oracle = None
        err_p = err_o = ""
        if want_paper:
            try:
                paper = nonclassical.quasiprob_paper(params, zeta, qp, state.norm_sq_paper)
            except (PmcsError, ValueError) as exc:
                err_p = f"paper: {type(exc).__name__}: {exc}"
        if isinstance(result, Exception):
            err_o = f"oracle: {type(result).__name__}: {result}"
        else:
            oracle = result
        yield SweepRow(
            quantity="quasiprob", gamma=gamma, paper_value=paper, oracle_value=oracle,
            rel_gap=_rel_gap(paper, oracle), error=_merge_error(err_p, err_o), **base,
        )


def _quantities(family: str) -> tuple[str, ...]:
    return {
        "a3": ("norm_sq", "a3"),
        "squeeze": ("norm_sq", "I1", "I2", "uncertainty_product"),
        "fidelity": ("norm_sq", "fidelity"),
        "quasiprob": ("quasiprob",),
    }[family]


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """All rows of the sweep in deterministic (lexicographic grid) order."""
    cfg.validate()
    point_rows = _quasi_rows if cfg.family == "quasiprob" else _state_rows
    rows: list[SweepRow] = []
    for mu in cfg.mu:
        for nu in cfg.nu:
            for n_pow in cfg.n_values:
                for r in cfg.zeta.radii():
                    for theta in cfg.zeta.thetas:
                        rows.extend(point_rows(cfg, mu, nu, n_pow, r, theta))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def render(rows: list[SweepRow], family: str, fmt: str) -> str:
    """Serialize rows; CSV uses RFC-4180 quoting and 17 significant digits."""
    cols = columns_for(family)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            rec = row.as_record(family)
            writer.writerow([_fmt(rec[c]) for c in cols])
        return buf.getvalue()
    if fmt == "json":
        payload = [row.as_record(family) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def emit(rows: list[SweepRow], cfg: SweepConfig, path: str | None = None) -> str:
    """Render and (when a path is given) write the sweep output; returns the text."""
    text = render(rows, cfg.family, cfg.format)
    target = path or cfg.output_path
    if target:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


_FIG_R_GRID = ZetaGrid(r_min=0.25, r_max=3.0, r_steps=12, thetas=(0.0,))
_FIG3_GAMMA_THETAS = tuple(2.0 * math.pi * k / 12 for k in range(12))


def _presets() -> dict[str, SweepConfig]:
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    return {
        "fig1": SweepConfig(
            family="a3", mu=(third,), nu=(two_thirds,), n_values=(2, 20), zeta=_FIG_R_GRID,
        ),
        "fig2": SweepConfig(
            family="squeeze", mu=(third,), nu=(two_thirds,), n_values=(1, 2, 3, 6),
            zeta=_FIG_R_GRID,
        ),
        "fig3a": SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(2,),
            zeta=ZetaGrid(r_min=1.0, r_max=1.0, r_steps=1, thetas=(math.pi / 2.0,)),
            quasi=QuasiSpec(s=1.2, gamma=GammaGrid(0.3, 3.0, 10, _FIG3_GAMMA_THETAS)),
            dim_override=192,
        ),
        "fig3b": SweepConfig(
            family="quasiprob", mu=(0.001,), nu=(1.2,),
            n_values=tuple(range(13)),
            zeta=ZetaGrid(r_min=1.0, r_max=1.0, r_steps=1, thetas=(math.pi + 0.1,)),
            quasi=QuasiSpec(s=1.2, gamma=GammaGrid(1.0, 1.0, 1, (math.pi / 2.0,))),
            dim_override=192,
        ),
        "fig4": SweepConfig(
            family="fidelity", mu=(third,), nu=(two_thirds,), n_values=(0, 1, 2, 3, 10),
            zeta=_FIG_R_GRID,
        ),
    }


PRESET_NAMES = ("fig1", "fig2", "fig3a", "fig3b", "fig4")


def preset_config(name: str) -> SweepConfig:
    presets = _presets()
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return presets[name]


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex value {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot parse complex value {value!r}")


def _parse_zeta(block: dict) -> ZetaGrid:
    try:
        return ZetaGrid(
            r_min=float(block["r_min"]),
            r_max=float(block["r_max"]),
            r_steps=int(block["r_steps"]),
            thetas=tuple(float(t) for t in block.get("thetas", [0.0])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed zeta grid {block!r}") from exc


def _parse_quasi(block: dict) -> QuasiSpec:
    try:
        g = block["gamma"]
        return QuasiSpec(
            s=float(block["s"]),
            gamma=GammaGrid(
                r_min=float(g["r_min"]),
                r_max=float(g["r_max"]),
                r_steps=int(g["r_steps"]),
                thetas=tuple(float(t) for t in g.get("thetas", [0.0])),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed quasi block {block!r}") from exc


def load_config(path: str, base: SweepConfig | None = None, family: str | None = None) -> SweepConfig:
    """A single JSON document; fields present in the file override the base
    (preset or family default)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    if base is None:
        fam = doc.get("family", family)
        if fam is None:
            raise ConfigError("config needs a 'family' (or use a preset/subcommand default)")
        base = SweepConfig(
            family=fam, mu=(0j,), nu=(1.0 + 0j,), n_values=(1,),
            zeta=ZetaGrid(0.5, 2.0, 4),
        )
    updates: dict = {}
    if "family" in doc:
        updates["family"] = str(doc["family"])
    if "engine" in doc:
        updates["engine"] = str(doc["engine"])
    if "format" in doc:
        updates["format"] = str(doc["format"])
    if "mu" in doc:
        updates["mu"] = tuple(_parse_complex(v) for v in doc["mu"])
    if "nu" in doc:
        updates["nu"] = tuple(_parse_complex(v) for v in doc["nu"])
    if "N" in doc:
        updates["n_values"] = tuple(int(v) for v in doc["N"])
    if "zeta" in doc:
        updates["zeta"] = _parse_zeta(doc["zeta"])
    if "quasi" in doc:
        updates["quasi"] = _parse_quasi(doc["quasi"])
    if "dim_override" in doc:
        updates["dim_override"] = None if doc["dim_override"] is None else int(doc["dim_override"])
    if "output_path" in doc:
        updates["output_path"] = doc["output_path"]
    unknown = set(doc) - {
        "family", "engine", "format", "mu", "nu", "N", "zeta", "quasi",
        "dim_override", "output_path",
    }
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


def gnuplot_hint(cfg: SweepConfig, out_path: str) -> str:
    """A ready-to-paste gnuplot script for the emitted CSV."""
    if cfg.family == "quasiprob":
        return "\n".join(
            [
                "set datafile separator ','",
                f"# columns: {', '.join(_QUASI_COLUMNS)}",
                "set xlabel 'Re gamma'; set ylabel 'Im gamma'; set zlabel 'F'",
                f"splot '{out_path}' every ::1 using 9:10:($12 ne '' ? $12 : $13) with points",
            ]
        ) + "\n"
    value_col = 10  # oracle_value in the base schema
    return "\n".join(
        [
            "set datafile separator ','",
            f"# columns: {', '.join(_BASE_COLUMNS)}",
            "set xlabel 'r'; set ylabel 'value'",
            f"plot '{out_path}' every ::1 using 6:{value_col} with points title '{cfg.family}'",
        ]
    ) + "\n"
