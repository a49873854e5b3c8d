"""Sweep orchestration: deterministic figure-data grids and CSV/JSON emission.

Four sweep families cover the figure regimes: ``a3`` (moment-matrix ratio vs
r), ``squeeze`` (I1/I2/uncertainty product vs r), ``quasiprob`` (F(gamma, s)
over a polar gamma grid) and ``fidelity``.  One table, ``_FAMILY_TABLE``,
gives each family its quantities, its closed form (``paper``) and its
oracle; squeeze has no closed form and runs its oracle under every engine.
One row generator serves every family: it builds the state point's state
once, then yields one row per quantity for each entry of the point (each
gamma of the grid for quasiprob, a single entry otherwise), the quasiprob
oracle taking the whole gamma grid in one call.  State-based families
additionally emit one ``norm_sq`` row per state point, the machine-readable
record of the closed-form-vs-oracle norm gap.  Row order is the
lexicographic grid order and all floats are printed with 17 significant
digits, so reruns are byte-identical.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, replace

from . import nonclassical, states
from .errors import ConfigError, PmcsError
from .fock import DIM_CAP, default_dim
from .nonclassical import QuasiProbParams
from .weyl import MAX_POWER, ModulationParams

ENGINES = ("paper", "oracle", "both")
FORMATS = ("csv", "json")

_BASE_COLUMNS = (
    "mu_re", "mu_im", "nu_re", "nu_im", "N", "r", "theta",
    "quantity", "paper_value", "oracle_value", "rel_gap",
    "truncation_dim", "tail_mass", "error",
)
_QUASI_COLUMNS = _BASE_COLUMNS[:7] + ("s", "gamma_re", "gamma_im") + _BASE_COLUMNS[7:]


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

    def _real_fields(self, name: str):
        """``SweepConfig._real_fields`` of this grid, under ``name``: its
        floats, then the radii themselves, which a finite span can overflow."""
        yield f"{name}.r_min", [self.r_min]
        yield f"{name}.r_max", [self.r_max]
        yield f"{name} radii", self.radii()
        yield f"{name}.thetas", self.thetas


class GammaGrid(ZetaGrid):
    """A polar gamma grid, with the radius rule of ``ZetaGrid``."""

    def points(self) -> list[complex]:
        return [r * cmath.exp(1j * th) for r in self.radii() for th in self.thetas]


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
        yield from self.zeta._real_fields("zeta")
        if self.quasi is not None:
            yield "quasi.s", [self.quasi.s]
            yield from self.quasi.gamma._real_fields("quasi.gamma")


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


def _rel_gap(paper: float | None, oracle: float | None) -> float | None:
    if paper is None or oracle is None:
        return None
    return abs(paper - oracle) / max(abs(oracle), 1e-300)


def _outcome(fn, *args):
    """fn(*args), or the PmcsError/ValueError it raised."""
    try:
        return fn(*args)
    except (PmcsError, ValueError) as exc:
        return exc


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _one_entry(fn):
    """A state family's oracle: fn(state), the outcome of its single entry."""
    return lambda state, entries, s: [_outcome(fn, state)]


def _squeeze_oracle(state: states.PMCState) -> tuple[float, float, float]:
    i1, i2 = nonclassical.squeezing_identities(state)
    return i1, i2, nonclassical.uncertainty_product(state)


def _quasiprob_oracle(state: states.PMCState, gammas: list[complex], s: float) -> list:
    return [v if isinstance(v, Exception) else (v,) for v in nonclassical.quasiprob_grid(state, gammas, s)]


# family -> (quantities, paper fn or None, oracle fn).  A paper fn maps
# (state, entry, s) to one value per quantity; an oracle fn maps (state,
# entries, s) to one outcome per entry, those values or the exception that
# refused them.  An entry is a gamma for quasiprob and None otherwise.  The
# functions are looked up on their modules at call time.
_FAMILY_TABLE = {
    "a3": (
        ("a3",),
        lambda st, *_: (
            nonclassical.a3(nonclassical.moments_paper(st.params, st.zeta, st.norm_sq_paper)).a3,
        ),
        _one_entry(lambda st: (nonclassical.a3(nonclassical.moments_oracle(st)).a3,)),
    ),
    "squeeze": (("I1", "I2", "uncertainty_product"), None, _one_entry(_squeeze_oracle)),
    "quasiprob": (
        ("quasiprob",),
        lambda st, gamma, s: (
            nonclassical.quasiprob_paper(st.params, st.zeta, QuasiProbParams(gamma, s), st.norm_sq_paper),
        ),
        _quasiprob_oracle,
    ),
    "fidelity": (
        ("fidelity",),
        lambda st, *_: (nonclassical.fidelity_paper(st.params, st.zeta, st.norm_sq_paper),),
        _one_entry(lambda st: (nonclassical.fidelity_oracle(st),)),
    ),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _point_rows(cfg: SweepConfig, mu: complex, nu: complex, n_pow: int, r: float, theta: float):
    """One state point's rows: its ``norm_sq`` row (state families), then
    one row per quantity for each entry.  A failed state build gives every
    one of those rows its error instead."""
    quantities, paper_fn, oracle_fn = _FAMILY_TABLE[cfg.family]
    zeta = r * cmath.exp(1j * theta)
    dim = cfg.dim_override if cfg.dim_override is not None else default_dim(zeta, n_pow)
    quasi = cfg.family == "quasiprob"
    s, entries = (cfg.quasi.s, cfg.quasi.gamma.points()) if quasi else (None, [None])
    base = dict(mu=mu, nu=nu, N=n_pow, r=r, theta=theta, s=s, truncation_dim=dim)

    state = _outcome(lambda: states.build_state(ModulationParams(mu, nu, n_pow), zeta, dim))
    if isinstance(state, Exception):
        for gamma in entries:
            for quantity in quantities if quasi else ("norm_sq",) + quantities:
                yield SweepRow(quantity=quantity, gamma=gamma, error=_describe(state), **base)
        return
    base["tail_mass"] = state.tail_mass()
    if not quasi:
        yield SweepRow(
            quantity="norm_sq", paper_value=state.norm_sq_paper, oracle_value=state.norm_sq_oracle,
            rel_gap=state.discrepancy, **base,
        )

    run_paper = paper_fn is not None and cfg.engine != "oracle"
    run_oracle = paper_fn is None or cfg.engine != "paper"
    papers = [_outcome(paper_fn, state, gamma, s) if run_paper else None for gamma in entries]
    oracles = oracle_fn(state, entries, s) if run_oracle else [None] * len(entries)
    blank = (None,) * len(quantities)
    for gamma, paper, oracle in zip(entries, papers, oracles):
        sides = (("paper", paper), ("oracle", oracle))
        error = "; ".join(f"{side}: {_describe(out)}" for side, out in sides if isinstance(out, Exception))
        paper_values = paper if isinstance(paper, tuple) else blank
        oracle_values = oracle if isinstance(oracle, tuple) else blank
        for quantity, p, o in zip(quantities, paper_values, oracle_values):
            yield SweepRow(
                quantity=quantity, gamma=gamma, paper_value=p, oracle_value=o,
                rel_gap=_rel_gap(p, o), error=error, **base,
            )


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """All rows of the sweep in deterministic (lexicographic grid) order."""
    cfg.validate()
    grid = itertools.product(cfg.mu, cfg.nu, cfg.n_values, cfg.zeta.radii(), cfg.zeta.thetas)
    return [row for point in grid for row in _point_rows(cfg, *point)]


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


PRESET_NAMES = tuple(_presets())


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


def _parse_zeta(block: dict, grid=ZetaGrid) -> ZetaGrid:
    try:
        return grid(
            r_min=float(block["r_min"]),
            r_max=float(block["r_max"]),
            r_steps=int(block["r_steps"]),
            thetas=tuple(float(t) for t in block.get("thetas", [0.0])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed zeta grid {block!r}") from exc


def _parse_quasi(block: dict) -> QuasiSpec:
    try:
        return QuasiSpec(s=float(block["s"]), gamma=_parse_zeta(block["gamma"], GammaGrid))
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"malformed quasi block {block!r}") from exc


def _tuple_of(parse):
    return lambda values: tuple(parse(v) for v in values)


# config key -> (SweepConfig field, parser of the key's JSON value)
_CONFIG_KEYS = {
    "family": ("family", str),
    "engine": ("engine", str),
    "format": ("format", str),
    "mu": ("mu", _tuple_of(_parse_complex)),
    "nu": ("nu", _tuple_of(_parse_complex)),
    "N": ("n_values", _tuple_of(int)),
    "zeta": ("zeta", _parse_zeta),
    "quasi": ("quasi", _parse_quasi),
    "dim_override": ("dim_override", lambda v: None if v is None else int(v)),
    "output_path": ("output_path", lambda v: v),
}


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
    updates = {field: parse(doc[key]) for key, (field, parse) in _CONFIG_KEYS.items() if key in doc}
    unknown = set(doc) - set(_CONFIG_KEYS)
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
