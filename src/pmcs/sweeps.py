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
digits, so reruns are byte-identical.  A CSV row is built as one string
(``_csv_lines``) from its line's (mu, nu, N) prefix and its point's cells,
each formatted once and shared by the rows that follow, and its own cells;
only a text cell that needs quoting goes through the csv module.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
from dataclasses import dataclass, replace

from . import nonclassical, states
from .errors import ConfigError, outcome
from .fock import DIM_CAP, default_dim
from .nonclassical import QuasiProbParams
from .weyl import MAX_POWER, ModulationParams

ENGINES = ("paper", "oracle", "both")
FORMATS = ("csv", "json")
MAX_GRID_POINTS = 100_000  # rows scale with it; the largest preset grid has 120 points

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
    format: str = "csv"

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        for n in self.n_values:
            if not 0 <= n <= MAX_POWER:
                raise ConfigError(f"N={n} outside [0, {MAX_POWER}]")
        if self.family == "quasiprob" and self.quasi is None:
            raise ConfigError("quasiprob sweeps need a 'quasi' block (s and gamma grid)")
        sizes = {"mu": len(self.mu), "nu": len(self.nu), "N": len(self.n_values)}
        grids = [("zeta", self.zeta)]
        if self.family == "quasiprob":  # the only family that reads the gamma grid
            grids.append(("quasi.gamma", self.quasi.gamma))
        for name, grid in grids:
            sizes.update({f"{name} radii": grid.r_steps, f"{name}.thetas": len(grid.thetas)})
        empty = [f"{name} ({size})" for name, size in sizes.items() if size < 1]
        if empty:
            raise ConfigError(f"empty grid: no points along {', '.join(empty)}")
        points = math.prod(sizes.values())  # counted before any radius list is built
        if points > MAX_GRID_POINTS:
            grid = " x ".join(f"{size} {name}" for name, size in sizes.items())
            raise ConfigError(f"grid of {points} points ({grid}) exceeds the bound {MAX_GRID_POINTS}")
        for name, values in self._real_fields():
            for value in values:
                if not math.isfinite(value):
                    raise ConfigError(f"{name} must be finite, got {value!r}")
        if min(self.zeta.radii()) < 0:  # after the finiteness checks: the radii are finite
            lo, hi = self.zeta.r_min, self.zeta.r_max
            raise ConfigError(f"zeta radii must be >= 0, from zeta.r_min={lo}, zeta.r_max={hi}")
        if self.dim_override is not None and not 4 <= self.dim_override <= DIM_CAP:
            raise ConfigError(f"dim_override must be in [4, {DIM_CAP}]")

    def _real_fields(self):
        """(field name, real values) for every float the grids are built from."""
        yield "mu", [part for z in self.mu for part in (z.real, z.imag)]
        yield "nu", [part for z in self.nu for part in (z.real, z.imag)]
        yield from self.zeta._real_fields("zeta")
        if self.family == "quasiprob":
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
        gamma = self.gamma
        parts = {
            "mu_re": self.mu.real, "mu_im": self.mu.imag,
            "nu_re": self.nu.real, "nu_im": self.nu.imag,
            "gamma_re": None if gamma is None else gamma.real,
            "gamma_im": None if gamma is None else gamma.imag,
        }
        return {col: parts[col] if col in parts else getattr(self, col) for col in columns_for(family)}


def _rel_gap(paper: float | None, oracle: float | None) -> float | None:
    if paper is None or oracle is None:
        return None
    return abs(paper - oracle) / max(abs(oracle), 1e-300)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _one_entry(fn):
    """A state family's oracle: fn(state), the outcome of its single entry."""
    return lambda state, entries, s: [outcome(fn, state)]


def _squeeze_oracle(state: states.PMCState) -> tuple[float, float, float]:
    i1, i2 = nonclassical.squeezing_identities(state)
    return i1, i2, nonclassical.uncertainty_product(i1, i2)


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


def _point_rows(cfg: SweepConfig, mu: complex, nu: complex, n_pow: int, r: float, theta: float, dim: int, state):
    """One state point's rows: its ``norm_sq`` row (state families), then
    one row per quantity for each entry.  A failed state build (``state``
    is then its exception) gives every one of those rows its error instead."""
    quantities, paper_fn, oracle_fn = _FAMILY_TABLE[cfg.family]
    quasi = cfg.family == "quasiprob"
    s, entries = (cfg.quasi.s, cfg.quasi.gamma.points()) if quasi else (None, [None])
    base = dict(mu=mu, nu=nu, N=n_pow, r=r, theta=theta, s=s, truncation_dim=dim)

    if isinstance(state, Exception):
        for gamma in entries:
            for quantity in quantities if quasi else ("norm_sq",) + quantities:
                yield SweepRow(quantity=quantity, gamma=gamma, error=_describe(state), **base)
        return
    base["tail_mass"] = state.tail_mass
    if not quasi:
        yield SweepRow(
            quantity="norm_sq", paper_value=state.norm_sq_paper, oracle_value=state.norm_sq_oracle,
            rel_gap=state.discrepancy, **base,
        )

    run_paper = paper_fn is not None and cfg.engine != "oracle"
    run_oracle = paper_fn is None or cfg.engine != "paper"
    papers = [outcome(paper_fn, state, gamma, s) if run_paper else None for gamma in entries]
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
    """All rows of the sweep in deterministic (lexicographic grid) order.
    The states of each (mu, nu, N) line come from one ``states.build_states``
    pass; a refused ``ModulationParams`` refuses every point of its line."""
    cfg.validate()
    points = list(itertools.product(cfg.zeta.radii(), cfg.zeta.thetas))
    zetas = [r * cmath.exp(1j * theta) for r, theta in points]
    rows: list[SweepRow] = []
    for mu, nu, n_pow in itertools.product(cfg.mu, cfg.nu, cfg.n_values):
        dims = [cfg.dim_override or default_dim(z, n_pow) for z in zetas]  # validated: no override is 0
        params = outcome(ModulationParams, mu, nu, n_pow)
        built = [params] * len(zetas) if isinstance(params, Exception) else states.build_states(params, zetas, dims)
        for (r, theta), dim, state in zip(points, dims, built):
            rows.extend(_point_rows(cfg, mu, nu, n_pow, r, theta, dim, state))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _text_cell(text: str) -> str:
    """A text cell as ``csv.writer`` writes it.  A cell holding a delimiter,
    a quote or a line break goes through the csv module itself, one cell at
    a time, since its quoting of a bare carriage return differs between
    Python versions; any other cell needs no quoting."""
    if "," not in text and '"' not in text and "\r" not in text and "\n" not in text:
        return text
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _csv_lines(rows: list[SweepRow], quasi: bool):
    """Each row's CSV line, one string.  Its line prefix (mu, nu, N) and its
    point part (r, theta, s before the row's own cells, truncation_dim and
    tail_mass after them) are formatted once and reused while those fields
    are the previous row's very objects: equal is not enough, 0.0 and -0.0
    differ."""
    last_line = last_point = None
    for row in rows:
        line = (row.mu, row.nu, row.N)
        if last_line is None or not all(map(operator.is_, line, last_line)):
            last_line = line
            prefix = "".join(_fmt(v) + "," for v in (row.mu.real, row.mu.imag, row.nu.real, row.nu.imag, row.N))
        point = (row.r, row.theta, row.s, row.truncation_dim, row.tail_mass)
        if last_point is None or not all(map(operator.is_, point, last_point)):
            last_point = point
            head = f"{_fmt(row.r)},{_fmt(row.theta)}," + (f"{_fmt(row.s)}," if quasi else "")
            trail = f",{_fmt(row.truncation_dim)},{_fmt(row.tail_mass)},"
        gamma = row.gamma
        cells = "" if not quasi else ",," if gamma is None else f"{_fmt(gamma.real)},{_fmt(gamma.imag)},"
        yield (
            f"{prefix}{head}{cells}{_text_cell(row.quantity)},{_fmt(row.paper_value)},"
            f"{_fmt(row.oracle_value)},{_fmt(row.rel_gap)}{trail}{_text_cell(row.error)}\n"
        )


def render(rows: list[SweepRow], family: str, fmt: str) -> str:
    """Serialize rows; CSV uses RFC-4180 quoting and 17 significant digits."""
    cols = columns_for(family)
    if fmt == "csv":
        return ",".join(cols) + "\n" + "".join(_csv_lines(rows, family == "quasiprob"))
    if fmt == "json":
        payload = [row.as_record(family) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


_FIG_R_GRID = ZetaGrid(r_min=0.25, r_max=3.0, r_steps=12, thetas=(0.0,))
_FIG3_GAMMA_THETAS = tuple(2.0 * math.pi * k / 12 for k in range(12))


PRESETS = {
    "fig1": SweepConfig(
        family="a3", mu=(1.0 / 3.0,), nu=(2.0 / 3.0,), n_values=(2, 20), zeta=_FIG_R_GRID,
    ),
    "fig2": SweepConfig(
        family="squeeze", mu=(1.0 / 3.0,), nu=(2.0 / 3.0,), n_values=(1, 2, 3, 6),
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
        family="fidelity", mu=(1.0 / 3.0,), nu=(2.0 / 3.0,), n_values=(0, 1, 2, 3, 10),
        zeta=_FIG_R_GRID,
    ),
}
PRESET_NAMES = tuple(PRESETS)


def preset_config(name: str) -> SweepConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return PRESETS[name]


def parse_complex(value) -> complex:
    """A complex number from a config value or a CLI flag: a number, a string
    such as '0.5+0.3j', or a [re, im] pair of reals.  A boolean is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex value {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0]), _real(value[1]))
    raise ConfigError(f"cannot parse complex value {value!r}")


def _real(value) -> float:
    """A real config value, a number or a string such as 'nan'; not a boolean."""
    if isinstance(value, bool):
        raise ValueError(f"expected a real number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integer config value: a boolean or a non-integral number is refused,
    not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _array(values) -> list:
    """A JSON array config value; a string is refused, not iterated."""
    if not isinstance(values, list):
        raise TypeError(f"expected a JSON array, got {values!r}")
    return values


def _tuple_of(parse):
    return lambda values: tuple(parse(v) for v in _array(values))


def _parse_zeta(block: dict, grid=ZetaGrid) -> ZetaGrid:
    return grid(
        r_min=_real(block["r_min"]),
        r_max=_real(block["r_max"]),
        r_steps=_integer(block["r_steps"]),
        thetas=_tuple_of(_real)(block.get("thetas", [0.0])),
    )


def _parse_quasi(block: dict) -> QuasiSpec:
    return QuasiSpec(s=_real(block["s"]), gamma=_parse_zeta(block["gamma"], GammaGrid))


# config key -> (SweepConfig field, parser of the key's JSON value)
_CONFIG_KEYS = {
    "family": ("family", str),
    "engine": ("engine", str),
    "format": ("format", str),
    "mu": ("mu", _tuple_of(parse_complex)),
    "nu": ("nu", _tuple_of(parse_complex)),
    "N": ("n_values", _tuple_of(_integer)),
    "zeta": ("zeta", _parse_zeta),
    "quasi": ("quasi", _parse_quasi),
    "dim_override": ("dim_override", lambda v: None if v is None else _integer(v)),
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
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    updates = {}
    for key, value in doc.items():
        field, parse = _CONFIG_KEYS[key]
        try:
            updates[field] = parse(value)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
            raise ConfigError(f"malformed {key} {value!r}: {exc}") from exc
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


def gnuplot_hint(cfg: SweepConfig, out_path: str) -> str:
    """A ready-to-paste gnuplot script for the emitted CSV."""
    out_path = out_path.replace("'", "''")  # a quote inside gnuplot's '...' is doubled
    cols = columns_for(cfg.family)
    at = {col: i for i, col in enumerate(cols, 1)}  # gnuplot numbers columns from 1
    if cfg.family == "quasiprob":
        paper, oracle = at["paper_value"], at["oracle_value"]
        lines = [
            "set xlabel 'Re gamma'; set ylabel 'Im gamma'; set zlabel 'F'",
            f"splot '{out_path}' every ::1 using {at['gamma_re']}:{at['gamma_im']}:"
            f"(${paper} ne '' ? ${paper} : ${oracle}) with points",
        ]
    else:
        lines = [
            "set xlabel 'r'; set ylabel 'value'",
            f"plot '{out_path}' every ::1 using {at['r']}:{at['oracle_value']} with points title '{cfg.family}'",
        ]
    return "\n".join(["set datafile separator ','", f"# columns: {', '.join(cols)}", *lines]) + "\n"
