"""Seeded inputs of the pmcs benchmark workloads and the checks on their rows.

The seed is a benchmark argument.  It picks each sweep's r range inside the
stated bounds and its angles; the program only ever sees the resulting
``SweepConfig`` objects (or, for ``figures_cli``, command-line arguments).

Op counts per pass are chosen so that p50 and p90 fall inside a group of
like-sized ops, not on the gap between two groups (a median on such a gap
jumps whenever one op of the lower group is slowed): ``closed_form`` has 15
ops, ``oracle_dense`` 7, ``quasiprob`` 10 + 20 and ``figures_cli`` 7.
"""

from __future__ import annotations

import hashlib
import math
import random

from pmcs.sweeps import GammaGrid, QuasiSpec, SweepConfig, ZetaGrid

IN_PROCESS = ("closed_form", "oracle_dense", "quasiprob")
WORKLOADS = IN_PROCESS + ("figures_cli",)

THIRD, TWO_THIRDS = 1.0 / 3.0, 2.0 / 3.0
EXACT_GATE = 1e-12
# sha256 prefixes of the preset outputs at the seed commit.  fig4 runs with
# --format json; its CSV form digests to d6684aa8.
KNOWN_PRESET_DIGESTS = {
    "fig1": "313013e4",
    "fig2": "2bacef6b",
    "fig3a": "e1d9306e",
    "fig3b": "d9a81524",
    "fig4": "252b8ee6",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def closed_form(seed: int) -> list[SweepConfig]:
    """A3 by the closed form for three (mu, nu) regimes and N in {0, 2, 8, 20, 32}.

    Sweeps have 3 radii from r_min = 0.25: at nu = 0, N in {20, 32} that
    point hits the absolute 1e-24 norm threshold of ``build_state`` (a known
    defect), and the benchmark keeps it visible instead of choosing a grid
    around it.  The two heavy mixed sweeps (N = 20, 32) take one radius in
    [0.25, 3], so that a pass stays near a second and each op is timed some
    30 times per run.  N = 0 gives the exact-regime gate its third limit and
    makes the op count odd.
    """
    rng = _rng("closed_form", seed)
    cfgs = []
    for mu, nu in ((THIRD, TWO_THIRDS), (0.0, TWO_THIRDS), (TWO_THIRDS, 0.0)):
        for n_pow in (0, 2, 8, 20, 32):
            theta = (rng.uniform(0.0, 2.0 * math.pi),)
            if mu and nu and n_pow >= 20:
                r = rng.uniform(0.25, 3.0)
                grid = ZetaGrid(r, r, 1, theta)
            else:
                grid = ZetaGrid(0.25, rng.uniform(2.5, 3.0), 3, theta)
            cfgs.append(SweepConfig(
                family="a3", mu=(mu,), nu=(nu,), n_values=(n_pow,), zeta=grid, engine="paper",
            ))
    return cfgs


def oracle_dense(seed: int) -> list[SweepConfig]:
    """Dense oracle algebra: A3 at default dims over r in [0.25, 6] (about 59
    distinct dims, more than the moment-matrix caches hold) and the squeezing
    diagnostics at the 256 cap."""
    rng = _rng("oracle_dense", seed)
    cfgs = []
    for n_pow in (2, 6, 10):
        grid = ZetaGrid(rng.uniform(0.25, 0.5), rng.uniform(5.5, 6.0), 24, (rng.uniform(0.0, 2.0 * math.pi),))
        cfgs.append(SweepConfig(
            family="a3", mu=(THIRD,), nu=(TWO_THIRDS,), n_values=(n_pow,), zeta=grid, engine="oracle",
        ))
    for n_pow in (1, 2, 3, 6):
        grid = ZetaGrid(rng.uniform(0.25, 0.5), rng.uniform(2.5, 3.0), 12, (rng.uniform(0.0, 2.0 * math.pi),))
        cfgs.append(SweepConfig(
            family="squeeze", mu=(THIRD,), nu=(TWO_THIRDS,), n_values=(n_pow,), zeta=grid,
            dim_override=256,
        ))
    return cfgs


QUASI_S = (1.2, -0.5)
_QUASI_RINGS = {1.2: 10, -0.5: 20}


def quasiprob(seed: int) -> list[SweepConfig]:
    """fig3a shape (mu = 0.001, nu = 1.2, N = 2, zeta = i, dim 192): one op
    per gamma ring of 12 phases, at s = 1.2 (the paper's value, refused by the
    dense oracle) and s = -0.5 (converged).  The 1:2 ring count keeps p50 and
    p90 off the boundary between the two s groups."""
    rng = _rng("quasiprob", seed)
    zeta = ZetaGrid(1.0, 1.0, 1, (math.pi / 2.0,))
    cfgs = []
    for s in QUASI_S:
        rings = _QUASI_RINGS[s]
        r_lo, r_hi = rng.uniform(0.3, 0.5), rng.uniform(2.8, 3.0)
        offset = rng.uniform(0.0, 2.0 * math.pi / 12)
        phases = tuple(offset + 2.0 * math.pi * k / 12 for k in range(12))
        for i in range(rings):
            r = r_lo + i * (r_hi - r_lo) / (rings - 1)
            cfgs.append(SweepConfig(
                family="quasiprob", mu=(0.001,), nu=(1.2,), n_values=(2,), zeta=zeta,
                quasi=QuasiSpec(s, GammaGrid(r, r, 1, phases)), dim_override=192,
            ))
    return cfgs


SWEEPS = {"closed_form": closed_form, "oracle_dense": oracle_dense, "quasiprob": quasiprob}

# The calibration kernel (calibrate.py) whose instruction mix matches where
# each workload spends its time, per the traced self times: Laguerre and
# lattice walks in closed_form, dense matmuls and mat-vecs in the oracle
# workloads.  figures_cli is not scaled: its time is mostly interpreter
# start-up and import in child processes, which the kernels did not track
# (scaled spreads 0.14-0.24 against 0.02-0.14 raw over 10 seeds).
SPEED_KERNEL = {
    "closed_form": "interpreter",
    "oracle_dense": "dense",
    "quasiprob": "dense",
    "figures_cli": None,
}

CLI_PRESETS = (
    ("fig1", ["a3", "sweep", "--preset", "fig1"], "csv"),
    ("fig2", ["squeeze", "sweep", "--preset", "fig2"], "csv"),
    ("fig3a", ["quasiprob", "grid", "--preset", "fig3a"], "csv"),
    ("fig3b", ["quasiprob", "grid", "--preset", "fig3b"], "csv"),
    ("fig4", ["fidelity", "sweep", "--preset", "fig4", "--format", "json"], "json"),
)


def figures_cli(seed: int) -> list[tuple[str, list[str], str]]:
    """(name, pmcs arguments without --out, output suffix) for one pass: the
    five figure presets, a weyl dump and a wavefunction dump.  The seed picks
    the wavefunction window only; the presets are fixed by definition."""
    half = round(_rng("figures_cli", seed).uniform(6.0, 8.0), 6)
    return list(CLI_PRESETS) + [
        ("weyl", ["weyl", "dump", "--N", "32", "--mu", "1", "--nu", "1"], "json"),
        ("wavefn", ["wavefn", "dump", "--n", "40", "--xmin", f"{-half}", "--xmax", f"{half}",
                    "--points", "4001"], "csv"),
    ]


def state_points(cfg: SweepConfig) -> int:
    return len(cfg.mu) * len(cfg.nu) * len(cfg.n_values) * cfg.zeta.r_steps * len(cfg.zeta.thetas)


def grid_points(cfg: SweepConfig) -> int:
    """State points of a sweep, or (state, gamma) pairs for quasiprob."""
    if cfg.family == "quasiprob":
        return state_points(cfg) * cfg.quasi.gamma.r_steps * len(cfg.quasi.gamma.thetas)
    return state_points(cfg)


_ROWS_PER_POINT = {"a3": 2, "squeeze": 4, "fidelity": 2, "quasiprob": 1}


def expected_rows(cfg: SweepConfig) -> int:
    return grid_points(cfg) * _ROWS_PER_POINT[cfg.family]


def _num(value):
    """A record field as float or None (CSV cells arrive as strings)."""
    if value is None or value == "":
        return None
    return float(value)


def error_classes(error: str) -> list[str]:
    """'prefix:Class' for each part of an error cell; the prefix is paper,
    oracle or build (a failure before either engine ran)."""
    out = []
    for part in error.split("; "):
        prefix = "build"
        for p in ("paper", "oracle"):
            if part.startswith(p + ": "):
                prefix, part = p, part[len(p) + 2:]
        out.append(f"{prefix}:{part.split(':', 1)[0]}")
    return out


class RowCheck:
    """Failure accounting and correctness checks over sweep records."""

    def __init__(self):
        self.rows = 0
        self.error_rows = 0
        self.classes: dict[str, int] = {}
        self.gated = 0
        self.worst_exact_gap = 0.0
        self.known_defect_rows = 0
        self.problems: list[str] = []

    def add(self, rec: dict, where: str) -> None:
        self.rows += 1
        error = rec.get("error") or ""
        mu = complex(_num(rec["mu_re"]), _num(rec["mu_im"]))
        nu = complex(_num(rec["nu_re"]), _num(rec["nu_im"]))
        n_pow = int(_num(rec["N"]))
        if error:
            self.error_rows += 1
            for cls in error_classes(error):
                self.classes[cls] = self.classes.get(cls, 0) + 1
            if nu == 0 and n_pow in (20, 32) and "DegenerateStateError" in error and "annihilates" in error:
                self.known_defect_rows += 1
            return
        values = [_num(rec.get("paper_value")), _num(rec.get("oracle_value"))]
        present = [v for v in values if v is not None]
        if not present or not all(math.isfinite(v) for v in present):
            self.problems.append(f"{where}: row without error has no finite value: {rec}")
        if rec["quantity"] == "norm_sq" and (mu == 0 or nu == 0 or n_pow == 0):
            # A3/moment rows stay out: moments_paper differs from the oracle
            # even at N = 0, and an oracle A3 near 0 makes rel_gap divide by
            # the 1e-300 floor.  Only the norm is exact in these limits.
            gap = _num(rec.get("rel_gap"))
            self.gated += 1
            if gap is None or not gap <= EXACT_GATE:
                self.problems.append(f"{where}: exact-regime norm rel_gap {gap} > {EXACT_GATE}: {rec}")
            else:
                self.worst_exact_gap = max(self.worst_exact_gap, gap)

    def summary(self) -> dict:
        return {
            "rows": self.rows,
            "error_rows": self.error_rows,
            "failed_frac": self.error_rows / self.rows if self.rows else 0.0,
            "error_classes": dict(sorted(self.classes.items())),
            "known_defect_rows": self.known_defect_rows,
            "exact_gate_rows": self.gated,
            "exact_gate_worst_rel_gap": self.worst_exact_gap,
        }
