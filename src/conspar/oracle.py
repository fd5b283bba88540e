"""Stochastic cross-validation of the PDE solvers.

The forward equation du/dt = (g u)'' - (g psi u)' is the Kolmogorov
forward equation of the diffusion dX = g psi dt + sqrt(2 g) dW, and the
epidemic model matches dX = x(R0(1-x) - 1) dt + sqrt(x(R0(1-x)+1)) dW.
Reading the PDEs this way is a modeling assumption of the oracle, recorded
in run manifests as ``assumption: sde_matching``.

Paths are advanced by Euler-Maruyama with absorption at 0 (and at 1, or
reflection there for the epidemic model). Paths are split into blocks of
``BLOCK_SIZE``, and block b draws its normals only from its own
counter-based ``Philox(seed, b)`` stream: at every step, one normal per
live path of the block, in path order. All blocks step together in one
array of live paths, grouped by block; an absorbed path leaves the array.
One helper thread draws each block's next chunk of normals ahead while the
current chunk is used, in the order the draws are queued. When the
stepping thread needs a chunk the helper has not finished, it first makes
itself every other block's queued draw that the helper has not started,
then waits. A block never has two draws outstanding on different threads,
and the stepping thread never takes the awaited block's own draws, so
each stream is drawn in order.
Because each block's draws depend only on its own paths, the counts are
bit-identical however the blocks are laid out or scheduled, and so is
``oracle.csv``. Atoms are compared with absorbed fractions by one rule,
``atom_zscore``, here and in the CLI's ``validate``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ArgumentError, ParameterError
from .expressions import Expression
from .fields import CoefficientField, cumulative_trapezoid, field_from_callable

BLOCK_SIZE = 4096
_NORMAL_CHUNK = 2**15  # most normals one block holds: current chunk plus next
# chunks shrink as blocks are added, so that all blocks together hold
# about this many normals beyond one step's need
_NORMAL_BUDGET = 2**19


@dataclass(frozen=True, eq=False)
class SdeSpec:
    """Simulation inputs for the boundary-absorbed diffusion."""

    drift: CoefficientField
    squared_volatility: CoefficientField
    boundary_at_1: str  # "absorbing" | "reflecting"
    x0: Union[float, np.ndarray]  # point mass or density on a uniform grid
    dt: float
    horizon: float
    replicates: int
    seed: int
    # fills the drift and the squared volatility, clamped at 0, at x into
    # two buffers, (x, mu, s2) -> bool, and returns False instead of
    # filling mu when the drift is 0 everywhere; the model constructors set
    # it, and without it the two fields are evaluated
    _coefficients: Optional[Callable] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.boundary_at_1 not in ("absorbing", "reflecting"):
            raise ParameterError("boundary_at_1 must be 'absorbing' or 'reflecting'")
        if not (0 < self.dt < np.inf and 0 < self.horizon < np.inf):
            raise ParameterError("dt and horizon must be positive real numbers")
        if self.replicates < 1:
            raise ParameterError("need at least one replicate")
        if self.squared_volatility.min_sample() < -1e-12:
            raise ParameterError("squared volatility must be nonnegative")
        if np.isscalar(self.x0) and not 0.0 < float(self.x0) < 1.0:
            raise ParameterError("x0 must lie in the open interval (0, 1)")


def _plain_evaluator(f: CoefficientField):
    """The field's exact formula, or the field itself when it has none.

    Only for points known to lie in [0, 1] (live paths stay in (0, 1]),
    where the field's domain check and clip never act.
    """
    return f.exact_fn if f.exact_fn is not None else f


def _with_coefficients(spec: SdeSpec, coefficients: Callable) -> SdeSpec:
    object.__setattr__(spec, "_coefficients", coefficients)
    return spec


def _field_coefficients(spec: SdeSpec) -> Callable:
    drift = _plain_evaluator(spec.drift)
    vol2 = _plain_evaluator(spec.squared_volatility)

    def coefficients(x, mu, s2):
        mu[...] = drift(x)
        np.maximum(vol2(x), 0.0, out=s2)
        return True

    return coefficients


def kimura_sde(
    psi: CoefficientField,
    x0,
    dt: float = 1e-4,
    horizon: float = 20.0,
    replicates: int = 10_000,
    seed: int = 0,
) -> SdeSpec:
    """Diffusion whose forward equation is the gene-frequency model:
    drift g psi, squared volatility 2 g, both endpoints absorbing."""
    g = lambda x: np.asarray(x) * (1.0 - np.asarray(x))  # noqa: E731
    psi_fn = _plain_evaluator(psi)
    # a constant psi is not evaluated per step
    psi_c = psi_fn.constant if isinstance(psi_fn, Expression) else None
    drifts = psi_c != 0.0  # x + 0 dt is x: neutral paths skip the drift

    def coefficients(x, mu, s2):  # s2 >= 0 on [0, 1], where live paths are
        np.subtract(1.0, x, out=s2)
        s2 *= x  # g
        if drifts:
            np.multiply(s2, psi_fn(x) if psi_c is None else psi_c, out=mu)
        s2 *= 2.0
        return drifts

    drift = field_from_callable(lambda x: g(x) * np.asarray(psi_fn(x)), "kimura_drift")
    vol2 = field_from_callable(lambda x: 2.0 * g(x), "kimura_vol2")
    spec = SdeSpec(
        drift=drift,
        squared_volatility=vol2,
        boundary_at_1="absorbing",
        x0=x0,
        dt=dt,
        horizon=horizon,
        replicates=replicates,
        seed=seed,
    )
    return _with_coefficients(spec, coefficients)


def sis_sde(
    R0: float,
    x0,
    dt: float = 1e-4,
    horizon: float = 10.0,
    replicates: int = 10_000,
    seed: int = 0,
) -> SdeSpec:
    """Diffusion matching the epidemic model: drift x(R0(1-x) - 1),
    squared volatility x(R0(1-x) + 1), reflecting at 1."""
    if not 0 < R0 < np.inf:
        raise ParameterError("R0 must be a positive real number")

    def coefficients(x, mu, s2):  # s2 >= 0 on [0, 1], where live paths are
        np.subtract(1.0, x, out=s2)
        s2 *= R0
        np.subtract(s2, 1.0, out=mu)
        mu *= x
        s2 += 1.0
        s2 *= x
        return True

    drift = field_from_callable(
        lambda x: np.asarray(x) * (R0 * (1 - np.asarray(x)) - 1.0), "sis_drift_sde"
    )
    vol2 = field_from_callable(
        lambda x: np.asarray(x) * (R0 * (1 - np.asarray(x)) + 1.0), "sis_vol2"
    )
    spec = SdeSpec(
        drift=drift,
        squared_volatility=vol2,
        boundary_at_1="reflecting",
        x0=x0,
        dt=dt,
        horizon=horizon,
        replicates=replicates,
        seed=seed,
    )
    return _with_coefficients(spec, coefficients)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Counting measure of a path ensemble at one snapshot time.

    Masses are exact count ratios: count_at_0 + count_at_1 + sum(counts)
    equals n_paths by construction.
    """

    time: float
    bin_edges: np.ndarray
    counts: np.ndarray  # interior histogram counts
    count_at_0: int
    count_at_1: int
    n_paths: int
    steps: int = 0  # lockstep Euler-Maruyama steps taken up to this time
    normal_wait_s: float = 0.0  # the stepping thread's wait for normals so far

    @property
    def mass_at_0(self) -> float:
        return self.count_at_0 / self.n_paths

    @property
    def mass_at_1(self) -> float:
        return self.count_at_1 / self.n_paths

    @property
    def interior_mass(self) -> float:
        return int(self.counts.sum()) / self.n_paths

    def counting_identity(self) -> bool:
        return self.count_at_0 + self.count_at_1 + int(self.counts.sum()) == self.n_paths

    @property
    def standard_errors(self) -> dict:
        def se(p):
            return float(np.sqrt(max(p * (1.0 - p), 0.0) / self.n_paths))

        return {
            "mass_at_0": se(self.mass_at_0),
            "mass_at_1": se(self.mass_at_1),
        }


def _sample_initial(x0, n: int, rng) -> np.ndarray:
    if np.isscalar(x0):
        return np.full(n, float(x0))
    density = np.asarray(x0, dtype=float)
    grid = np.linspace(0.0, 1.0, density.size)
    cdf = cumulative_trapezoid(density, grid)
    if cdf[-1] <= 0:
        raise ParameterError("initial density has no mass")
    cdf /= cdf[-1]
    u = rng.random(n)
    return np.clip(np.interp(u, cdf, grid), 1e-12, 1 - 1e-12)


def _philox(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(seed), np.uint64(key)], dtype=np.uint64))
    )


class _BlockNormals:
    """Standard normals for the live paths of all blocks, in array order.

    Block b draws from its own stream only, ``live[b]`` normals per step,
    in chunks that are sliced step by step; a chunked draw yields the same
    numbers as one draw per step. While a block uses its current chunk,
    its next one is drawn ahead on the single worker of ``pool``, first in
    first out. A chunk that is needed before the worker has finished it is
    waited for, but first this thread cancels every other block's draw the
    worker has not started and makes it here. Each block has at most one
    draw queued besides the awaited block's, and that block's draws stay
    with the worker, so each stream is drawn in order. ``wait_s`` sums the
    time spent blocked on the worker, not the draws made here.
    """

    def __init__(self, rngs: list, pool: ThreadPoolExecutor):
        self.rngs = rngs
        self.pool = pool
        per_block = min(_NORMAL_CHUNK, _NORMAL_BUDGET // len(rngs))
        self.chunk = max(1, per_block // 2)  # current and next share the block's part
        self.buffers = [np.empty(0)] * len(rngs)
        self.used = [0] * len(rngs)
        self.ahead = [pool.submit(rng.standard_normal, self.chunk) for rng in rngs]
        self.wait_s = 0.0

    def _result(self, future) -> np.ndarray:
        started = time.perf_counter()
        out = future.result()
        self.wait_s += time.perf_counter() - started
        return out

    def _next_chunk(self, b: int, need: int) -> np.ndarray:
        """Block b's next chunk, extended to ``need`` normals when one step
        needs more. The draws after it are queued first, so the helper goes
        on to them as soon as this one is done."""
        draw = self.rngs[b].standard_normal
        ready = self.ahead[b]
        rest = self.pool.submit(draw, need - self.chunk) if need > self.chunk else None
        self.ahead[b] = self.pool.submit(draw, self.chunk)
        if rest is not None or not ready.done():
            self._take_queued(b)
        buf = self._result(ready)
        return buf if rest is None else np.concatenate([buf, self._result(rest)])

    def _take_queued(self, b: int):
        """Make here every other block's queued draw that the worker has
        not started; a cancelled draw never runs there."""
        for c, ahead in enumerate(self.ahead):
            if c != b and ahead.cancel():
                self.ahead[c] = taken = Future()
                taken.set_result(self.rngs[c].standard_normal(self.chunk))

    def fill(self, out: np.ndarray, live: list):
        """Write into ``out``, one entry per live path, the next ``live[b]``
        normals of every block b, block 0's first."""
        pos = 0
        for b, n in enumerate(live):
            if not n:
                continue
            seg = out[pos : pos + n]
            pos += n
            buf, used = self.buffers[b], self.used[b]
            if used + n <= buf.size:
                seg[...] = buf[used : used + n]
                self.used[b] = used + n
            else:  # the rest of this chunk, then the next one
                k = buf.size - used
                seg[:k] = buf[used:]
                buf = self.buffers[b] = self._next_chunk(b, n - k)
                seg[k:] = buf[: n - k]
                self.used[b] = n - k


def _euler_step(coefficients, x, mu, s2, z, dt, reflecting):
    """x <- (x + mu dt) + sqrt(s2 dt) z in place; mu and s2 >= 0 are the
    coefficients at x, written into the buffers ``mu`` and ``s2`` (no mu
    when the drift is 0). A step past 1 folds back when ``reflecting``."""
    if coefficients(x, mu, s2):
        mu *= dt
        x += mu
    s2 *= dt
    np.sqrt(s2, out=s2)
    s2 *= z
    x += s2
    if reflecting and np.fmax.reduce(x) >= 1.0:
        np.subtract(2.0, x, out=x, where=x >= 1.0)


def _exits(x, reflecting):
    """None when every path of ``x`` is inside; otherwise a mask of the
    paths absorbed at 0 or 1. The NaN-blind reductions agree with the
    comparisons, which are False for NaN."""
    if np.fmin.reduce(x) > 0.0 and (reflecting or np.fmax.reduce(x) < 1.0):
        return None
    out = x <= 0.0
    if not reflecting:
        out |= x >= 1.0
    return out


def bin_resolution_dt(squared_volatility: CoefficientField, bins: int) -> float:
    """The largest dt at which one step's spread, sqrt(max vol2 * dt), stays
    within one histogram bin of width 1/bins; ``simulate`` warns above it."""
    return (1.0 / bins) ** 2 / max(squared_volatility.max_sample(), 1e-12)


def simulate(
    spec: SdeSpec,
    snapshot_times: Sequence[float],
    bins: int = 50,
    block_size: int = BLOCK_SIZE,
) -> list:
    """Euler-Maruyama ensemble; returns one EmpiricalMeasure per snapshot.

    Volatility is evaluated at the pre-step point with the square-root
    argument clamped at zero; a step crossing 0 absorbs the path there,
    and a step crossing 1 absorbs or reflects (by folding) per
    ``boundary_at_1``.
    """
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    if snapshot_times.size == 0:
        raise ArgumentError("need at least one snapshot time")
    if np.any(np.diff(snapshot_times) < 0):
        raise ArgumentError("snapshot times must be sorted")
    if np.any(snapshot_times < 0):
        raise ArgumentError("snapshot times must be nonnegative")
    if float(snapshot_times[-1]) > spec.horizon + 1e-12:
        raise ArgumentError("snapshot beyond the simulation horizon")
    if bins < 1:
        raise ArgumentError("need at least one bin")

    dt = spec.dt
    bin_edges = np.linspace(0.0, 1.0, bins + 1)
    resolved = bin_resolution_dt(spec.squared_volatility, bins)
    if dt > resolved:
        warnings.warn(
            f"dt = {dt} exceeds the bin-resolution heuristic "
            f"{resolved:.2e}; boundary bias may be visible",
            stacklevel=2,
        )

    with np.errstate(over="ignore"):
        steps = np.rint(snapshot_times / dt)
    # an infinite step count would cast to INT64_MIN and skip every step
    too_many = ~(np.abs(steps) < 2.0**63)
    if np.any(too_many):
        i = int(np.argmax(too_many))
        raise ArgumentError(
            f"dt = {dt} is too small for the snapshot at t = {snapshot_times[i]}: "
            f"its {steps[i]:.3g} steps do not fit a 64-bit step count"
        )
    snap_steps = steps.astype(np.int64)
    n_blocks = (spec.replicates + block_size - 1) // block_size
    sizes = [min(block_size, spec.replicates - b * block_size) for b in range(n_blocks)]
    rngs = [_philox(spec.seed, b) for b in range(n_blocks)]
    # live paths of every block, block 0's first, each block in path order,
    # beside their blocks; z, mu and s2 are buffers for the first n paths
    x = np.concatenate([_sample_initial(spec.x0, m, rng) for m, rng in zip(sizes, rngs)])
    block_of = np.repeat(np.arange(n_blocks), sizes)
    z, mu, s2 = np.empty((3, x.size))
    live = sizes
    coefficients = spec._coefficients or _field_coefficients(spec)
    reflecting = spec.boundary_at_1 == "reflecting"
    dead0 = dead1 = 0
    step = 0
    measures = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        normals = _BlockNormals(rngs, pool)
        for t, target in zip(snapshot_times.tolist(), snap_steps.tolist()):
            while step < target and x.size:
                n = x.size
                normals.fill(z[:n], live)
                _euler_step(coefficients, x, mu[:n], s2[:n], z[:n], dt, reflecting)
                step += 1
                gone = _exits(x, reflecting)
                if gone is None:
                    continue
                at0 = int(np.count_nonzero(x[gone] <= 0.0))
                dead0 += at0
                dead1 += int(np.count_nonzero(gone)) - at0
                absorbed = np.bincount(block_of[gone], minlength=n_blocks)
                live = [a - b for a, b in zip(live, absorbed.tolist())]
                keep = ~gone
                x, block_of = x[keep], block_of[keep]
            measures.append(
                EmpiricalMeasure(
                    time=t,
                    bin_edges=bin_edges,
                    counts=np.histogram(x, bins=bin_edges)[0],
                    count_at_0=dead0,
                    count_at_1=dead1,
                    n_paths=spec.replicates,
                    steps=step,
                    normal_wait_s=normals.wait_s,
                )
            )
    return measures


@dataclass(frozen=True)
class ComparisonReport:
    """Discrepancy statistics between an empirical and a PDE measure."""

    time: float
    z_atom0: float
    z_atom1: float
    cdf_sup_distance: float
    atoms_pass: bool
    cdf_pass: bool

    @property
    def passed(self) -> bool:
        return self.atoms_pass and self.cdf_pass


def atom_zscore(p_emp: float, p_pde: float, n_paths: int) -> tuple:
    """(se, z): the binomial standard error of an absorbed fraction,
    floored at one path's share 1/n_paths, and the PDE atom's distance
    from the fraction in those units."""
    se = max(float(np.sqrt(max(p_emp * (1 - p_emp), 0.0) / n_paths)), 1.0 / n_paths)
    return se, float(abs(p_emp - p_pde) / se)


def compare_measures(
    emp: EmpiricalMeasure,
    bm,
    se_limit: float = 3.0,
    cdf_tol: float = 0.02,
) -> ComparisonReport:
    """Atom discrepancies in standard-error units plus the sup distance of
    the unnormalized interior mass CDFs."""
    if abs(emp.time - bm.time) > 1e-9 * max(1.0, abs(bm.time)):
        raise ArgumentError(
            f"snapshot times differ: {emp.time} vs {bm.time}"
        )
    grid = bm.grid
    if abs(grid.a) > 1e-12 or abs(grid.b - 1.0) > 1e-12:
        raise ArgumentError("measure supports do not match the unit interval")

    _, z0 = atom_zscore(emp.mass_at_0, bm.atom0, emp.n_paths)
    _, z1 = atom_zscore(emp.mass_at_1, bm.atom1, emp.n_paths)

    nodes = grid.nodes
    dens = np.clip(bm.density, 0.0, None)
    pde_cdf = np.interp(emp.bin_edges[1:], nodes, cumulative_trapezoid(dens, nodes))
    emp_cdf = np.cumsum(emp.counts) / emp.n_paths
    cdf_sup = float(np.max(np.abs(pde_cdf - emp_cdf)))

    threshold = max(cdf_tol, 4.0 / np.sqrt(emp.n_paths))
    return ComparisonReport(
        time=emp.time,
        z_atom0=float(z0),
        z_atom1=float(z1),
        cdf_sup_distance=cdf_sup,
        atoms_pass=bool(z0 <= se_limit and z1 <= se_limit),
        cdf_pass=bool(cdf_sup <= threshold),
    )
