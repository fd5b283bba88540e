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
Each step runs in place on reused buffers. One helper thread draws each
block's next chunk of normals ahead while the current chunk is used; it
makes every draw, in the order they are queued, so each stream is drawn
in order.
Because each block's draws depend only on its own paths, the counts are
bit-identical however the blocks are laid out or scheduled, and so is
``oracle.csv``. Atoms are compared with absorbed fractions by one rule,
``atom_zscore``, here and in the CLI's ``validate``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ArgumentError, ParameterError
from .expressions import Expression
from .fields import CoefficientField, cumulative_trapezoid, field_from_callable

BLOCK_SIZE = 4096
_NORMAL_CHUNK = 2**14  # most normals one block holds: current chunk plus next
# chunks shrink as blocks are added, so that all blocks together hold
# about this many normals beyond one step's need
_NORMAL_BUDGET = 2**18


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
    # fills the drift and the squared volatility at x into two buffers,
    # (x, mu, s2) -> None; the model constructors set it, and without it
    # the two fields are evaluated
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
        s2[...] = vol2(x)

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

    def coefficients(x, mu, s2):
        np.subtract(1.0, x, out=s2)
        s2 *= x  # g
        np.multiply(s2, psi_fn(x) if psi_c is None else psi_c, out=mu)
        s2 *= 2.0

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

    def coefficients(x, mu, s2):
        np.subtract(1.0, x, out=s2)
        s2 *= R0
        np.subtract(s2, 1.0, out=mu)
        mu *= x
        s2 += 1.0
        s2 *= x

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
            "interior": se(self.interior_mass),
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


class _BlockNormals:
    """Standard normals for the live paths of all blocks, in array order.

    Block b draws from its own stream only, ``live[b]`` normals per step,
    in chunks that are sliced step by step; a chunked draw yields the same
    numbers as one draw per step. While a block uses its current chunk,
    its next one is drawn ahead. Every draw runs on the single worker of
    ``pool``, first in first out, so each stream is drawn in order, and
    this thread never touches ``rngs``.
    """

    def __init__(self, rngs: list, pool: ThreadPoolExecutor):
        self.rngs = rngs
        self.pool = pool
        per_block = min(_NORMAL_CHUNK, _NORMAL_BUDGET // len(rngs))
        self.chunk = max(1, per_block // 2)  # current and next share the block's part
        self.buffers = [np.empty(0)] * len(rngs)
        self.used = [0] * len(rngs)
        self.ahead = [pool.submit(rng.standard_normal, self.chunk) for rng in rngs]

    def _next_chunk(self, b: int, need: int) -> np.ndarray:
        """Block b's drawn-ahead chunk, extended to ``need`` normals when
        one step needs more. The draws after it are queued first, so the
        helper goes on to them as soon as this one is done."""
        draw = self.rngs[b].standard_normal
        ready = self.ahead[b]
        rest = self.pool.submit(draw, need - self.chunk) if need > self.chunk else None
        self.ahead[b] = self.pool.submit(draw, self.chunk)
        buf = ready.result()
        return buf if rest is None else np.concatenate([buf, rest.result()])

    def scale(self, s2: np.ndarray, live: list):
        """Multiply ``s2``, one entry per live path, by the next ``live[b]``
        normals of every block b, block 0's first."""
        pos = 0
        for b, n in enumerate(live):
            if not n:
                continue
            seg = s2[pos : pos + n]
            pos += n
            buf, used = self.buffers[b], self.used[b]
            if used + n <= buf.size:
                seg *= buf[used : used + n]
                self.used[b] = used + n
            else:  # the rest of this chunk, then the next one
                k = buf.size - used
                head, tail = seg[:k], seg[k:]
                head *= buf[used:]
                buf = self.buffers[b] = self._next_chunk(b, n - k)
                tail *= buf[: n - k]
                self.used[b] = n - k


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
    if float(snapshot_times[-1]) > spec.horizon + 1e-12:
        raise ArgumentError("snapshot beyond the simulation horizon")
    if bins < 1:
        raise ArgumentError("need at least one bin")

    dt = spec.dt
    bin_edges = np.linspace(0.0, 1.0, bins + 1)
    h_bin = 1.0 / bins
    vol2_max = max(spec.squared_volatility.max_sample(), 1e-12)
    if dt > h_bin**2 / vol2_max:
        warnings.warn(
            f"dt = {dt} exceeds the bin-resolution heuristic "
            f"{h_bin**2 / vol2_max:.2e}; boundary bias may be visible",
            stacklevel=2,
        )

    snap_steps = np.rint(snapshot_times / dt).astype(np.int64)
    n_snap = snapshot_times.size
    counts = np.zeros((n_snap, bins), dtype=np.int64)
    absorbed0 = np.zeros(n_snap, dtype=np.int64)
    absorbed1 = np.zeros(n_snap, dtype=np.int64)
    steps_at = np.zeros(n_snap, dtype=np.int64)

    n_blocks = (spec.replicates + block_size - 1) // block_size
    sizes = [min(block_size, spec.replicates - b * block_size) for b in range(n_blocks)]
    rngs = [
        np.random.Generator(
            np.random.Philox(
                key=np.array([np.uint64(spec.seed), np.uint64(b)], dtype=np.uint64)
            )
        )
        for b in range(n_blocks)
    ]
    # live paths of every block, block 0's first, each block in path order;
    # a step writes the next positions into ``new``, then the two swap
    x = np.concatenate([_sample_initial(spec.x0, m, rng) for m, rng in zip(sizes, rngs)])
    new, s2 = np.empty((2, x.size))
    block_of = np.repeat(np.arange(n_blocks), sizes)
    live = sizes
    coefficients = spec._coefficients or _field_coefficients(spec)
    reflecting = spec.boundary_at_1 == "reflecting"
    fmin, fmax = np.fmin.reduce, np.fmax.reduce  # NaN-blind, as the masks are
    dead0 = dead1 = 0
    step = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        normals = _BlockNormals(rngs, pool)
        for si in range(n_snap):
            target = int(snap_steps[si])
            while step < target and x.size:
                coefficients(x, new, s2)
                # new = (x + mu dt) + sqrt(max(s2, 0) dt) z, with mu in new
                new *= dt
                new += x
                np.maximum(s2, 0.0, out=s2)
                s2 *= dt
                np.sqrt(s2, out=s2)
                normals.scale(s2, live)
                new += s2
                if reflecting and fmax(new) >= 1.0:
                    np.subtract(2.0, new, out=new, where=new >= 1.0)
                x, new = new, x
                step += 1
                if fmin(x) > 0.0 and (reflecting or fmax(x) < 1.0):
                    continue
                hit = hit0 = x <= 0.0
                dead0 += np.count_nonzero(hit0)
                if not reflecting:
                    hit1 = x >= 1.0
                    dead1 += np.count_nonzero(hit1)
                    hit = hit0 | hit1
                gone = np.bincount(block_of[hit], minlength=n_blocks).tolist()
                live = [n - k for n, k in zip(live, gone)]
                keep = ~hit
                block_of = block_of[keep]
                k = block_of.size
                x, new, s2 = np.compress(keep, x, out=new[:k]), x[:k], s2[:k]
            absorbed0[si] = dead0
            absorbed1[si] = dead1
            steps_at[si] = step
            if x.size:
                counts[si], _ = np.histogram(x, bins=bin_edges)

    return [
        EmpiricalMeasure(
            time=float(snapshot_times[i]),
            bin_edges=bin_edges,
            counts=counts[i],
            count_at_0=int(absorbed0[i]),
            count_at_1=int(absorbed1[i]),
            n_paths=spec.replicates,
            steps=int(steps_at[i]),
        )
        for i in range(n_snap)
    ]


@dataclass(frozen=True)
class ComparisonReport:
    """Discrepancy statistics between an empirical and a PDE measure."""

    time: float
    z_atom0: float
    z_atom1: float
    cdf_sup_distance: float
    se_limit: float
    cdf_tol: float
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
        se_limit=se_limit,
        cdf_tol=threshold,
        atoms_pass=bool(z0 <= se_limit and z1 <= se_limit),
        cdf_pass=bool(cdf_sup <= threshold),
    )
