"""Dense density-matrix integration as ground truth for small systems.

Builds D x D matrices for the Hamiltonian and Lindblad operators, integrates
drho/dt = -i[H,rho] + sum_j (L rho L+ - 1/2 L+L rho - 1/2 rho L+L) with fixed
RK4, and compares trajectory-ensemble means against Tr(O rho).  Kept entirely
independent of the stepping code: matrices come from to_dense, the integrator
is its own fixed-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector, used_view
from .operators import Sum, Product, ScalarMul, TimeFnMul, Power, to_dense

__all__ = [
    "MAX_ORACLE_DIM",
    "lindblad_rhs",
    "integrate_master",
    "density_from_state",
    "dense_model",
    "oracle_expectations",
    "ComparisonReport",
    "compare_ensemble",
]

MAX_ORACLE_DIM = 64


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, ls) -> np.ndarray:
    """Right-hand side of the Lindblad master equation."""
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("rho must be square")
    if h.shape != (d, d):
        raise ValueError("Hamiltonian dimension does not match rho")
    out = -1j * (h @ rho - rho @ h)
    for l in ls:
        if l.shape != (d, d):
            raise ValueError("Lindblad operator dimension does not match rho")
        lr = l @ rho
        ldl = l.conj().T @ l
        out += lr @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def _contains_time(expr) -> bool:
    if isinstance(expr, TimeFnMul):
        return True
    if isinstance(expr, (Sum, Product)):
        return any(_contains_time(c) for c in expr.children)
    if isinstance(expr, (ScalarMul, Power)):
        return _contains_time(expr.child)
    return False


def density_from_state(psi: StateVector) -> np.ndarray:
    """|psi><psi| over the used (truncated) dimensions."""
    vec = used_view(psi.as2d(), psi.freedoms).reshape(-1)
    return np.outer(vec, vec.conj())


def dense_model(model, dims, centers=None, cap: int = MAX_ORACLE_DIM):
    """Dense (H, [L...]) for a ModelOperators; H is a callable when
    any operator depends on time, otherwise a fixed matrix."""
    d = math.prod(dims)
    if d > cap:
        raise ValueError(f"oracle dimension {d} exceeds cap {cap}")
    exprs = [model.hamiltonian] + list(model.lindblads)
    timedep = any(e is not None and _contains_time(e) for e in exprs)

    def build(t):
        if model.hamiltonian is None:
            h = np.zeros((d, d), dtype=complex)
        else:
            h = to_dense(model.hamiltonian, dims, centers, t=t, cap=cap)
        ls = [to_dense(l, dims, centers, t=t, cap=cap) for l in model.lindblads]
        return h, ls

    if not timedep:
        h0, ls0 = build(0.0)
        return h0, ls0, None
    return None, None, build


def integrate_master(rho0: np.ndarray, h, ls, times, dt_oracle: float,
                     builder=None):
    """Fixed-step RK4 on the matrix ODE; returns rho at each requested time.

    times must be ascending and start at the time of rho0.  Each interval is
    covered by ceil(interval/dt_oracle) equal substeps.  rho is re-Hermitized
    after every substep; a minimum eigenvalue below -1e-6 at any sample time
    aborts.  builder, when given, supplies (H, Ls) as a function of t for
    time-dependent models.
    """
    d = rho0.shape[0]
    if d > MAX_ORACLE_DIM:
        raise ValueError(f"oracle dimension {d} exceeds cap {MAX_ORACLE_DIM}")
    if dt_oracle <= 0:
        raise ValueError("dt_oracle must be positive")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("need a non-empty 1-d time grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")

    if builder is None:
        def rhs(rho, t):
            return lindblad_rhs(rho, h, ls)
    else:
        def rhs(rho, t):
            ht, lst = builder(t)
            return lindblad_rhs(rho, ht, lst)

    rho = np.array(rho0, dtype=complex)
    out = [rho.copy()]
    t = float(times[0])
    for target in times[1:]:
        span = float(target) - t
        nsub = max(1, math.ceil(span / dt_oracle))
        hstep = span / nsub
        for _ in range(nsub):
            k1 = rhs(rho, t)
            k2 = rhs(rho + 0.5 * hstep * k1, t + 0.5 * hstep)
            k3 = rhs(rho + 0.5 * hstep * k2, t + 0.5 * hstep)
            k4 = rhs(rho + hstep * k3, t + hstep)
            rho = rho + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            t += hstep
        t = float(target)
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -1e-6:
            raise RuntimeError(
                f"density matrix lost positivity at t={t:.6g} "
                f"(min eigenvalue {lo:.3g}); reduce dt_oracle")
        out.append(rho.copy())
    return out


def oracle_expectations(psi0: StateVector, model, operators, times,
                        dt_oracle: float = 1e-4):
    """Tr(O rho(t)) for each output operator on the trajectory time grid."""
    dims = psi0.used_dims()
    centers = tuple(f.center for f in psi0.freedoms)
    h, ls, builder = dense_model(model, dims, centers)
    rho0 = density_from_state(psi0)
    rhos = integrate_master(rho0, h, ls, times, dt_oracle, builder=builder)

    n_ops = len(operators)
    vals = np.zeros((n_ops, len(times)), dtype=complex)
    mats = [None if _contains_time(op) else to_dense(op, dims, centers, t=0.0) for op in operators]
    for k, (t, rho) in enumerate(zip(times, rhos)):
        for i, op in enumerate(operators):
            mat = mats[i] if mats[i] is not None else to_dense(op, dims, centers, t=float(t))
            vals[i, k] = np.trace(mat @ rho)
    return vals


@dataclass
class ComparisonReport:
    passed: bool
    n_fail: int
    table: str
    worst: tuple  # (name, t, |delta|, tol)

    def __str__(self):
        return self.table


def compare_ensemble(times, means, se_re, se_im, oracle, names=None,
                     z: float = 3.0, abs_floor: float = 1e-3) -> ComparisonReport:
    """PASS per (operator, time) iff |mean - oracle| <= max(z*SE, abs_floor).

    means, oracle: (n_ops, K) complex; se_re/se_im: (n_ops, K) real.
    SE of the complex mean is taken as hypot(se_re, se_im).
    """
    means = np.asarray(means)
    oracle = np.asarray(oracle)
    if means.shape != oracle.shape:
        raise ValueError("trajectory and oracle grids do not match")
    n_ops, nt = means.shape
    if len(times) != nt:
        raise ValueError("time grid length mismatch")
    if names is None:
        names = [f"op{i}" for i in range(n_ops)]

    header = (f"{'operator':<12} {'t':>10} {'mean':>24} {'oracle':>24} "
              f"{'|delta|':>12} {'z*SE':>12}  result")
    lines = [header, "-" * len(header)]
    n_fail = 0
    worst = ("", 0.0, 0.0, math.inf)
    worst_ratio = -1.0
    for i in range(n_ops):
        for k in range(nt):
            delta = abs(means[i, k] - oracle[i, k])
            se = math.hypot(float(se_re[i, k]), float(se_im[i, k]))
            tol = max(z * se, abs_floor)
            ok = delta <= tol
            if not ok:
                n_fail += 1
            ratio = delta / tol if tol > 0 else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = (names[i], float(times[k]), delta, tol)
            lines.append(
                f"{names[i]:<12} {times[k]:>10.4g} "
                f"{means[i, k].real:>11.4e}{means[i, k].imag:>+.4e}j "
                f"{oracle[i, k].real:>11.4e}{oracle[i, k].imag:>+.4e}j "
                f"{delta:>12.4e} {tol:>12.4e}  {'PASS' if ok else 'FAIL'}")
    lines.append("-" * len(header))
    status = "all PASS" if n_fail == 0 else f"{n_fail} FAIL"
    lines.append(f"{status}; worst: {worst[0]} at t={worst[1]:.4g} "
                 f"|delta|={worst[2]:.3e} tol={worst[3]:.3e}")
    return ComparisonReport(n_fail == 0, n_fail, "\n".join(lines), worst)
