"""Primal-dual interior point for the window-packing relaxations.

Solves

    max c.x   s.t.  P x <= 1,  band rows,  0 <= x <= ub

over the active (edge, step) cells, as the caller builds it: P holds the
windows of ``windows._window_rows``, and the band the totals s_v = q_v.x
with one auxiliary L: gamma s_v <= L <= s_v, two inequality rows per
recipient, or s_v = L, one equality row with a free dual, at gamma = 1.
Mehrotra's predictor-corrector (Mehrotra, SIAM J. Optim. 1992; Wright,
Primal-Dual Interior-Point Methods, 1997) takes each step from the normal
equations M dy = A Theta h + k, M = A Theta A' + W/Y, built by structure and
never from a dense A:

- P Theta P' is block diagonal by donor, and entry (r1, r2) of a block is
  the donor's per-step Theta mass summed over the steps both windows share.
  Width-1 windows share nothing, so there the blocks are diagonal, and
  each cell lies in exactly one row: the solve reads that row of each
  cell off the window incidence once, and P x, P'y and the diagonal are
  then one bincount or one gather each. At width K one batched Cholesky
  factors the (U, T, T) stack.
- The band rows go through a dense Schur complement of at most 2V rows.
  Their coupling to the packing rows, P Theta Q', is summed over the
  (row, cell) incidence of the windows.

Near the optimum degenerate LPs make M ill-conditioned. Three measures keep
the steps accurate: only the windows that no other window contains are
rows, Theta is capped by a small primal regularization, and each solve
runs conjugate gradients on M with the factored system as preconditioner.

Every iterate gives a certificate: x clipped into [0, ub], with overfull
windows and then banded totals above min(s) / gamma scaled back, and the
bound b.y+ + sum ub max(0, c - A'y+), with y+ the duals clipped at 0 (free
duals as they are), which no feasible point exceeds. The solve keeps the
best point and the lowest bound seen and stops when the bound closes on
the point's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .graph import Scenario

GAP_TOL = 1e-9  # relative gap at which a solve stops
STALL_GAP_TOL = 1e-7  # relative gap accepted once the gap stops improving
STALL_ITERS = 3  # iterations without halving the gap that count as a stall
MAX_ITERS = 100
_STEP = 0.9995  # fraction of the way to the boundary a step goes
_REG = 1e-6  # primal regularization, relative to the largest cost
_CG_ITERS = 30  # conjugate-gradient steps per normal-equation solve, at most
_CG_TOL = 1e-13  # relative residual at which they stop


class IpmError(RuntimeError):
    """No certified solution: the iteration cap was reached, or the gap stayed open."""


@dataclass(frozen=True)
class IpmResult:
    """Certified solution: ``x`` per cell is feasible, ``bound`` >= the optimum."""

    x: np.ndarray
    objective: float
    bound: float
    iterations: int


def relative_gap(objective: float, bound: float) -> float:
    return (bound - objective) / (1.0 + abs(objective))


def solve_window_lp(
    s: Scenario,
    ce: np.ndarray,
    ct: np.ndarray,
    cost: np.ndarray,
    ub: np.ndarray,
    width: int,
    window: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    q: np.ndarray,
    v: np.ndarray,
    nb: int,
    gamma: float,
) -> IpmResult:
    """Maximize cost.x over the cells (ce, ct) and L, 0 <= x <= ub.

    The packing rows are the windows of ``width`` steps that
    ``windows._window_cells`` returns: their (donor, step) ends and their
    (row, cell) incidence, as ``window`` = (ru, rt, rows, cols).
    With nb > 0, the banded totals s_j = sum of q x over the cells with
    v = j keep within the gamma band, and ``cost`` and ``ub`` end with L's
    entry. Raises IpmError past MAX_ITERS iterations.
    """
    return _WindowLp(s, ce, ct, cost, ub, width, window, q, v, nb, gamma).solve()


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack of SPD matrices, from Jacobi-scaled Cholesky factors.

    Late iterations can lose definiteness to rounding; then about 1e-13
    times the scaled matrix's (unit) largest diagonal is added, growing if
    needed. Past that, its eigenvalues are floored: the conjugate gradients
    this inverse preconditions correct what the floor changes.
    """
    dg = a.diagonal(axis1=-2, axis2=-1)
    d = 1.0 / np.sqrt(np.maximum(dg, 1e-16 * dg.max(axis=-1, keepdims=True)))
    scaled = a * d[..., :, None] * d[..., None, :]
    eye = np.eye(a.shape[-1])
    for nudge in (0.0, 1e-13, 1e-11, 1e-9):
        try:
            f = np.linalg.inv(np.linalg.cholesky(scaled + nudge * eye))
            break
        except np.linalg.LinAlgError:
            continue
    else:
        lam, vec = np.linalg.eigh(scaled)
        lam = np.maximum(lam, 1e-9 * lam.max(axis=-1, keepdims=True))
        f = np.swapaxes(vec / np.sqrt(lam)[..., None, :], -1, -2)
    f = f * d[..., None, :]
    return np.swapaxes(f, -1, -2) @ f


def _step_to_boundary(vals: np.ndarray, dirs: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps vals + step * dirs >= 0."""
    neg = dirs < 0.0
    return float(min(1.0, np.min(-vals[neg] / dirs[neg], initial=np.inf)))


class _WindowLp:
    """One relaxation: its operators A x and A'y, the normal equations, the loop."""

    def __init__(self, s, ce, ct, cost, ub, width, window, q, v, nb, gamma):
        self.U, self.T, self.width = s.n_donors, s.horizon, width
        ru, rt, self.rows, self.cols = window
        # Flat (donor, step) indices of each cell and of each row's last step.
        self.cell, self.ends = s.edge_donor[ce] * self.T + ct, ru * self.T + rt
        self.nc, self.m0 = ce.size, ru.size
        self.c, self.hi = cost, ub
        if width == 1:  # each cell lies in exactly one row
            self.row = np.empty(self.nc, dtype=self.rows.dtype)
            self.row[self.cols] = self.rows
        else:
            widest = np.zeros(self.U * self.T, dtype=bool)
            widest[self.ends] = True
            widest = widest.reshape(self.U, self.T)
            self.pairs = widest[:, :, None] & widest[:, None, :]
            self.lone = (~widest).astype(float)
        # The band rows put coefficient e_i on s_v and f_i on L.
        self.q, self.v, self.nb, self.gamma = q, v, nb, gamma
        if gamma < 1.0:  # L - s_v <= 0 and gamma s_v - L <= 0
            self.e, self.f, ineq = np.array([-1.0, gamma]), np.array([1.0, -1.0]), True
        else:  # s_v - L = 0
            self.e, self.f, ineq = np.array([1.0]), np.array([-1.0]), False
        band = self.e.size * nb
        # Rows are the packing rows, then the band's; the first nin are inequalities.
        self.m, self.nin = self.m0 + band, self.m0 + band * ineq
        self.b = np.concatenate([np.ones(self.m0), np.zeros(band)])
        self.y_floor = np.where(np.arange(self.m) < self.nin, 0.0, -np.inf)
        if nb:
            self.row_recipient = self.rows * nb + v[self.cols]  # flat, per incidence
            self.ee = np.outer(self.e, self.e)[:, :, None, None]
            self.ff = np.outer(self.f, self.f)[:, :, None, None]
            self.s_diag = np.diag_indices(band)

    # -- operators ---------------------------------------------------------

    def _mass(self, xc: np.ndarray) -> np.ndarray:
        """(U, T) sums of a per-cell array over each donor's cells of a step."""
        return np.bincount(self.cell, xc, minlength=self.U * self.T).reshape(self.U, self.T)

    def _sums(self, mass: np.ndarray, ahead: bool = False) -> np.ndarray:
        """Sums over the windows ending at each step, or starting there if ``ahead``.

        Added term by term: late in a solve Theta spans twenty orders of
        magnitude, and a difference of prefix sums would lose the windows
        that hold only small terms.
        """
        out = mass.copy()
        for j in range(1, min(self.width, self.T)):
            if ahead:
                out[:, :-j] += mass[:, j:]
            else:
                out[:, j:] += mass[:, :-j]
        return out

    def _per_row(self, xc: np.ndarray) -> np.ndarray:
        """Sums of a per-cell array over each row's cells."""
        if self.width == 1:
            return np.bincount(self.row, xc, minlength=self.m0)
        return np.take(self._sums(self._mass(xc)), self.ends)

    def mul(self, x: np.ndarray) -> np.ndarray:
        rows = self._per_row(x[: self.nc])
        if not self.nb:
            return rows
        out = np.empty(self.m)
        out[: self.m0] = rows
        band = out[self.m0 :].reshape(self.e.size, self.nb)
        sv = np.bincount(self.v, self.q * x[: self.nc], minlength=self.nb)
        np.multiply(self.e[:, None], sv, out=band)
        band += self.f[:, None] * x[self.nc]
        return out

    def tmul(self, y: np.ndarray) -> np.ndarray:
        if self.width == 1:
            cells = y[self.row]
        else:
            back = np.zeros(self.U * self.T)
            back[self.ends] = y[: self.m0]
            cells = np.take(self._sums(back.reshape(self.U, self.T), ahead=True), self.cell)
        if not self.nb:
            return cells
        yb = y[self.m0 :].reshape(self.e.size, self.nb)
        out = np.empty(self.nc + 1)
        np.add(cells, self.q * (self.e @ yb)[self.v], out=out[: self.nc])
        out[self.nc] = self.f @ yb.sum(axis=1)
        return out

    # -- normal equations --------------------------------------------------

    def _packing_solver(self, theta: np.ndarray, extra: np.ndarray):
        """z -> (P Theta P' + diag(extra))^-1 z for z of shape (rows, k)."""
        if self.width == 1:
            d = self._per_row(theta) + extra
            return lambda r: r / d[:, None]
        U, T = self.U, self.T
        mass = self._mass(theta)
        # Windows ending at t and t + d share the width - d steps ending at t:
        # the d-th diagonals of the blocks, strided views of a (U, T * T) buffer.
        flat = np.zeros((U, T * T))
        shared = np.zeros_like(mass)
        for d in range(self.width - 1, -1, -1):
            j = self.width - d - 1
            if j < T:
                shared[:, j:] += mass[:, : T - j]
            if d < T:
                flat[:, d : (T - d) * T : T + 1] = shared[:, : T - d]
                flat[:, d * T :: T + 1] = shared[:, : T - d]
        blocks = flat.reshape(U, T, T)
        blocks *= self.pairs
        diag = self.lone.copy()  # a step that ends no row gets a 1 to itself
        np.put(diag, self.ends, extra)
        flat[:, :: T + 1] += diag
        inv = _spd_inverse(blocks)

        def solve(r):
            full = np.zeros((U * T, r.shape[1]))
            full[self.ends] = r
            return (inv @ full.reshape(U, T, -1)).reshape(U * T, -1)[self.ends]

        return solve

    def _direct_solver(self, theta: np.ndarray, wy: np.ndarray):
        """r -> M^-1 r by block elimination, packing rows first."""
        nc, m0, nb = self.nc, self.m0, self.nb
        solve_p = self._packing_solver(theta[:nc], wy[:m0])
        if not nb:
            return lambda r: solve_p(r[:, None])[:, 0]
        # G = P Theta Q': the band mass of each row, (rows, recipients),
        # summed over the row's cells.
        tq = theta[:nc] * self.q
        G = np.bincount(self.row_recipient, tq[self.cols], minlength=m0 * nb).reshape(m0, nb)
        Z = solve_p(G)
        core = np.diag(np.bincount(self.v, tq * self.q, minlength=nb)) - G.T @ Z
        e, k = self.e, self.e.size
        # Block (i, j) of S is e_i e_j core + theta_L f_i f_j, each (nb, nb).
        S = (self.ee * core + theta[nc] * self.ff).transpose(0, 2, 1, 3).reshape(k * nb, k * nb)
        S[self.s_diag] += wy[m0:]
        S_inv = _spd_inverse(S)

        def solve(r):
            out = np.empty(self.m)
            zp = solve_p(r[:m0, None])[:, 0]
            yb = out[m0:]
            np.matmul(S_inv, (r[m0:].reshape(k, nb) - e[:, None] * (G.T @ zp)).ravel(), out=yb)
            np.subtract(zp, Z @ (e @ yb.reshape(k, nb)), out=out[:m0])
            return out

        return solve

    def normal_solver(self, theta: np.ndarray, wy: np.ndarray):
        """r -> M^-1 r with M = A Theta A' + diag(wy).

        Conjugate gradients on M, preconditioned by the direct solve: near
        the optimum cancellation in the band's Schur complement makes the
        direct solve alone too inexact to step on.
        """
        direct = self._direct_solver(theta, wy)

        def solve(r):
            dy = direct(r)
            res = r - self.mul(theta * self.tmul(dy)) - wy * dy
            tol = _CG_TOL * np.abs(r).max()
            if np.abs(res).max() <= tol:
                return dy
            z = direct(res)
            p, rz = z, res @ z
            for _ in range(_CG_ITERS):
                if rz <= 0.0:
                    break
                Mp = self.mul(theta * self.tmul(p)) + wy * p
                alpha = rz / (p @ Mp)
                dy, res = dy + alpha * p, res - alpha * Mp
                if np.abs(res).max() <= tol:
                    break
                z = direct(res)
                rz, rz_old = res @ z, rz
                p = z + (rz / rz_old) * p
            return dy

        return solve

    # -- certificate -------------------------------------------------------

    def certificate(self, x: np.ndarray, y: np.ndarray):
        """(feasible cells, their objective, dual bound)."""
        xc = np.clip(x[: self.nc], 0.0, self.hi[: self.nc])
        # Scale each cell by the fullest window that holds it, if over 1.
        if self.width == 1:
            xc = xc / np.maximum(self._per_row(xc), 1.0)[self.row]
        else:
            over = np.maximum(self._sums(self._mass(xc)), 1.0)
            pad = np.concatenate([over, np.ones((self.U, self.width - 1))], axis=1)
            fullest = np.max([pad[:, j : j + self.T] for j in range(self.width)], axis=0)
            xc = xc / np.take(fullest, self.cell)
        if self.nb:
            # Scale each banded total above min(s) / gamma back down to it.
            sv = np.bincount(self.v, self.q * xc, minlength=self.nb)
            top = sv.min() / self.gamma
            scale = np.where(sv > top, top / np.where(sv > top, sv, 1.0), 1.0)
            xc = np.where(self.q > 0.0, xc * scale[self.v], xc)
        yp = np.maximum(y, self.y_floor)  # inequality duals clipped at 0, free ones kept
        slack = self.c - self.tmul(yp)
        bound = float(self.b @ yp + self.hi @ np.maximum(slack, 0.0))
        return xc, float(self.c[: self.nc] @ xc), bound

    # -- Mehrotra predictor-corrector -------------------------------------

    def solve(self) -> IpmResult:
        m, nin = self.m, self.nin
        n = self.hi.size
        reg = _REG * float(np.abs(self.c).max() or 1.0)
        x = self.hi / 2.0
        t = self.hi - x
        z, v = np.ones(n), np.ones(n)
        w = np.zeros(m)
        w[:nin] = 1.0
        y = w.copy()
        best_x, best_obj, bound, err, stall = None, -np.inf, np.inf, np.inf, 0
        for it in range(MAX_ITERS + 1):
            # The best point and the lowest bound need not share an iterate.
            xc, obj, it_bound = self.certificate(x, y)
            if obj > best_obj:
                best_x, best_obj = xc, obj
            bound = min(bound, it_bound)
            new_err = relative_gap(best_obj, bound)
            stall = 0 if new_err < 0.5 * err or err == np.inf else stall + 1
            err = min(err, new_err)
            if err <= GAP_TOL or (stall >= STALL_ITERS and err <= STALL_GAP_TOL):
                return IpmResult(best_x, best_obj, bound, it)
            if it == MAX_ITERS:
                break

            rp = self.b - self.mul(x) - w
            ru = self.hi - x - t
            rd = self.c - self.tmul(y) - v + z
            theta = 1.0 / (z / x + v / t + reg)
            wy = np.zeros(m)
            np.divide(w[:nin], y[:nin], out=wy[:nin])
            solve = self.normal_solver(theta, wy)

            def direction(rxz, rtv, rwy):
                # rwy holds the inequality rows only; w and dw stay 0 on the others.
                h = rd - (rtv - v * ru) / t + rxz / x
                k = np.zeros(m)
                np.divide(rwy, y[:nin], out=k[:nin])
                dy = solve(self.mul(theta * h) + k - rp)
                dx = theta * (h - self.tmul(dy))
                dt = ru - dx
                dw = rp - self.mul(dx)
                dw[nin:] = 0.0
                dz = (rxz - z * dx) / x
                dv = (rtv - v * dt) / t
                ap = _step_to_boundary(
                    np.concatenate([x, t, w[:nin]]), np.concatenate([dx, dt, dw[:nin]])
                )
                ad = _step_to_boundary(
                    np.concatenate([z, v, y[:nin]]), np.concatenate([dz, dv, dy[:nin]])
                )
                return dx, dt, dw, dy, dz, dv, ap, ad

            wi, yi = w[:nin], y[:nin]
            mu = (x @ z + t @ v + wi @ yi) / (2 * n + nin)
            if not np.isfinite(mu):
                break
            dx, dt, dw, dy, dz, dv, ap, ad = direction(-x * z, -t * v, -wi * yi)
            mu_aff = (
                (x + ap * dx) @ (z + ad * dz)
                + (t + ap * dt) @ (v + ad * dv)
                + (wi + ap * dw[:nin]) @ (yi + ad * dy[:nin])
            ) / (2 * n + nin)
            target = (mu_aff / mu) ** 3 * mu
            dx, dt, dw, dy, dz, dv, ap, ad = direction(
                target - x * z - dx * dz,
                target - t * v - dt * dv,
                target - wi * yi - dw[:nin] * dy[:nin],
            )
            ap, ad = _STEP * ap, _STEP * ad
            x, t, w = x + ap * dx, t + ap * dt, w + ap * dw
            y, z, v = y + ad * dy, z + ad * dz, v + ad * dv
        raise IpmError(
            f"no certified solution in {MAX_ITERS} iterations (relative gap {err:.2g})"
        )
