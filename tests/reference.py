"""Direct reference solvers shared by the tests.

The matrices here are built the slow, obvious way: every slice operator by
sparse composition of assemble_divergence_operator and gradient_matrices,
the nodal gradient by slicing the node array along each axis,
and the space-time matrix K of the coupled system one slice block at a
time.  ``DirectContext`` solves K and K^T with a sparse LU of that matrix,
every block of both solves, so the program's Gramian machinery
(solve_primal, solve_transposed, the Krylov basis, solve_leader) runs
unchanged on an exact engine that shares no march with the block
Gauss-Seidel sweep.  Its primal right-hand side holds the problem's own y0
and targets, not the target source g the sweep marches, and its data
pairing pairs the targets with its own theta_k instead of using the
summation-by-parts shortcut of the sweep.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hiercontrol.grids import assemble_divergence_operator, gradient_matrices, stepped_pairing
from hiercontrol.leader import GramianContext, TransposedResponse


def reference_slice(grid, tau, b=None, f_adv=None, f_div=None, f0=None):
    """I + tau L on the interior unknowns by sparse composition."""
    n = grid.n_nodes
    L = sp.csr_matrix((n, n))
    if b is not None:
        L = L + assemble_divergence_operator(grid, b)
    if f_adv is not None or f_div is not None:
        D = gradient_matrices(grid)
        for ax in range(grid.dim):
            if f_adv is not None:
                L = L + sp.diags(f_adv[:, ax]) @ D[ax]
            if f_div is not None:
                L = L + D[ax] @ sp.diags(f_div[:, ax])
    if f0 is not None:
        L = L + sp.diags(f0 * (~grid.boundary).astype(float))
    ii = grid.interior_idx
    return sp.identity(ii.size, format="csc") + tau * L.tocsr()[ii][:, ii]


def reference_gradient(grid, values):
    """Nodal gradient by slicing the (cells + 1,) * dim node array per axis:
    central differences inside, one-sided at both ends of each axis."""
    n1, h = grid.cells + 1, grid.h
    v = values.reshape(values.shape[:-1] + (n1,) * grid.dim)
    out = np.empty(v.shape + (grid.dim,))
    for ax in range(grid.dim):
        w = np.moveaxis(v, v.ndim - grid.dim + ax, -1)
        o = np.moveaxis(out[..., ax], v.ndim - grid.dim + ax, -1)
        o[..., 1:-1] = (w[..., 2:] - w[..., :-2]) / (2 * h)
        o[..., 0] = (w[..., 1] - w[..., 0]) / h
        o[..., -1] = (w[..., -1] - w[..., -2]) / h
    return out.reshape(values.shape + (grid.dim,))


def _at(arr, m, sign=1.0):
    return None if arr is None else sign * arr[m]


def reference_spacetime(ctx):
    """Space-time matrix K of a GramianContext, one slice block at a time.

    Unknowns are ordered [y^1..y^M, p_1^1..p_1^M, p_2^1..p_2^M], each slice
    the interior nodes.
    """
    grid, tgrid, c, problem = ctx.grid, ctx.tgrid, ctx.c, ctx.problem
    ii = grid.interior_idx
    ni, M, tau = ii.size, tgrid.steps, tgrid.tau
    eye = sp.identity(ni, format="csr")
    off = (0, M * ni, 2 * M * ni)
    blocks = []
    for m in range(1, M + 1):
        F = reference_slice(grid, tau, c.b[m], f_adv=_at(c.f_adv, m), f0=_at(c.f0, m))
        G = reference_slice(grid, tau, c.B[m], f_div=_at(c.g, m), f0=_at(c.g0, m, -1.0))
        r = (m - 1) * ni
        blocks.append((r, r, F))
        if m >= 2:
            blocks.append((r, r - ni, -eye))
        for k in (1, 2):
            rk = off[k] + (m - 1) * ni
            blocks.append((r, rk, (-tau / problem.mu[k - 1]) * sp.diags(ctx.S[k - 1][ii])))
            blocks.append((rk, rk, G.T))
            if m <= M - 1:
                blocks.append((rk, rk + ni, -eye))
            if problem.nu[k - 1] != 0.0:
                blocks.append((rk, r, (tau * problem.nu[k - 1]) * sp.diags(ctx.xi_star[ii])))
    rows, cols, vals = [], [], []
    for r0, c0, A in blocks:
        A = sp.coo_matrix(A)
        rows.append(A.row + r0)
        cols.append(A.col + c0)
        vals.append(A.data)
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * M * ni, 3 * M * ni),
    )


def spacetime_rhs(ctx, transpose, seed, source, targets):
    """Right-hand side of K x = rhs (or K^T x = rhs) for the sweep's arguments."""
    ii, M, tau = ctx.grid.interior_idx, ctx.tgrid.steps, ctx.tgrid.tau
    ni = ii.size
    rhs = np.zeros(3 * M * ni)
    if transpose:
        assert source is None and targets is None
        if seed is not None:
            rhs[(M - 1) * ni : M * ni] = seed[ii]
        return rhs
    if source is not None:
        rhs[: M * ni] = tau * source[1:, ii].ravel()
    if seed is not None:
        rhs[:ni] += seed[ii]
    if targets is not None:
        for k in (1, 2):
            nu_k = ctx.problem.nu[k - 1]
            if nu_k != 0.0:
                blk = tau * nu_k * (ctx.xi_star[None, :] * targets[k - 1])[1:, ii]
                rhs[k * M * ni : (k + 1) * M * ni] = blk.ravel()
    return rhs


def unpack_spacetime(ctx, transpose, seed, x):
    """Trajectories (lead, z_1, z_2) of a solution of K or K^T, one per block."""
    grid, M = ctx.grid, ctx.tgrid.steps
    ii = grid.interior_idx
    out = []
    for blk in range(3):
        traj = np.zeros((M + 1, grid.n_nodes))
        traj[1:, ii] = x[blk * M * ii.size : (blk + 1) * M * ii.size].reshape(M, ii.size)
        out.append(traj)
    lead, z1, z2 = out
    # slice 0 of the lead block as the marches leave it: march_adjoint
    # copies slice 1 there, march_forward keeps its initial state
    if transpose:
        lead[0] = lead[1]
    elif seed is not None:
        lead[0] = seed
    return lead, z1, z2


class DirectContext(GramianContext):
    """GramianContext whose coupled solves are a sparse LU of reference_spacetime."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lu = spla.splu(reference_spacetime(self))

    def _primal(self, source, data, tol):
        # the right-hand side comes from the problem's own y0 and targets,
        # never from the context's g, which the sweep marches
        y0 = self.problem.y0.values if data else None
        targets = tuple(t.values for t in self.problem.targets) if data else None
        x = self.lu.solve(spacetime_rhs(self, False, y0, source, targets))
        return unpack_spacetime(self, False, y0, x)[0]

    def _transposed(self, phi_T, tol):
        x = self.lu.solve(spacetime_rhs(self, True, phi_T, None, None), trans="T")
        phi, lam1, lam2 = unpack_spacetime(self, True, phi_T, x)
        thetas = (-lam1, -lam2)
        for th in thetas:
            th[0] = 0.0
        data = sum(
            nu_k * stepped_pairing(self.grid, self.tgrid, self.xi_star[None, :] * tgt.values, th)
            for nu_k, tgt, th in zip(self.problem.nu, self.problem.targets, thetas)
            if nu_k != 0.0
        )
        return TransposedResponse(phi, float(data), lambda: thetas)


def direct(ctx):
    """The exact-engine twin of a GramianContext: same linearization and weights."""
    return DirectContext(ctx.problem, ctx.weights, ctx.c, picard_tol=ctx.picard_tol)
