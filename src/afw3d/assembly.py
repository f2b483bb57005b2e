"""Assembly and hybridized solution of the three-field mixed system.

Stress lives in the H(div)-conforming matrix-valued space of order r+1
(face-shared dofs from interp.StressSpace); displacement and rotation are
elementwise vector polynomials of order r with L2-orthonormal reference
modes, so their mass matrices are det(A) times the identity.  All
bilinear blocks are integrated exactly through reference Gram matrices;
only load and boundary data use quadrature, and so do the error norms
against exact fields, whose rule checks itself (interp.l2_norm).

The element blocks are built, kept and applied as stacks over blocks of
tets that share an order signature (signature_blocks): the geometry enters
through products with the stacked affine maps (one GEMM of the signature's
G4 against all A^T A for the L2 Grams), and the load and boundary data are
evaluated once per block through interp.block_values.  The signatures run
through interp.map_blocks, one item each (_map_signatures), on
len(os.sched_getaffinity(0)) - 1 worker threads and the calling thread: an
item builds its signature's raw Grams and then the terms of its blocks, which
are items of their own only on a mesh of one signature.  G and F are
scattered in block order, so the system has the bits of the serial loop.

The element factorizations of hybrid_operator stay serial.  Under cProfile
on cube n = 3, r = 1, getrf and getri take about 36 ms of the 46-50 ms loop,
and they release the GIL; but two threads running only those calls on the
162 element blocks (114 x 114) took 0.035-0.048 s against 0.040-0.056 s
serially, and element_block, 12-17 ms of small numpy calls, holds the GIL
between them.  Through map_blocks the loop took 0.071-0.072 s
against 0.054-0.081 s serially (minima of 10 runs, 2 vCPUs, one BLAS
thread): no gain beyond the noise.

`solve_saddle` solves the symmetric indefinite K x = b by hybridization at
the level of dofs (Arnold & Brezzi 1985; for weak symmetry Cockburn,
Gopalakrishnan & Guzman 2010): every stress face dof shared by two tets is
split into one copy per tet, and a Lagrange multiplier forces the copies
to be equal, which is the continuity of the normal trace tested against
P_{r_F+1}(F).  Each element block K_e, the one-element problem with
displacement data, is inverted densely; the multipliers solve the
symmetric positive definite S = sum_e E_e K_e^{-1} E_e^T, and the element
fields are recovered by stacked products per block.  One refinement step
follows, and the relative residual must stay below 1e-9.  Below
PCG_MIN_MULTIPLIERS multipliers S is factored once by a sparse direct
solver; from there on its fill costs more than conjugate gradients, and S
is solved by PCG with a two-level preconditioner: the inverses of its
diagonal face blocks plus a Galerkin coarse solve on the first test mode
of each face (Gopalakrishnan & Tan 2009; Cockburn, Dubois, Gopalakrishnan
& Tan 2014).  The stability lab's eigensolvers apply the operator 50-70
times and keep the factor.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import expr, interp, linalg, monomials as mo, polyspace as ps, quadrature, tensor_ops
from .interp import DiscreteField, FieldSample, StressSpace, Workspace


class FactorizationBreakdown(Exception):
    pass


@dataclass
class DofMap:
    """Global numbering: [stress | displacement | rotation]."""

    n_stress: int
    n_disp: int
    n_rot: int
    stress_elem_dofs: list     # per tet: global stress dof ids (row order)
    disp_elem_dofs: list       # per tet: global displacement ids, also the rotation ones

    @property
    def n_total(self):
        return self.n_stress + self.n_disp + self.n_rot


def _scatter(stacks, row_dofs, col_dofs, shape):
    """CSR sum of dense block stacks: entry (k, i, j) goes to (row_dofs[k, i], col_dofs[k, j])."""
    rows = [np.broadcast_to(rd[:, :, None], s.shape).ravel() for s, rd in zip(stacks, row_dofs)]
    cols = [np.broadcast_to(cd[:, None, :], s.shape).ravel() for s, cd in zip(stacks, col_dofs)]
    vals = [s.ravel() for s in stacks]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


@dataclass
class BlockSaddleSystem:
    """K = [[A, B1^T, -B2^T], [B1, 0, 0], [-B2, 0, 0]], kept as its element
    blocks stacked per block of blocks; A_loc[t] is a view of the A_e of tet
    t.  A, B1, B2, full_matrix() and the stress Grams are assembled from the
    stacks on first use.
    """

    F: np.ndarray              # <f, v>
    G: np.ndarray              # boundary displacement term on stress dofs
    blocks: list               # (signature, tets, stress ids, displacement ids) per block
    A_blocks: list             # per block: (tets, n, n) stacks of A_e, B1_e, B2_e
    B1_blocks: list            # in element dof order
    B2_blocks: list
    dofmap: DofMap
    space: StressSpace
    material: object
    mesh: object
    orders: object

    def _per_tet(self, stacks):
        views = [m for stack in stacks for m in stack]
        return [views[k] for k in np.argsort(np.concatenate([b[1] for b in self.blocks]))]

    A_loc = cached_property(lambda self: self._per_tet(self.A_blocks))
    B1_loc = cached_property(lambda self: self._per_tet(self.B1_blocks))
    B2_loc = cached_property(lambda self: self._per_tet(self.B2_blocks))

    @cached_property
    def A(self):
        """<compliance sigma, tau>"""
        sds = [sd for _, _, sd, _ in self.blocks]
        return _scatter(self.A_blocks, sds, sds, (self.dofmap.n_stress,) * 2)

    @cached_property
    def stress_grams(self):
        """assemble_stress_grams(self)"""
        return assemble_stress_grams(self)

    @cached_property
    def B1(self):
        """<div tau, u>"""
        _, _, sds, uds = zip(*self.blocks)
        return _scatter(self.B1_blocks, uds, sds, (self.dofmap.n_disp, self.dofmap.n_stress))

    @cached_property
    def B2(self):
        """<s2 tau, q>"""
        _, _, sds, uds = zip(*self.blocks)
        return _scatter(self.B2_blocks, uds, sds, (self.dofmap.n_rot, self.dofmap.n_stress))

    @cached_property
    def layout(self):
        """(n_mult, per block (glob, mult, sign)): (tets, n_e) stacks of the global
        ids of the element dofs and of where the hybridized solve splits a stress
        dof held by two tets: each copy has the dof's multiplier id and sign +1
        at its owner, the first tet that holds it, and -1 at the other tet.
        Every other dof has the id n_mult and sign 0."""
        d, sds = self.dofmap, self.dofmap.stress_elem_dofs
        tet_of = np.repeat(np.arange(len(sds)), [len(sd) for sd in sds])
        _, first, counts = np.unique(np.concatenate(sds), return_index=True, return_counts=True)
        n_mult = int((counts > 1).sum())
        mult_of = np.full(d.n_total, n_mult)
        mult_of[np.flatnonzero(counts > 1)] = np.arange(n_mult)
        owner = np.pad(tet_of[first], (0, d.n_total - d.n_stress))
        parts = []
        for _, tets, sd, ud in self.blocks:
            glob = np.hstack([sd, d.n_stress + ud, d.n_stress + d.n_disp + ud])
            parts.append((glob, mult_of[glob], np.where(mult_of[glob] < n_mult, np.where(
                owner[glob] == tets[:, None], 1.0, -1.0), 0.0)))
        return n_mult, parts

    def matvec(self, x):
        """K x = sum_e P_e^T K_e P_e x: stacked products per block, one np.bincount.
        A_e has column-major slices, so BLAS sums each entry of A_e x_e over the
        columns in order, as a CSR product does; row-major slices left 3-4x
        larger residuals after the refinement step of solve_saddle at r >= 3."""
        globs, ys = [glob for glob, _, _ in self.layout[1]], []
        for glob, A, B1, B2 in zip(globs, self.A_blocks, self.B1_blocks, self.B2_blocks):
            xs, xu, xp = np.split(x[glob, None], [A.shape[1], A.shape[1] + B1.shape[1]], axis=1)
            ys.append(np.hstack([A @ xs + np.swapaxes(B1, 1, 2) @ xu - np.swapaxes(B2, 1, 2) @ xp,
                                 B1 @ xs, -(B2 @ xs)]))
        return np.bincount(np.concatenate([glob.ravel() for glob in globs]),
                           np.concatenate([y.ravel() for y in ys]), len(x))

    def full_matrix(self):
        return sp.bmat(
            [
                [self.A, self.B1.T, -self.B2.T],
                [self.B1, None, None],
                [-self.B2, None, None],
            ],
            format="csc",
        )

    def full_rhs(self):
        return np.concatenate([self.G, self.F, np.zeros(self.dofmap.n_rot)])


def build_dof_map(mesh, orders, space=None):
    """Dof layout for the stress/displacement/rotation triple.

    Displacement and rotation have the same modes on each tet, so their
    element numberings are the same.
    """
    space = StressSpace(mesh, orders) if space is None else space
    counts = [3 * mo.count(3, int(orders.tet_orders[t])) for t in range(mesh.n_tets)]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return DofMap(
        n_stress=space.n_dofs,
        n_disp=int(offsets[-1]),
        n_rot=int(offsets[-1]),
        stress_elem_dofs=[e.dof_ids for e in space.elements],
        disp_elem_dofs=[np.arange(offsets[t], offsets[t + 1]) for t in range(mesh.n_tets)],
    )


def _raw_gram_data(ro):
    """(basis, G4, divG, B1W, W3): exact reference Grams of the stress basis
    of signature ro, built afresh on each call.  assemble and
    assemble_stress_grams make them once per signature, in the signature's
    item of map_blocks, for all its blocks, and keep them no longer, so a
    variable-order mesh holds at most one signature's Grams per usable CPU
    (G4 alone is 17 MB at r = 4).

    Contraction order: the monomial Gram multiplies one factor first, then
    G4 and divG are each one GEMM of the two factors over their remaining
    axes; B1W and W3 multiply the factor by the small product Gram @ modes^T.
    """
    basis = ps.stress_basis(ro)
    deg = ro.tet + 1
    nb = basis.dim
    mats = basis.coeffs.reshape(nb, 3, 3, -1)
    G3 = mo.gram_simplex(3, deg)
    # G4[b, b', q, s] = int sum_p psi_b[p,q] psi_b'[p,s]: rows (b, q), columns (p, n)
    X = mats.transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    XG = (mats @ G3.T).transpose(0, 2, 1, 3).reshape(3 * nb, -1)
    G4 = (X @ XG.T).reshape(nb, 3, nb, 3).transpose(0, 2, 1, 3)
    divs = ps.differentiate(basis.coeffs, deg, "div")   # (nb, 3, n3(rt))
    Gd = mo.gram_simplex(3, ro.tet)
    divG = divs.reshape(nb, -1) @ (divs @ Gd.T).reshape(nb, -1).T
    modes = ps.volume_modes(ro.tet)[:, 0, :]            # (nm, n3(rt))
    B1W = divs @ (Gd @ modes.T)                         # (nb, 3, nm)
    modesE = mo.embed(modes, 3, ro.tet, deg)
    W3 = basis.coeffs @ (G3 @ modesE.T)                 # (nb, 9, nm)
    return basis, G4, divG, B1W, W3


# Cap on the entries of one stack of element matrices (2 MB).  Each
# signature group is assembled in blocks of at most BLOCK_ENTRIES // nb^2
# tets; a 162-tet group at r = 1 (nb = 90) takes six blocks.
BLOCK_ENTRIES = 2**18


def signature_blocks(space):
    """(signature, tet ids) pairs: the tets of each signature in blocks whose
    stacks of nb x nb element matrices hold at most BLOCK_ENTRIES entries."""
    for ro, tets in space.ws.signature_groups.items():
        nb = ps.stress_basis(ro).dim
        for block in interp.tet_blocks(tets, nb * nb, BLOCK_ENTRIES):
            yield ro, block


def _map_signatures(fn, blocks):
    """The results of fn(ro, [tets of each block of signature ro]) for each
    signature, one item per signature through interp.map_blocks, joined in
    block order.  blocks are tuples (ro, tets, ...) in which the blocks of a
    signature come in a row (signature_blocks); fn returns one result per
    block.  When fn maps its own blocks, they run in parallel only on a mesh
    of one signature, as map_blocks runs a nested call serially."""
    runs = [(ro, [b[1] for b in run]) for ro, run in itertools.groupby(blocks, key=lambda b: b[0])]
    return [result for results in interp.map_blocks(lambda run: fn(*run), runs)
            for result in results]


def _l2_grams(space, G4, tets):
    """(X, M_raw) stacks over tets of one signature, whose G4 the caller
    passes: the dual bases X = C^{-1} and the raw L2 Grams <sigma_b, sigma_c>
    = (1/J) int psihat_b : (psihat_c A^T A), the latter one GEMM of G4
    against the stacked A^T A."""
    nb = G4.shape[0]
    aff = space.mesh.affine
    A = aff.A[tets]
    M = np.swapaxes(A, 1, 2) @ A
    # M_raw[b, c] = sum_{q,s} G4[b, c, q, s] M[s, q]
    M_raw = np.swapaxes(M, 1, 2).reshape(len(tets), 9) @ G4.reshape(nb * nb, 9).T
    M_raw = M_raw.reshape(-1, nb, nb) / aff.det[tets, None, None]
    return space.dual_bases(tets), M_raw


def _boundary_raw(ws, ro, tets, g):
    """(len(tets), nb): int_{boundary faces of the tet} g . (psi_b n) for the
    raw basis psi_b = (1/J) psihat_b A^T of signature ro.  The (tet, face)
    pairs go in blocks whose basis values hold at most BLOCK_ENTRIES entries."""
    mesh, aff = ws.mesh, ws.mesh.affine
    basis = ps.stress_basis(ro)
    nb, q = basis.dim, len(ws.tri_rule.weights)
    out = np.zeros((len(tets), nb))
    k, lf = np.nonzero(mesh.boundary_face[mesh.tet_faces[tets]])    # (tet, local face) pairs
    for sel in interp.tet_blocks(np.arange(len(k)), 9 * nb * q, BLOCK_ENTRIES):
        t = tets[k[sel]]
        fids = mesh.tet_faces[t, lf[sel]]
        pts = np.stack([ws.face_points[fid] for fid in fids])         # (pairs, q, 3)
        w = np.stack([ws.face_weights[fid] for fid in fids])
        gv = interp.values_at(g.value, t, pts)
        xhat = aff.pull(t, pts).reshape(-1, 3)
        bref = mo.evaluate(basis.coeffs, 3, ro.tet + 1, xhat).reshape(nb, 3, 3, len(t), q)
        bref = bref.transpose(3, 0, 4, 1, 2)                          # (pairs, b, q, j, k)
        bphys = np.einsum("pbqjk,plk->pbqjl", bref, aff.A[t]) / aff.det[t, None, None, None, None]
        bn = np.einsum("pbqjl,pl->pbqj", bphys, interp._outward_normal(mesh, t, lf[sel]))
        np.add.at(out, k[sel], np.einsum("pq,pbqj,pqj->pb", w, bn, gv))
    return out


def assemble(mesh, orders, material, f, boundary_g=None, space=None, ws=None):
    """Assemble the symmetric block system of the mixed formulation.

    boundary_g, when given, is the prescribed boundary displacement; it
    enters the first equation as the natural term int_dOmega g . (tau n).
    Each signature is one item of interp.map_blocks (_map_signatures): it
    builds its raw Grams and S2W, then the element stacks, boundary term and
    load of each of its blocks (block_terms, mapped in turn); G and F are
    scattered afterwards in block order.
    """
    ws = Workspace(mesh, orders) if ws is None else ws
    space = StressSpace(mesh, orders, ws) if space is None else space
    dofmap = build_dof_map(mesh, orders, space)
    lam, mu = material.lame_lambda, material.lame_mu
    c_tr = lam / (2 * mu * (2 * mu + 3 * lam))
    aff = mesh.affine
    S2M = tensor_ops.S2_MATRIX.reshape(3, 3, 3)

    rule = ws.vol_rule
    # displacement modes at the volume rule, per tet order
    modes = {rt: mo.evaluate(ps.volume_modes(rt)[:, 0, :], 3, rt, rule.points)
             for rt in np.unique(orders.tet_orders).tolist()}

    def block_terms(ro, raw, tets):
        """(A_e, B1_e, B2_e) stacks of the tets of one block, and their
        boundary term on the element stress dofs and load (None without data)."""
        basis, G4, B1W, S2W = raw
        nb = basis.dim
        A = aff.A[tets]
        X, M_raw = _l2_grams(space, G4, tets)
        # tr(psihat_b A^T) as polynomials, (tets, nb, n3)
        trv = A.reshape(-1, 9) @ basis.coeffs.reshape(nb, 9, -1).transpose(1, 0, 2).reshape(9, -1)
        trv = trv.reshape(len(tets), nb, -1)
        J = aff.det[tets, None, None]
        T_raw = trv @ mo.gram_simplex(3, ro.tet + 1) @ np.swapaxes(trv, 1, 2) / J
        A_raw = M_raw / (2 * mu) - c_tr * T_raw
        A_e = np.swapaxes(X, 1, 2) @ A_raw @ X
        A_e = np.swapaxes(np.swapaxes(A_e, 1, 2).copy(), 1, 2)             # see matvec
        B1_e = B1W.reshape(nb, -1).T @ X                    # rows (c, j) c-major
        B2_e = (A.reshape(-1, 9) @ S2W).reshape(len(tets), -1, nb) @ X
        G_e = F_e = None
        if boundary_g is not None:
            G_raw = _boundary_raw(ws, ro, tets, boundary_g)
            G_e = (np.swapaxes(X, 1, 2) @ G_raw[..., None])[..., 0]
        if f is not None:
            fq = interp.block_values(mesh, f, tets, rule.points)           # (tets, q, 3)
            F_e = (J * np.einsum("q,jq,tqc->tcj", rule.weights, modes[ro.tet], fq)).reshape(len(tets), -1)
        return A_e, B1_e, B2_e, G_e, F_e

    def signature_terms(ro, sig_tets):
        """block_terms of the blocks of signature ro, from its raw Grams,
        which are dropped when the blocks are done."""
        basis, G4, _, B1W, W3 = _raw_gram_data(ro)
        # B2_raw[c, j, b] = sum_{p,q,k} S2M[c,p,q] A[q,k] W3[b,p,k,j]: one GEMM of
        # the stacked A against the signature's product of S2M and W3
        S2W = np.einsum("cpq,bpkj->qkcjb", S2M, W3.reshape(basis.dim, 3, 3, -1)).reshape(9, -1)
        return interp.map_blocks(partial(block_terms, ro, (basis, G4, B1W, S2W)), sig_tets)

    blocks, A_blocks, B1_blocks, B2_blocks = [], [], [], []
    F, G = np.zeros(dofmap.n_disp), np.zeros(dofmap.n_stress)
    sig_blocks = list(signature_blocks(space))
    terms = _map_signatures(signature_terms, sig_blocks)
    for (ro, tets), (A_e, B1_e, B2_e, G_e, F_e) in zip(sig_blocks, terms):
        sd = np.stack([space.elements[t].dof_ids for t in tets])
        ud = np.stack([dofmap.disp_elem_dofs[t] for t in tets])
        blocks.append((ro, tets, sd, ud))
        A_blocks.append(A_e)
        B1_blocks.append(B1_e)
        B2_blocks.append(B2_e)
        if G_e is not None:
            np.add.at(G, sd, G_e)
        if F_e is not None:
            F[ud] = F_e

    return BlockSaddleSystem(
        F=F, G=G, blocks=blocks, A_blocks=A_blocks, B1_blocks=B1_blocks, B2_blocks=B2_blocks,
        dofmap=dofmap, space=space, material=material, mesh=mesh, orders=orders,
    )


def assemble_stress_grams(system):
    """(L2 Gram, div Gram, H(div) stacks) of the stress space.  The Grams are
    global; the H(div) stacks are their element sums, one per block of
    system.blocks, which stability_lab.infsup_constant passes to
    hybrid_operator."""
    space = system.space

    def signature_grams(ro, sig_tets):
        """(L2, div) stacks of the blocks of signature ro, from its raw Grams."""
        _, G4, divG, _, _ = _raw_gram_data(ro)

        def block_grams(tets):
            X, M_raw = _l2_grams(space, G4, tets)
            XT = np.swapaxes(X, 1, 2)
            return XT @ M_raw @ X, XT @ (divG / space.mesh.affine.det[tets, None, None]) @ X

        return interp.map_blocks(block_grams, sig_tets)

    L2s, divs = zip(*_map_signatures(signature_grams, system.blocks))
    sds = [sd for _, _, sd, _ in system.blocks]
    shape = (system.dofmap.n_stress,) * 2
    hdiv = [l2 + dv for l2, dv in zip(L2s, divs)]
    return _scatter(L2s, sds, sds, shape), _scatter(divs, sds, sds, shape), hdiv


def vq_mass_diag(system):
    """Diagonal of the (block-diagonal) L2 mass on displacement+rotation."""
    d = np.empty(system.dofmap.n_disp)
    for _, tets, _, ud in system.blocks:
        d[ud] = system.mesh.affine.det[tets, None]
    return np.concatenate([d, d])      # rotation dofs are numbered as displacement ones


def element_block(system, t, a11):
    """K_e = [[a11, B1_e^T, -B2_e^T], [B1_e, 0, 0], [-B2_e, 0, 0]] of tet t.

    With a11 = A_e, the one-element problem with displacement data, in
    element dof order [stress | displacement | rotation].
    """
    B = np.vstack([system.B1_loc[t], -system.B2_loc[t]])
    return np.block([[a11, B.T], [B, np.zeros((len(B), len(B)))]])


def _multiplier_system(n_mult, parts, inverses):
    """S = sum_e E_e K_e^{-1} E_e^T from the stacked inverses, written straight
    into the arrays of a CSR matrix: row mu holds the entries from the tet
    that owns multiplier mu, then those from the other tet, and
    sum_duplicates adds the two terms of an entry in place.  Besides S itself
    only temporaries of one block are made, with int8 signs and int32 ids.
    The sign products are exact and an entry sums at most two terms, so S is
    bit-identical to the canonical matrix of the same entries built through
    COO triplets."""
    shared = [sign != 0 for _, _, sign in parts]
    n_sh = [sh.sum(1) for sh in shared]                 # shared copies per tet
    length = np.zeros((2, n_mult), np.int64)            # entries of a row from owner, other
    for (_, mult, sign), n in zip(parts, n_sh):
        per_copy = np.broadcast_to(n[:, None], sign.shape)
        length[0, mult[sign > 0]] = per_copy[sign > 0]
        length[1, mult[sign < 0]] = per_copy[sign < 0]
    indptr = np.concatenate([[0], np.cumsum(length.sum(0))])
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)
    for inv, (_, mult, sign), sh, n in zip(inverses, parts, shared, n_sh):
        k, i = np.nonzero(sh)           # the shared copy (k, i) fills a run of n[k] entries
        row, runs = mult[k, i], n[k]
        start = indptr[row] + np.where(sign[k, i] > 0, 0, length[0, row])
        dest = np.repeat(start - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
        pair = sh[:, :, None] & sh[:, None, :]
        s, m = sign.astype(np.int8), mult.astype(np.int32)
        s_i, s_j, m_j = (np.broadcast_to(a, pair.shape)[pair] for a in (
            s[:, :, None], s[:, None, :], m[:, None, :]))
        data[dest] = inv[pair] * (s_i * s_j)
        indices[dest] = m_j
    S = sp.csr_matrix((data, indices, indptr), shape=(n_mult, n_mult))
    S.sum_duplicates()
    return S


def _face_blocks(system, inverses):
    """[(ids, D)] per face-block size m: the (faces, m) multiplier ids of the
    interior faces with m dofs and the (faces, m, m) diagonal blocks of S at
    them, summed from the two tets' inverses with no loop over faces.  The
    multipliers are the interior face dofs in face order, each face's as
    (mode, component); the copies of a face have one sign, so a block is the
    plain sum and equals S's block bit for bit."""
    mesh, space = system.mesh, system.space
    interior = np.flatnonzero(~mesh.boundary_face)
    size = np.diff(space.face_offset)[interior]
    start = np.cumsum(size) - size
    slot = np.zeros(mesh.n_faces, np.int64)
    D = {}
    for m in np.unique(size):
        slot[interior[size == m]] = np.arange(np.count_nonzero(size == m))
        D[m] = np.zeros((np.count_nonzero(size == m), m, m))
    for (_, tets, _, _), inv in zip(system.blocks, inverses):
        for lf, P in enumerate(space.elements[tets[0]].face_slices):
            fids = mesh.tet_faces[tets, lf]
            k = np.flatnonzero(~mesh.boundary_face[fids])
            np.add.at(D[P.stop - P.start], slot[fids[k]], inv[k, P, P])
    return [(start[size == m, None] + np.arange(m), Dm) for m, Dm in D.items()]


def _pcg_solver(system, S, inverses):
    """g -> S^{-1} g by linalg.pcg to PCG_RTOL, preconditioned by B = sum_F
    R_F^T S_FF^{-1} R_F + R_0^T (R_0 S R_0^T)^{-1} R_0: the inverse of each
    face's diagonal block of S (_face_blocks) plus a Galerkin coarse solve on
    the first 3 multipliers of each face, its first test mode times the 3
    components.  That mode spans nearly the constants: the constant's cosine
    with it is 0.998, 0.996 and 0.995 at face degrees 1, 2 and 3.  The coarse
    matrix, a submatrix of S, is factored by linalg.spd_factor.  PCG that
    does not converge in PCG_MAX_ITER iterations is a FactorizationBreakdown."""
    groups = [(ids, np.linalg.inv(D)) for ids, D in _face_blocks(system, inverses)]
    coarse_ids = np.sort(np.concatenate([ids[:, :3].ravel() for ids, _ in groups]))
    coarse = linalg.spd_factor(S[coarse_ids][:, coarse_ids])

    def precond(r):
        z = np.empty_like(r)
        for ids, D_inv in groups:
            z[ids] = (D_inv @ r[ids][..., None])[..., 0]
        z[coarse_ids] += coarse.solve(r[coarse_ids])
        return z

    def solve(g):
        try:
            return linalg.pcg(S, g, precond, PCG_RTOL, PCG_MAX_ITER)
        except linalg.NoConvergence as exc:
            raise FactorizationBreakdown(f"multiplier system: {exc}") from exc

    return solve


# solve_saddle solves S by PCG (_pcg_solver) from this many multipliers on,
# and by linalg.spd_factor below it.  Measured on one BLAS thread over cube
# n = 2..4, r = 0..2 and the nested variable-order levels 1, 2: PCG made
# solve_saddle slower at 648 to 2,430 multipliers (on par at 2,160, r = 2)
# and no slower from 4,860 on (on par at 6,048, r = 0).
PCG_MIN_MULTIPLIERS = 4000
# The relative residual of each PCG solve of S.  Over that ladder it leaves
# the residual gate of solve_saddle at <= 4.3e-12, 230x below its 1e-9;
# 1e-7 left 5.4e-10.
PCG_RTOL = 1e-8
PCG_MAX_ITER = 1000


def hybrid_operator(system, a11_blocks, pcg=False):
    """x = H(b): the hybridized solve of K x = b for any right-hand side b.

    K has the element blocks element_block(system, t, a11), a11 the tet's
    matrix in a11_blocks, one stack per block of system.blocks: solve_saddle
    passes system.A_blocks, the inf-sup constant the H(div) Gram stacks of
    assemble_stress_grams.  E_e maps the stress copies of tet e onto their
    multipliers with the signs of system.layout; the owner's copy alone takes
    the stress rows of b and gives the stress value of x.  Each K_e is
    factored (linalg.lu_factor, whose pivot gate names the tet) and inverted.
    H(b) is y_e = K_e^{-1} b_e, g = sum_e E_e y_e, lambda = S^{-1} g and x_e =
    y_e - K_e^{-1} E_e^T lambda: two stacked products per block.  S is
    factored once by linalg.spd_factor, or with pcg=True solved on each call
    by _pcg_solver.
    """
    n_mult, parts = system.layout
    inverses = []
    for (_, tets, _, _), a11, (glob, _, _) in zip(system.blocks, a11_blocks, parts):
        inv = np.empty((len(tets), glob.shape[1], glob.shape[1]))
        for k, t in enumerate(tets):
            try:
                inv[k] = linalg.lu_inverse(linalg.lu_factor(element_block(system, t, a11[k])))
            except linalg.SingularMatrix as exc:
                raise FactorizationBreakdown(
                    f"element block of tet {t} is singular: {exc}"
                ) from exc
        inverses.append(inv)
    S = _multiplier_system(n_mult, parts, inverses)
    try:
        S_solve = _pcg_solver(system, S, inverses) if pcg else linalg.spd_factor(S).solve
    except linalg.SingularMatrix as exc:
        raise FactorizationBreakdown(f"multiplier system: {exc}") from exc
    del S                       # the factor path keeps only the factor
    g_ids = np.concatenate([mult.ravel() for _, mult, _ in parts])

    def apply(b):
        ys = [(inv @ np.where(sign >= 0, b[glob], 0.0)[..., None])[..., 0]
              for inv, (glob, _, sign) in zip(inverses, parts)]
        g = np.bincount(g_ids, np.concatenate(
            [(sign * y).ravel() for y, (_, _, sign) in zip(ys, parts)]), n_mult + 1)
        lam = np.append(S_solve(g[:n_mult]), 0.0)           # 0 at the unshared id n_mult
        x = np.empty(len(b))
        for y, inv, (glob, mult, sign) in zip(ys, inverses, parts):       # a tet owns sign >= 0
            x[glob[sign >= 0]] = (y - (inv @ (sign * lam[mult])[..., None])[..., 0])[sign >= 0]
        return x

    return apply


def solve_saddle(system):
    """Hybridized solve of the symmetric indefinite block system.

    x = H(rhs) by hybrid_operator, then one fixed refinement step x += H(rhs
    - K x).  The step and the residual gate apply K by system.matvec, so the
    solve builds neither A, B1, B2 nor full_matrix().  The step is part of
    the solve, not an option: on cube n=1, r=3 with the default convergence
    case one pass leaves a relative residual of 6.6e-9 and the step brings
    it to 2.7e-11.  From PCG_MIN_MULTIPLIERS multipliers on, H solves the
    multiplier system by PCG instead of a factor.  Raises
    FactorizationBreakdown if an element block (named by its tet) or the
    multiplier system does not factor, if PCG does not converge within
    PCG_MAX_ITER iterations, or if the residual gate ||K x - rhs|| / (1 +
    ||rhs||) <= 1e-9 fails.
    """
    rhs = system.full_rhs()
    H = hybrid_operator(system, system.A_blocks, pcg=system.layout[0] >= PCG_MIN_MULTIPLIERS)
    x = H(rhs)
    x += H(rhs - system.matvec(x))
    resid = np.linalg.norm(system.matvec(x) - rhs) / (1.0 + np.linalg.norm(rhs))
    if not np.isfinite(resid) or resid > 1e-9:
        raise FactorizationBreakdown(f"algebraic residual {resid:.3e}")
    return split_solution(system, x)


def split_solution(system, x):
    """(sigma_h, u_h, p_h) DiscreteFields from a solution vector."""
    d, degs = system.dofmap, [int(r) for r in system.orders.tet_orders]
    fields = [system.space.field(x[:d.n_stress])]
    for offset in (d.n_stress, d.n_stress + d.n_disp):    # rotation ids equal displacement ones
        coeffs = system._per_tet([x[offset + ud].reshape(len(tets), 3, -1)
                                  @ ps.volume_modes(ro.tet)[:, 0, :]
                                  for ro, tets, _, ud in system.blocks])
        fields.append(DiscreteField(system.mesh, system.orders, "compose", degs, coeffs, "p3_vec"))
    return tuple(fields)


# ---------------------------------------------------------------------------
# manufactured cases

@dataclass
class ManufacturedCase:
    """Exact solution data differentiated from a displacement's formulas.

    from_displacement takes u as formula strings (expr.parse's grammar) and
    builds sigma = 2 mu eps(u) + lambda tr(eps(u)) I, p = axial(skew grad u)
    and f = div sigma as expr trees from the derivative trees of u.
    """

    material: object
    u: FieldSample
    sigma: FieldSample
    p: FieldSample
    f: FieldSample
    zero_boundary: bool

    @staticmethod
    def from_displacement(u_exprs, material, zero_boundary=False):
        u = [expr.parse(e) for e in u_exprs]
        grad = [[expr.diff(ui, v) for v in expr.VARIABLES] for ui in u]
        eps = [[expr.mul(0.5, expr.add(grad[i][j], grad[j][i])) for j in range(3)]
               for i in range(3)]
        lam, mu = material.lame_lambda, material.lame_mu
        tr_eps = expr.add(expr.add(eps[0][0], eps[1][1]), eps[2][2])
        sigma = [
            [expr.add(expr.mul(2 * mu, eps[i][j]), expr.mul(lam, tr_eps) if i == j else 0)
             for j in range(3)]
            for i in range(3)
        ]
        skw = [[expr.mul(0.5, expr.sub(grad[i][j], grad[j][i])) for j in range(3)]
               for i in range(3)]
        # axial vector of the skew part
        p = [skw[2][1], skw[0][2], skw[1][0]]
        f = [expr.add(expr.add(expr.diff(row[0], "x"), expr.diff(row[1], "y")),
                      expr.diff(row[2], "z"))
             for row in sigma]

        def field(trees):
            return FieldSample.from_trees(np.array(trees, dtype=object))

        return ManufacturedCase(
            material=material, u=field(u), sigma=field(sigma), p=field(p), f=field(f),
            zero_boundary=zero_boundary,
        )

    @staticmethod
    def sine_cube(material):
        """Smooth displacement vanishing on the unit-cube boundary."""
        e = "sin(pi*x)*sin(pi*y)*sin(pi*z)"
        return ManufacturedCase.from_displacement([e, e, e], material, zero_boundary=True)

    @staticmethod
    def constant_stress(material, eps_matrix=None):
        """Linear displacement: constant stress and rotation, zero load."""
        if eps_matrix is None:
            eps_matrix = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.5]])
        rows = []
        for i in range(3):
            rows.append(
                f"({eps_matrix[i][0]})*x + ({eps_matrix[i][1]})*y + ({eps_matrix[i][2]})*z"
            )
        return ManufacturedCase.from_displacement(rows, material, zero_boundary=False)


def solve_case(mesh, orders, case):
    """Assemble and solve the discrete system for a manufactured case."""
    g = None if case.zero_boundary else case.u
    system = assemble(mesh, orders, case.material, case.f, boundary_g=g)
    return system, solve_saddle(system)


@dataclass
class ErrorNorms:
    sigma_l2: float
    sigma_hdiv: float
    u_l2: float
    p_l2: float

    @property
    def total(self):
        return self.sigma_hdiv + self.u_l2 + self.p_l2


def error_norms(mesh, orders, solution, case, quad_deg=None):
    """Norm gaps between the discrete triple and the exact fields.

    Each norm is interp.l2_norm of the exact field minus the discrete one.
    quad_deg (default 2 r_max + 4) is the lowest quadrature degree whose
    result is returned; the degree rises in steps of two until the rules of
    the last two degrees agree on each squared norm to interp.L2_SQ_RTOL
    relative (1e-7 on the norm), or to within the roundoff floor of the
    subtraction.  So the result does not depend on quad_deg beyond that
    tolerance.  Raises quadrature.DegreeTooHigh if the rules still disagree
    at quadrature.MAX_DEGREE.
    """
    sigma_h, u_h, p_h = solution
    rmax = int(orders.tet_orders.max())
    qd = 2 * rmax + 4 if quad_deg is None else quad_deg
    s_l2 = interp.l2_norm(mesh, case.sigma, qd, minus=sigma_h)
    div_err = interp.l2_norm(mesh, case.f, qd, minus=interp.field_divergence(sigma_h))
    return ErrorNorms(
        sigma_l2=s_l2,
        sigma_hdiv=float(np.hypot(s_l2, div_err)),
        u_l2=interp.l2_norm(mesh, case.u, qd, minus=u_h),
        p_l2=interp.l2_norm(mesh, case.p, qd, minus=p_h),
    )


EXPORT_SAMPLE_DEG = 2      # degree of the rule whose points export_solution samples per tet


def export_solution(prefix, mesh, orders, solution):
    """Text dump of coefficients plus a CSV of sampled field values."""
    sigma_h, u_h, p_h = solution
    with open(f"{prefix}_coeffs.txt", "w") as fh:
        fh.write("afw3d-solution v1\n")
        for name, fld in (("sigma", sigma_h), ("u", u_h), ("p", p_h)):
            fh.write(f"field {name}\n")
            for t in range(mesh.n_tets):
                row = " ".join(repr(float(v)) for v in fld.coeffs[t].ravel())
                fh.write(f"{t} {row}\n")
    rule = quadrature.rule_for(3, EXPORT_SAMPLE_DEG)
    lines = ["tet,x,y,z," + ",".join(f"sigma_{i}{j}" for i in range(3) for j in range(3))
             + ",u_0,u_1,u_2,p_0,p_1,p_2"]
    for t in range(mesh.n_tets):
        pts = mesh.amaps[t].apply(rule.points)
        sv = sigma_h.evaluate_ref(t, rule.points).reshape(len(pts), -1)
        uv = u_h.evaluate_ref(t, rule.points)
        pv = p_h.evaluate_ref(t, rule.points)
        for q in range(len(pts)):
            vals = [t] + list(pts[q]) + list(sv[q]) + list(uv[q]) + list(pv[q])
            lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals))
    with open(f"{prefix}_samples.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
