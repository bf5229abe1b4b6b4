"""Quaternionic triples on R^(4n) and the induced operator calculus.

A structure is a pair of anticommuting orthogonal complex structures I, J
(K = IJ), the Kaehler 2-forms w_A(x,y) = <x, A y>, and the fundamental 4-form
Omega = w_I^w_I + w_J^w_J + w_K^w_K.  On (0,s)-tensors the slot operators are

    A_(i) b (X_1..X_s) = -b(X_1, .., A X_i, .., X_s)
    A b    (X_1..X_s) = (-1)^s b(A X_1, .., A X_s)
    i_A b             = (A_(1) + ... + A_(s)) b

and the two key endomorphisms are

    L(b)   = sum_A sum_{i<j} A_(i) A_(j) b          on p-forms,
    Lcal(a) = sum_A A_(1) (A_(2) + .. + A_(5)) a    on V* (x) Lambda^4.

Slot derivations are kept as the nonzeros of ``der_table``; the structure
instance caches its operators and is otherwise immutable.
"""

from __future__ import annotations

import math

import numpy as np

from .exterior import (
    AltForm,
    MixedTorsion,
    SparseOp,
    compose,
    compound,
    hodge,
    hodge_op,
    tables,
    wedge,
    wedge_op,
    wedge_power,
)

AXES = ("I", "J", "K")


class StructureError(ValueError):
    """Raised for inputs that do not define a quaternionic structure."""


def insert(A: np.ndarray, slot: int, t: np.ndarray) -> np.ndarray:
    """Slot insertion A_(slot) on a dense (0,s)-tensor, slot counted from 1."""
    t = np.asarray(t, dtype=float)
    s = t.ndim
    if not 1 <= slot <= s:
        raise StructureError(f"slot {slot} out of range for a (0,{s})-tensor")
    out = np.tensordot(t, np.asarray(A, dtype=float), axes=(slot - 1, 0))
    return -np.moveaxis(out, -1, slot - 1)


def slot_sum(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """i_A on a dense (0,s)-tensor: the sum of all slot insertions."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for i in range(1, t.ndim + 1):
        out += insert(A, i, t)
    return out


class QuatStructure:
    """Immutable triple (I, J, K) with derived forms and cached operators."""

    def __init__(self, n: int, I: np.ndarray, J: np.ndarray,
                 K: np.ndarray | None = None, tol: float = 1e-12):
        if n < 2:
            raise StructureError("quaternionic structures need n >= 2")
        self.n = int(n)
        self.dim = 4 * self.n
        self.k1 = self.n - 1
        self.k2 = 2 * self.n + 1
        I = np.asarray(I, dtype=float)
        J = np.asarray(J, dtype=float)
        if I.shape != (self.dim, self.dim) or J.shape != (self.dim, self.dim):
            raise StructureError("I, J must be 4n x 4n matrices")
        if K is None:
            K = I @ J
        else:
            K = np.asarray(K, dtype=float)
        eye = np.eye(self.dim)
        checks = {
            "I^2 = -1": I @ I + eye,
            "J^2 = -1": J @ J + eye,
            "K = IJ": K - I @ J,
            "IJ = -JI": I @ J + J @ I,
            "I orthogonal": I.T @ I - eye,
            "J orthogonal": J.T @ J - eye,
        }
        for name, resid in checks.items():
            err = float(np.abs(resid).max())
            if not err <= tol:
                raise StructureError(
                    f"not a quaternionic structure: {name} fails ({err:.2e})")
        self.I, self.J, self.K = I, J, K
        self.mats = {"I": I, "J": J, "K": K}
        # Kaehler forms: w_A(e_i, e_j) = <e_i, A e_j> = A[i, j]
        self.omega = {a: AltForm.from_dense(m) for a, m in self.mats.items()}
        self.Omega = sum(
            (wedge(self.omega[a], self.omega[a]) for a in AXES),
            AltForm.zero(self.dim, 4),
        )
        # Vol = ((-1)^(n+1) / (2n+1)!) Omega^n must be a unit top form
        top = wedge_power(self.Omega, self.n)
        v = float(top.coeffs[0]) * (-1.0) ** (self.n + 1) / math.factorial(
            2 * self.n + 1)
        if not abs(abs(v) - 1.0) <= 1e-9:
            raise StructureError(
                f"Omega^n does not give a unit volume form (got {v})")
        self.vol_coeff = v
        self._cache: dict = {}

    # -- caching ---------------------------------------------------------

    def cache(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def tab(self):
        return tables(self.dim)

    def star(self, a: AltForm) -> AltForm:
        return hodge(a, self.vol_coeff)

    def star_inv(self, a: AltForm) -> AltForm:
        """Inverse star, star(star_inv(a)) = a: the transposed star."""
        q = self.dim - a.degree
        return AltForm(self.dim, q,
                       hodge_op(self.dim, q, self.vol_coeff).T(a.coeffs))

    def volume_form(self) -> AltForm:
        top = AltForm.zero(self.dim, self.dim)
        top.coeffs[0] = self.vol_coeff
        return top

    # -- operator matrices on coefficient vectors -------------------------

    def deriv_op(self, p: int) -> SparseOp:
        """The stack D (3 N_p x N_p) of the derivations D_A: b -> sum_i
        b(.., A X_i, ..) on degree p, b -> (D_I b, D_J b, D_K b); a
        der_table row (flat, s, sign) adds A[z, r] sign at (t, s) of D_A,
        flat = (z dim + r) N_p + t.  D_A^T = -D_A."""

        def build():
            flat, s, sign = self.tab.der_table(p)
            N = self.tab.nforms(p)
            zr, t = np.divmod(flat, N)
            v = np.stack([self.mats[a].ravel()[zr] * sign for a in AXES])
            k, i = np.nonzero(v != 0)   # on a bool mask: 3x faster
            return SparseOp(k * N + t[i], s[i], v[k, i], (3 * N, N))

        return self.cache(("deriv", p), build)

    def i_axis(self, axis: str, a: AltForm) -> AltForm:
        if a.degree == 0:
            return a * 0.0
        D = self.deriv_op(a.degree)(a.coeffs).reshape(3, -1)
        return AltForm(self.dim, a.degree, -D[AXES.index(axis)])

    def L_apply(self, p: int, x: np.ndarray) -> np.ndarray:
        """L = 3p/2 - D^T D/2 on the last axis of degree-p coefficients, as
        sum_{i<j} A_(i)A_(j) = (i_A^2 + p)/2 on forms (pinned by tests)."""
        D = self.deriv_op(p)
        DtD = self.cache(("DtD", p), lambda: compose(D.T, D))
        return 1.5 * p * x - 0.5 * DtD(x)

    def L_matrix(self, p: int) -> np.ndarray:
        """Matrix of L on Lambda^p, assembled from the dense D."""

        def build():
            D = self.deriv_op(p).dense()
            return 3 * p / 2 * np.eye(D.shape[1]) - 0.5 * (D.T @ D)

        return self.cache(("L", p), build)

    def L_map(self, b: AltForm) -> AltForm:
        if b.degree < 2:
            return b * 0.0
        return AltForm(self.dim, b.degree, self.L_apply(b.degree, b.coeffs))

    def lcal_raw(self, a: MixedTorsion) -> MixedTorsion:
        """Lcal without the membership precondition (internal use)."""
        # i_A = -D_A on the form part of each row, then A mixes the rows
        D = self.deriv_op(4)(a.rows).reshape(self.dim, 3, -1)
        return MixedTorsion(self.dim, -sum(
            self.mats[axis] @ D[:, k] for k, axis in enumerate(AXES)))

    def lcal(self, a: MixedTorsion, tol: float = 1e-8) -> MixedTorsion:
        """Lcal on the intrinsic-torsion space; MembershipError off it."""
        from .torsion import require_in_W

        require_in_W(a, self, tol)
        return self.lcal_raw(a)

    # -- fixed-factor wedges ----------------------------------------------

    def ae_factors(self, p: int) -> tuple[SparseOp, SparseOp]:
        """(W, D) with sum_A i_A(b) ^ w_A = -W D b on degree p: W is the
        wedge_op of w_I, w_J, w_K side by side, D = deriv_op(p)."""

        def build():
            N = self.tab.nforms(p)
            ops = [wedge_op(self.omega[a], p) for a in AXES]
            r, c, v = (np.concatenate(x) for x in zip(
                *((w.r, k * N + w.c, w.v) for k, w in enumerate(ops))))
            W = SparseOp(r, c, v, (ops[0].shape[0], 3 * N))
            return W, self.deriv_op(p)

        return self.cache(("ae", p), build)

    def act_axis(self, axis: str, b: AltForm) -> AltForm:
        """b(A ., .., A .) = (-1)^p C b for p-forms, with C the p-th compound
        of A, the matrix of b -> b(A^T ., .., A^T .)."""
        p = b.degree
        C = self.cache(("pullback", p), lambda: compound(
            np.stack([self.mats[a] for a in AXES]), p))[AXES.index(axis)]
        return AltForm(self.dim, p, ((-1.0) ** p) * (C @ b.coeffs))


def standard_structure(n: int) -> QuatStructure:
    """Left multiplication by i, j on H^n in the ordered real basis
    (e_1..e_n, I e_1..I e_n, J e_1..J e_n, K e_1..K e_n)."""
    if n < 2:
        raise StructureError("the quaternionic setting needs n > 1")
    dim = 4 * n
    I = np.zeros((dim, dim))
    J = np.zeros((dim, dim))
    for a in range(n):
        e, ie, je, ke = a, n + a, 2 * n + a, 3 * n + a
        # i: e -> Ie -> -e,  Je -> Ke -> -Je
        I[ie, e] = 1.0
        I[e, ie] = -1.0
        I[ke, je] = 1.0
        I[je, ke] = -1.0
        # j: e -> Je -> -e,  Ie -> -Ke,  Ke -> Ie
        J[je, e] = 1.0
        J[e, je] = -1.0
        J[ke, ie] = -1.0
        J[ie, ke] = 1.0
    return QuatStructure(n, I, J)


def rotate_adapted(q: np.ndarray, s: QuatStructure) -> QuatStructure:
    """Change of adapted basis by q in SO(3): A'_i = sum_j q_ij A_j."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3) or not np.abs(q.T @ q - np.eye(3)).max() <= 1e-10:
        raise StructureError("q must be a 3x3 orthogonal matrix")
    if np.linalg.det(q) < 0:
        raise StructureError("q must be special orthogonal (det +1)")
    A = [s.I, s.J, s.K]
    newI = sum(q[0, j] * A[j] for j in range(3))
    newJ = sum(q[1, j] * A[j] for j in range(3))
    out = QuatStructure(s.n, newI, newJ)
    if np.abs(out.Omega.coeffs - s.Omega.coeffs).max() > 1e-10:
        raise StructureError("fundamental form changed under rotation")
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(3) matrix via QR with positive diagonal."""
    M = rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(M)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


def structure_to_json(s: QuatStructure) -> dict:
    return {"n": s.n, "I": s.I.tolist(), "J": s.J.tolist()}


def structure_from_json(data) -> QuatStructure:
    if data == "standard":
        raise StructureError("'standard' shorthand needs an n to go with it")
    if isinstance(data, dict) and data.get("I") is None:
        return standard_structure(int(data["n"]))
    return QuatStructure(int(data["n"]), np.asarray(data["I"]),
                         np.asarray(data["J"]))
