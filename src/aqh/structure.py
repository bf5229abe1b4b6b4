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

The unit volume form is Vol = ((-1)^(n+1) / (2n+1)!) Omega^n.  Its sign
vol_coeff, which fixes the Hodge star, is read from the orientation of a
frame (x_1, I x_1, .., x_2n, I x_2n) when a star first needs it, so no
structure forms Omega^n; verify certifies the two readings agree.  Slot
derivations are kept as their nonzeros (``exterior.derivation_stack``); the
structure instance caches its operators, and through ``form_cache`` the
maps of its own forms Omega, (w_I, w_J, w_K) and star Omega, and is
otherwise immutable: it holds its own read-only stack IJK of I, J, K and
the coefficients of those forms.  standard_structure returns one shared
instance per n, so its caches live for the process.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .exterior import (
    AltForm,
    InputFormatError,
    MixedTorsion,
    SparseOp,
    _json_n,
    derivation_stack,
    hodge_op,
    tables,
    wedge_coeffs,
    wedge_op,
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


def _frame_sign(I: np.ndarray, J: np.ndarray, K: np.ndarray) -> float:
    """sign det of an orthonormal frame (v_1, I v_1, J v_1, K v_1, .., K v_n),
    an (x, I x) frame with x = v, J v: Gram-Schmidt over the standard basis,
    v_k the basis vector farthest from the I, J, K-invariant span so far."""
    dim = len(I)
    M = np.stack([np.eye(dim), I, J, K])
    R, B = np.eye(dim), np.empty((dim // 4, 4, dim))
    for k in range(dim // 4):
        p = np.argmax(R.diagonal())
        B[k] = M @ (R[p] / np.sqrt(R[p, p]))
        R -= B[k].T @ B[k]
    return float(np.sign(np.linalg.det(B.reshape(dim, dim))))


def quaternionic_K(I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """K = IJ for stacks (..., dim, dim) of I and J; StructureError unless
    every pair is a quaternionic structure: I^2 = J^2 = -1, IJ = -JI and I,
    J orthogonal, each to 1e-12 over the whole stack."""
    eye = np.eye(I.shape[-1])
    # huge or non-finite entries give inf or nan residuals, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        K = I @ J
        checks = {
            "I^2 = -1": I @ I + eye,
            "J^2 = -1": J @ J + eye,
            "IJ = -JI": K + J @ I,
            "I orthogonal": np.swapaxes(I, -1, -2) @ I - eye,
            "J orthogonal": np.swapaxes(J, -1, -2) @ J - eye,
        }
    for name, resid in checks.items():
        err = float(np.abs(resid).max())
        if not err <= 1e-12:
            raise StructureError(
                f"not a quaternionic structure: {name} fails ({err:.2e})")
    return K


def fundamental_forms(IJK: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, Omega) of a stack IJK (..., 3, dim, dim) of triples: the Kaehler
    forms w_A(e_i, e_j) = <e_i, A e_j> = A[i, j] (..., 3, N2) and
    Omega = w_I ^ w_I + w_J ^ w_J + w_K ^ w_K (..., N4), one wedge_coeffs
    pass over the stack."""
    dim = IJK.shape[-1]
    w = IJK[(..., *tables(dim).columns(2))]
    sq = wedge_coeffs(w, w, dim, 2, 2)
    return w, sq[..., 0, :] + sq[..., 1, :] + sq[..., 2, :]


class QuatStructure:
    """Immutable triple (I, J, K) with derived forms and cached operators."""

    def __init__(self, n: int, I: np.ndarray, J: np.ndarray):
        if n < 2:
            raise StructureError("quaternionic structures need n >= 2")
        self.n = int(n)
        self.dim = 4 * self.n
        self.k1 = self.n - 1
        self.k2 = 2 * self.n + 1
        I = np.array(I, dtype=float)
        J = np.array(J, dtype=float)
        if I.shape != (self.dim, self.dim) or J.shape != (self.dim, self.dim):
            raise StructureError("I, J must be 4n x 4n matrices")
        self.IJK = np.array([I, J, quaternionic_K(I, J)])
        self.IJK.flags.writeable = False
        self.I, self.J, self.K = self.IJK
        self.mats = dict(zip(AXES, self.IJK))
        w, Omega = fundamental_forms(self.IJK)
        w.flags.writeable = Omega.flags.writeable = False
        self.omega = {a: AltForm(self.dim, 2, x) for a, x in zip(AXES, w)}
        self.omegas = tuple(self.omega[a] for a in AXES)
        self.Omega = AltForm(self.dim, 4, Omega)
        self._cache: dict = {}

    @cached_property
    def vol_coeff(self) -> float:
        """Vol = vol_coeff e_1 ^ .. ^ e_4n, the unit top form
        ((-1)^(n+1) / (2n+1)!) Omega^n of the orientation of any frame
        (x_1, I x_1, .., x_2n, I x_2n); read when a star first needs it."""
        return (-1.0) ** (self.n + 1) * _frame_sign(self.I, self.J, self.K)

    # -- caching ---------------------------------------------------------

    def cache(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def tab(self):
        return tables(self.dim)

    def star(self, a: AltForm) -> AltForm:
        """Hodge star of a relative to Vol (``hodge_op``)."""
        return AltForm(self.dim, self.dim - a.degree,
                       hodge_op(self.dim, a.degree, self.vol_coeff)(a.coeffs))

    def star_inv(self, a: AltForm) -> AltForm:
        """Inverse star, star(star_inv(a)) = a: the transposed star."""
        q = self.dim - a.degree
        return AltForm(self.dim, q,
                       hodge_op(self.dim, q, self.vol_coeff).T(a.coeffs))

    @cached_property
    def star_Omega(self) -> AltForm:
        """star Omega, read-only like Omega."""
        out = self.star(self.Omega)
        out.coeffs.flags.writeable = False
        return out

    def form_cache(self, kind: str, b, build):
        """build(), cached under (kind, name) when b is the structure's own
        Omega, omegas (w_I, w_J, w_K side by side) or star_Omega, and
        called anew for any other b."""
        for name in ("Omega", "omegas", "star_Omega"):
            if b is getattr(self, name):
                return self.cache((kind, name), build)
        return build()

    # -- operator matrices on coefficient vectors -------------------------

    def deriv_op(self, p: int) -> SparseOp:
        """The stack D (3 N_p x N_p) of the derivations D_A: b -> sum_i
        b(.., A X_i, ..) on degree p, b -> (D_I b, D_J b, D_K b)
        (exterior.derivation_stack of IJK).  D_A^T = -D_A."""
        return self.cache(("deriv", p), lambda: derivation_stack(self.IJK, p))

    def L_apply(self, p: int, x: np.ndarray) -> np.ndarray:
        """L = 3p/2 - D^T D/2 on the last axis of degree-p coefficients, as
        sum_{i<j} A_(i)A_(j) = (i_A^2 + p)/2 on forms (pinned by tests)."""
        D = self.deriv_op(p)
        return 1.5 * p * x - 0.5 * D.T(D(x))

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
        """Lcal on the rows of a; no membership test."""
        # i_A = -D_A on the form part of each row, then A mixes the rows
        D = self.deriv_op(4)(a.rows).reshape(self.dim, 3, -1)
        return MixedTorsion(self.dim, -sum(
            self.mats[axis] @ D[:, k] for k, axis in enumerate(AXES)))

    # -- fixed-factor wedges ----------------------------------------------

    def ae_factors(self, p: int) -> tuple[SparseOp, SparseOp]:
        """(W, D) with sum_A i_A(b) ^ w_A = -W D b on degree p: W is the
        wedge_op of w_I, w_J, w_K side by side, D = deriv_op(p)."""

        def build():
            N = self.tab.nforms(p)
            ops = [wedge_op(self.omega[a], p) for a in AXES]
            r, c, v = (np.concatenate(x) for x in zip(
                *((w.r, k * N + w.c, w.v) for k, w in enumerate(ops))))
            return SparseOp(r, c, v, (ops[0].shape[0], 3 * N))

        return self.cache(("ae", p), build), self.deriv_op(p)


# every subcommand and the verify suite build structures for n = 2 up to
# this.  Above n = 2 only verify's volume-normalization (Omega^n) and the
# direct dOmega routes (classify.dOmega_op, Omega^(n-2)) wedge with powers of
# Omega; at n = 5 both form Omega^3 = Omega^2 ^ Omega by wedge_table(8, 4):
# 62.4M rows, 1.86 GiB
MAX_N = 4


@lru_cache(maxsize=None)
def standard_structure(n: int) -> QuatStructure:
    """Left multiplication by i, j on H^n in the ordered real basis
    (e_1..e_n, I e_1..I e_n, J e_1..J e_n, K e_1..K e_n): one shared,
    read-only instance per n.  standard_structure.__wrapped__(n) builds a
    fresh one, with empty caches."""
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


def rotated_pair(q: np.ndarray, s: QuatStructure) -> list[np.ndarray]:
    """(I', J') of the change of adapted basis by each q (..., 3, 3):
    A'_i = sum_j q_ij A_j, as stacks (..., dim, dim)."""
    return [sum(q[..., i, j, None, None] * s.IJK[j] for j in range(3))
            for i in (0, 1)]


def rotate_adapted(q: np.ndarray, s: QuatStructure) -> QuatStructure:
    """Change of adapted basis by q in SO(3): A'_i = sum_j q_ij A_j."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3) or not np.abs(q.T @ q - np.eye(3)).max() <= 1e-10:
        raise StructureError("q must be a 3x3 orthogonal matrix")
    if np.linalg.det(q) < 0:
        raise StructureError("q must be special orthogonal (det +1)")
    out = QuatStructure(s.n, *rotated_pair(q, s))
    if np.abs(out.Omega.coeffs - s.Omega.coeffs).max() > 1e-10:
        raise StructureError("fundamental form changed under rotation")
    return out


def _haar_rotations(M: np.ndarray) -> np.ndarray:
    """Haar-ish SO(3) matrices (..., 3, 3) from standard normal ones: Q of
    the QR of each M with the diagonal of R made positive, its first two
    columns swapped where det Q < 0."""
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]
    flip = np.linalg.det(Q) < 0
    Q[flip, :, :2] = Q[flip, :, 1::-1]
    return Q


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(3) matrix via QR with positive diagonal."""
    return _haar_rotations(rng.standard_normal((3, 3)))


def structure_from_json(data, n: int) -> QuatStructure:
    """The structure of a JSON object {"n", "I", "J"}, the standard one when
    I is absent.  n is the n of the enclosing file, and the structure's own
    n must equal it."""
    if not isinstance(data, dict):
        raise InputFormatError(f"key 'structure': {data!r:.40} is not an "
                               "object")
    own = _json_n(data, "structure.n")
    if own != n:
        raise InputFormatError(f"key 'structure.n': {own} differs from the "
                               f"file's n = {n}")
    if data.get("I") is None:
        return standard_structure(own)
    mats = []
    for key in "IJ":
        M = data.get(key)
        try:
            # JSON numbers only: asarray would read "1" and true as 1.0
            if not (isinstance(M, list) and all(
                    isinstance(r, list) and {*map(type, r)} <= {int, float}
                    for r in M)):
                raise TypeError
            mats.append(np.asarray(M, dtype=float))
        except (TypeError, ValueError, OverflowError):
            raise InputFormatError(f"key 'structure.{key}': not a matrix of "
                                   "numbers") from None
        if mats[-1].shape != (4 * own, 4 * own):
            raise InputFormatError(f"key 'structure.{key}': not a "
                                   f"{4 * own} x {4 * own} matrix")
    return QuatStructure(own, *mats)
