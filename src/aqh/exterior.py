"""Dense exterior algebra over Euclidean R^dim.

A degree-p alternating form is stored as the vector of its values on strictly
increasing index tuples, in lexicographic order.  Evaluation on arbitrary
arguments is recovered through permutation signs.  Conventions:

* wedge is the shuffle sum, no factorial normalisation:
  (a ^ b)(X_1..X_{p+q}) = sum over (p,q)-shuffles s of sgn(s) a(...) b(...);
* the inner product of two p-forms is the sum over increasing tuples of
  products of coefficients, i.e. (1/p!) times the full tensor contraction;
* the Hodge star is defined by  psi ^ *a = <psi, a> Vol  for every psi of the
  same degree as a, where Vol is the chosen unit volume form.

Mixed tensors with one covariant slot followed by an alternating part are kept
as one coefficient row per first-slot basis vector.

Every operator is read from one split table, ``wedge_table(p, q)``: each
increasing (p+q)-tuple splits into a p-part and a q-part with a sign, and
``wedge`` sums over the splits.  The other incidences are views of it:

* ``exp_table(p)`` is the (1, p-1) split (dropping entry r of p-tuple #u
  leaves (p-1)-tuple #t, with a sign).  Interior products and contractions
  accumulate into t, one-form wedges (``wedge_rows``) into u, and slot
  derivations pair the rows through one t (``der_table``);
* ``hodge_op(dim, p, .)`` reads the (p, dim-p) split of the top tuple: the
  complement of each p-tuple, with the sign of the concatenation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class DegreeError(ValueError):
    """Raised when form degrees do not fit the requested operation."""


class InputFormatError(ValueError):
    """Raised for JSON input that breaks a format rule, naming the key."""


# ---------------------------------------------------------------------------
# combinatorial tables (independent of any quaternionic structure)
# ---------------------------------------------------------------------------


# bit i stands for index i in the subset masks of ``FormTables._rank``
_BIT = 1 << np.arange(63, dtype=np.int64)


class FormTables:
    """Index tables for increasing tuples of a fixed dimension.

    Everything here is pure combinatorics of subsets of {0..dim-1}; the tables
    are built lazily per degree and shared process-wide through ``tables``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._tuples: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._columns: dict[int, np.ndarray] = {}
        self._exp: dict[int, tuple[np.ndarray, ...]] = {}
        self._wedge: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._der: dict[int, tuple[np.ndarray, ...]] = {}
        self._dense: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def nforms(self, p: int) -> int:
        return math.comb(self.dim, p)

    def tuples(self, p: int):
        if p not in self._tuples:
            self._tuples[p] = tuple(itertools.combinations(range(self.dim), p))
        return self._tuples[p]

    def columns(self, p: int) -> np.ndarray:
        """The p-tuples as a read-only (p, N_p) integer array: row k holds
        the k-th entry of every tuple."""
        if p not in self._columns:
            cols = np.asarray(self.tuples(p), dtype=np.int64).reshape(
                self.nforms(p), p).T
            cols = np.ascontiguousarray(cols)
            cols.flags.writeable = False
            self._columns[p] = cols
        return self._columns[p]

    def index(self, p: int):
        if p not in self._index:
            self._index[p] = {T: i for i, T in enumerate(self.tuples(p))}
        return self._index[p]

    def _rank(self, p: int, masks: np.ndarray) -> np.ndarray:
        """Numbers of the p-tuples with the given bit masks (bit i set for
        entry i).  The masks fit in int64 only for dim <= 63."""
        ref = _BIT[self.columns(p)].sum(axis=0)
        order = np.argsort(ref)
        return order[np.searchsorted(ref[order], masks)]

    def wedge_table(self, p: int, q: int):
        """Rows (o, ai, bi, sign) with e_O = sum sign * e_A ^ e_B over all
        splits of the (p+q)-tuple #o into a p-part #ai and q-part #bi.  Rows
        run over o, then over the splits in lexicographic order of the
        p-part positions; that order is what every view below relies on."""
        key = (p, q)
        if key not in self._wedge:
            S = math.comb(p + q, p)
            pos = np.array(list(itertools.combinations(range(p + q), p)),
                           dtype=np.int64).reshape(S, p)
            # part[k, s] = 1 iff position k is in the p-part of split s
            part = np.zeros((p + q, S), dtype=np.int64)
            part[pos.T, np.arange(S)] = 1
            bits = _BIT[self.columns(p + q)]
            a = (bits.T @ part).ravel()
            b = np.repeat(bits.sum(axis=0), S) - a
            odd = (pos.sum(axis=1) - p * (p - 1) // 2) % 2
            o = np.repeat(np.arange(bits.shape[1]), S)
            sign = np.tile(np.where(odd, -1.0, 1.0), bits.shape[1])
            self._wedge[key] = (o, self._rank(p, a), self._rank(q, b), sign)
        return self._wedge[key]

    def exp_table(self, p: int):
        """Rows (u, m, r, t, sign): dropping position m (value r) from the
        p-tuple #u leaves the (p-1)-tuple #t, with sign (-1)^m.  It is the
        (1, p-1) split of ``wedge_table`` with the position m added.

        Drives every slot operator (see the module docstring)."""
        if p not in self._exp:
            u, r, t, sign = self.wedge_table(1, p - 1)
            self._exp[p] = (u, np.arange(u.size) % p, r, t, sign)
        return self._exp[p]

    def der_table(self, p: int):
        """Rows (flat, s, sign) so that the matrix of the slot-derivation
        b -> sum_i b(.., M X_i, ..) on degree p is
        D[t, s] += M[z, r] * sign   over all rows, flat = (z dim + r) N_p + t:
        the pairs of ``exp_table(p)`` rows (t, r) and (s, z) through one
        (p-1)-tuple."""
        if p not in self._der:
            u, _m, r, t, sign = self.exp_table(p)
            # every (p-1)-tuple is reached from dim - p + 1 p-tuples
            order = np.argsort(t, kind="stable")
            U, R, S = (a[order].reshape(-1, self.dim - p + 1, 1)
                       for a in (u, r, sign))
            Ut, Rt, St = (a.swapaxes(1, 2) for a in (U, R, S))
            t, s, z, r, sign = (a.ravel() for a in np.broadcast_arrays(
                U, Ut, Rt, R, S * St))
            self._der[p] = ((z * self.dim + r) * self.nforms(p) + t, s, sign)
        return self._der[p]

    def dense_table(self, p: int):
        """(flat, sign): flat[k] are the raveled positions of the k-th
        permutation image of every increasing tuple, sign[k] its parity."""
        if p not in self._dense:
            perms = np.array(list(itertools.permutations(range(p))),
                             dtype=np.int64).reshape(math.factorial(p), p)
            flat = (self.columns(p)[perms]
                    * self.dim ** np.arange(p - 1, -1, -1)[:, None]).sum(1)
            inv = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum((1, 2))
            self._dense[p] = (flat, (-1.0) ** inv)
        return self._dense[p]


@lru_cache(maxsize=None)
def tables(dim: int) -> FormTables:
    return FormTables(dim)


# ---------------------------------------------------------------------------
# alternating forms
# ---------------------------------------------------------------------------


@dataclass
class AltForm:
    """Alternating (0,p)-tensor on R^dim, dense coefficients over increasing
    tuples in lexicographic order."""

    dim: int
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = math.comb(self.dim, self.degree)
        if self.coeffs.shape != (expected,):
            raise DegreeError(
                f"degree-{self.degree} form on R^{self.dim} needs "
                f"{expected} coefficients, got shape {self.coeffs.shape}"
            )

    @classmethod
    def zero(cls, dim: int, degree: int) -> "AltForm":
        return cls(dim, degree, np.zeros(math.comb(dim, degree)))

    @classmethod
    def basis(cls, dim: int, idx: tuple[int, ...]) -> "AltForm":
        """The form e^{i1} ^ ... ^ e^{ip} for an increasing tuple."""
        p = len(idx)
        c = np.zeros(math.comb(dim, p))
        c[tables(dim).index(p)[tuple(idx)]] = 1.0
        return cls(dim, p, c)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "AltForm":
        """Read off an already-alternating dense tensor."""
        dense = np.asarray(dense, dtype=float)
        p = dense.ndim
        dim = dense.shape[0] if p else 1
        if p == 0:
            raise DegreeError("scalars are not stored as AltForm")
        return cls(dim, p, dense[tuple(tables(dim).columns(p))])

    def dense(self) -> np.ndarray:
        """Full (0,p) tensor with all permutation images filled in."""
        flat, sign = tables(self.dim).dense_table(self.degree)
        out = np.zeros(self.dim ** self.degree)
        out[flat] = sign[:, None] * self.coeffs
        return out.reshape((self.dim,) * self.degree)

    def __call__(self, *vectors: np.ndarray) -> float:
        if len(vectors) != self.degree:
            raise DegreeError("wrong number of arguments")
        out = self.dense()
        for v in vectors:
            out = np.tensordot(np.asarray(v, dtype=float), out, axes=(0, 0))
        return float(out)

    def norm(self) -> float:
        return math.sqrt(self.coeffs @ self.coeffs)

    def _like(self, coeffs: np.ndarray) -> "AltForm":
        return AltForm(self.dim, self.degree, coeffs)

    def __add__(self, other: "AltForm") -> "AltForm":
        self._check_same(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "AltForm") -> "AltForm":
        self._check_same(other)
        return self._like(self.coeffs - other.coeffs)

    def __neg__(self) -> "AltForm":
        return self._like(-self.coeffs)

    def __mul__(self, scalar: float) -> "AltForm":
        return self._like(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_same(self, other: "AltForm"):
        if self.dim != other.dim or self.degree != other.degree:
            raise DegreeError("mismatched forms")


def wedge(a: AltForm, b: AltForm) -> AltForm:
    if a.dim != b.dim:
        raise DegreeError("forms live on different spaces")
    p, q = a.degree, b.degree
    if p + q > a.dim:
        raise DegreeError(f"wedge degree {p}+{q} exceeds dimension {a.dim}")
    o, ai, bi, sign = tables(a.dim).wedge_table(p, q)
    vals = sign * a.coeffs[ai] * b.coeffs[bi]
    out = np.bincount(o, weights=vals, minlength=math.comb(a.dim, p + q))
    return AltForm(a.dim, p + q, out)


class SparseOp(NamedTuple):
    """A fixed matrix kept as index triples: v[k] is added at (r[k], c[k])."""

    r: np.ndarray
    c: np.ndarray
    v: np.ndarray
    shape: tuple[int, int]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The product with x along its last axis, (..., n) -> (..., m)."""
        return _accumulate(self.r, self.v * x.take(self.c, -1), self.shape[0])

    @property
    def T(self) -> "SparseOp":
        return SparseOp(self.c, self.r, self.v, self.shape[::-1])

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        """The product, one triple per nonzero: entry (i, k) of self meets
        each entry (k, j) of other, and products at one (i, j) are summed."""
        order = np.argsort(other.r, kind="stable")
        cnt = np.bincount(other.r, minlength=other.shape[0])
        k = cnt[self.c]
        i = np.repeat(np.arange(len(k)), k)
        # the partners of entry i sit at order[first[c_i]:][:k_i]
        first = (np.cumsum(cnt) - cnt)[self.c]
        j = order[np.arange(len(i)) + np.repeat(first - np.cumsum(k) + k, k)]
        n = other.shape[1]
        key, at = np.unique(self.r[i] * n + other.c[j], return_inverse=True)
        return SparseOp(key // n, key % n,
                        np.bincount(at, weights=self.v[i] * other.v[j]),
                        (self.shape[0], n))

    def dense(self) -> np.ndarray:
        m, n = self.shape
        return np.bincount(self.r * n + self.c, weights=self.v,
                           minlength=m * n).reshape(m, n)


def compose(A: SparseOp, B: SparseOp):
    """x -> A(B(x)): one pass of the operator A @ B where forming it takes at
    most 4 products per nonzero of A and B (then it has at most 4 times
    their nonzeros; 0.4-1.6 times for the slot operators of the standard
    frame), else B then A.  Forming A @ B takes sum_k |column k of A|
    |row k of B| products."""
    work = (np.bincount(A.c, minlength=A.shape[1])
            @ np.bincount(B.r, minlength=B.shape[0]))
    if work <= 4 * (len(A.v) + len(B.v)):
        return A @ B
    return lambda x: A(B(x))


def wedge_op(b: AltForm, p: int) -> SparseOp:
    """x -> x ^ b from degree p to p+q for a fixed q-form b: the nonzeros of
    its ``wedge_table`` rows, one per matrix entry."""
    tab = tables(b.dim)
    o, ai, bi, sign = tab.wedge_table(p, b.degree)
    v = sign * b.coeffs[bi]
    keep = v != 0
    return SparseOp(o[keep], ai[keep], v[keep],
                    (tab.nforms(p + b.degree), tab.nforms(p)))


def wedge_power(a: AltForm, k: int) -> AltForm:
    """a ^ .. ^ a (k factors); the unit 0-form for k = 0."""
    out = AltForm(a.dim, 0, np.ones(1))
    for _ in range(k):
        out = wedge(out, a)
    return out


def compound(A: np.ndarray, p: int) -> np.ndarray:
    """The p-th compound of a square matrix, or of each in a stack (..., d,
    d): the minors det A[S, T] over increasing p-tuples, by Laplace expansion
    along the first column T_0 of T = T_0 T':
    det A[S, T] = sum_m (-1)^m A[S_m, T_0] det A[S - S_m, T'],
    the terms read off ``exp_table(q)`` for q = 2..p."""
    A = np.asarray(A, dtype=float)
    tab = tables(A.shape[-1])
    C = A if p else np.ones(A.shape[:-2] + (1, 1))
    for q in range(2, p + 1):
        u, m, r, t, sign = tab.exp_table(q)
        # T_0, T' of every q-tuple in order; the q rows of an S are adjacent
        T0, rest = r[m == 0], t[m == 0]
        a = (sign[:, None] * A.take(r, -2)).take(T0, -1)
        a = a.reshape(A.shape[:-2] + (-1, q, len(T0)))
        c = C.take(t, -2).take(rest, -1).reshape(a.shape)
        C = np.einsum("...umj,...umj->...uj", a, c)
    return C


def interior(x: np.ndarray, a: AltForm) -> AltForm:
    """x-slot contraction (x 'hook' a)(...) = a(x, ...)."""
    if a.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    x = np.asarray(x, dtype=float)
    u, _m, r, t, sign = tables(a.dim).exp_table(a.degree)
    out = _accumulate(t, sign * x[r] * a.coeffs[u],
                      math.comb(a.dim, a.degree - 1))
    return AltForm(a.dim, a.degree - 1, out)


def wedge1(x: np.ndarray, b: AltForm) -> AltForm:
    """One-form wedge x^flat ^ b, using the same table as ``interior``."""
    if b.degree + 1 > b.dim:
        raise DegreeError("wedge degree exceeds dimension")
    x = np.asarray(x, dtype=float)
    u, _m, r, t, sign = tables(b.dim).exp_table(b.degree + 1)
    out = _accumulate(u, sign * x[r] * b.coeffs[t],
                      math.comb(b.dim, b.degree + 1))
    return AltForm(b.dim, b.degree + 1, out)


def _accumulate(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """out[..., i] = sum of vals[..., k] over k with idx[k] = i, as one
    bincount over the flattened leading axes."""
    lead = vals.shape[:-1]
    B = math.prod(lead)
    if lead:
        idx = (np.arange(B)[:, None] * n + idx).ravel()
    out = np.bincount(idx, weights=vals.ravel(), minlength=B * n)
    return out.reshape(lead + (n,))


def wedge_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """sum_r e^r ^ rows[..., r, :] for p-form coefficient rows
    (..., dim, N_p), giving (..., N_{p+1})."""
    rows = np.asarray(rows, dtype=float)
    dim = rows.shape[-2]
    u, _m, r, t, sign = tables(dim).exp_table(p + 1)
    return _accumulate(u, sign * rows[..., r, t], math.comb(dim, p + 1))


def derivation(M: np.ndarray, b: AltForm) -> np.ndarray:
    """Coefficients (..., N_p) of the slot derivation
    b -> sum_i b(.., M X_i, ..) for every matrix of a stack (..., dim, dim).

    b goes through ``der_table`` first, Y[z dim + r, t] = sum of sign * b[s]
    over the rows, in one bincount whatever the stack size; the stack then
    meets Y in one product M.reshape(..., dim^2) @ Y."""
    M = np.asarray(M, dtype=float)
    if b.degree == 0:
        return np.zeros(M.shape[:-2] + (1,))
    dim, N = b.dim, math.comb(b.dim, b.degree)
    flat, s, sign = tables(dim).der_table(b.degree)
    Y = np.bincount(flat, weights=sign * b.coeffs[s], minlength=dim * dim * N)
    return M.reshape(M.shape[:-2] + (dim * dim,)) @ Y.reshape(dim * dim, N)


def inner(a: AltForm, b: AltForm) -> float:
    if a.dim != b.dim or a.degree != b.degree:
        raise DegreeError("inner product needs equal degrees")
    return float(a.coeffs @ b.coeffs)


def hodge_op(dim: int, p: int, vol_coeff: float) -> SparseOp:
    """The star of p-forms relative to Vol = vol_coeff * e^0 ^ .. ^ e^{dim-1}
    (vol_coeff is +-1 for an orthonormal oriented frame), a signed
    permutation whose transpose is the inverse star: p-tuple #i goes to its
    complement #comp[i] with the parity of the concatenation."""
    _o, i, comp, sign = tables(dim).wedge_table(p, dim - p)
    return SparseOp(comp, i, vol_coeff * sign, (len(comp), len(comp)))


def hodge(a: AltForm, vol_coeff: float = 1.0) -> AltForm:
    """Star of a (``hodge_op``)."""
    return AltForm(a.dim, a.dim - a.degree,
                   hodge_op(a.dim, a.degree, vol_coeff)(a.coeffs))


# ---------------------------------------------------------------------------
# mixed tensors: one covariant slot + alternating part
# ---------------------------------------------------------------------------


@dataclass
class MixedTorsion:
    """Element of V* (x) Lambda^4 V*: row x holds the 4-form a(x; .,.,.,.)."""

    dim: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        # C order, so products such as rows @ Q round the same for any input
        # layout
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        expected = (self.dim, math.comb(self.dim, 4))
        if self.rows.shape != expected:
            raise DegreeError(
                f"mixed 4-form tensor needs row array {expected}, "
                f"got {self.rows.shape}"
            )

    @classmethod
    def zero(cls, dim: int) -> "MixedTorsion":
        return cls(dim, np.zeros((dim, math.comb(dim, 4))))

    def row(self, x: int) -> AltForm:
        return AltForm(self.dim, 4, self.rows[x].copy())

    def norm(self) -> float:
        return math.sqrt(self.rows.ravel() @ self.rows.ravel())

    def flat(self) -> np.ndarray:
        return self.rows.reshape(-1)

    @classmethod
    def from_flat(cls, dim: int, vec: np.ndarray) -> "MixedTorsion":
        return cls(dim, np.asarray(vec, dtype=float).reshape(
            dim, math.comb(dim, 4)))

    def __add__(self, other: "MixedTorsion") -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows + other.rows)

    def __sub__(self, other: "MixedTorsion") -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows - other.rows)

    def __neg__(self) -> "MixedTorsion":
        return MixedTorsion(self.dim, -self.rows)

    def __mul__(self, scalar: float) -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows * float(scalar))

    __rmul__ = __mul__


@dataclass
class MixedTwoFormFamily:
    """Element of V* (x) Lambda^2 V*: row x kept as an antisymmetric matrix."""

    dim: int
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.shape != (self.dim, self.dim, self.dim):
            raise DegreeError("mixed 2-form tensor needs (dim,dim,dim) array")

    @classmethod
    def zero(cls, dim: int) -> "MixedTwoFormFamily":
        return cls(dim, np.zeros((dim, dim, dim)))

    def coeff_rows(self) -> np.ndarray:
        i, j = tables(self.dim).columns(2)
        return self.mats[:, i, j]

    def row(self, x: int) -> AltForm:
        return AltForm.from_dense(self.mats[x])

    def norm(self) -> float:
        # rows are antisymmetric matrices; the form norm counts each pair once
        return float(np.linalg.norm(self.coeff_rows()))

    def __add__(self, other):
        return MixedTwoFormFamily(self.dim, self.mats + other.mats)

    def __sub__(self, other):
        return MixedTwoFormFamily(self.dim, self.mats - other.mats)

    def __neg__(self):
        return MixedTwoFormFamily(self.dim, -self.mats)

    def __mul__(self, scalar: float):
        return MixedTwoFormFamily(self.dim, self.mats * float(scalar))

    __rmul__ = __mul__


def contract12(a: MixedTorsion) -> AltForm:
    """First-slot metric contraction with a minus sign:
    out(y,z,u) = -sum_r a(e_r; e_r, y, z, u)."""
    u, _m, r, t, sign = tables(a.dim).exp_table(4)
    return AltForm(a.dim, 3, _accumulate(t, -sign * a.rows[r, u],
                                         math.comb(a.dim, 3)))


def alternate5(a: MixedTorsion) -> AltForm:
    """Cyclic-sum alternation of the five slots into a 5-form."""
    return AltForm(a.dim, 5, wedge_rows(a.rows, 4))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _json_n(data: dict) -> int:
    """The "n" of a JSON description, which must be an integer >= 2."""
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise InputFormatError(f"key 'n': {n!r} is not an integer >= 2")
    return n


def _json_index(where: str, i, dim: int) -> int:
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < dim:
        raise InputFormatError(f"{where}: index {i!r} is outside [0, {dim})")
    return i


def _json_value(where: str, v) -> float:
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise InputFormatError(f"{where}: value {v!r} is not a finite number")
    return x


def _json_coeffs(data: dict, dim: int, p: int, lead: int):
    """Row indices (K, lead), tuple numbers and values (K,) of a JSON tensor
    whose keys are `lead` row indices followed by an increasing p-tuple."""
    coeffs = data.get("coeffs", {})
    if not isinstance(coeffs, dict):
        raise InputFormatError(f"key 'coeffs': {coeffs!r:.40} is not an object")
    idx = tables(dim).index(p)
    try:
        T = [tuple(map(int, key.split(","))) for key in coeffs]
        u = [idx[t[lead:]] for t in T]
        rows = np.array([t[:lead] for t in T], dtype=np.int64)
        vals = np.array([float(v) for v in coeffs.values()])
        ok = np.isfinite(vals).all() and ((rows >= 0) & (rows < dim)).all()
    except (KeyError, TypeError, ValueError, OverflowError):
        ok = False
    if ok:
        with np.errstate(over="ignore"):
            if not np.isfinite(vals @ vals):
                raise InputFormatError("key 'coeffs': the norm of the "
                                       "coefficients is not a finite number")
        return rows.reshape(len(T), lead), u, vals
    # name the first offending key
    for key, v in coeffs.items():
        where = f"coefficient key {key!r}"
        try:
            T = tuple(map(int, key.split(",")))
        except ValueError:
            raise InputFormatError(f"{where} is not a list of integers") from None
        for i in T:
            _json_index(where, i, dim)
        if len(T) != lead + p or T[lead:] not in idx:
            raise InputFormatError(f"{where}: needs {lead + p} indices, the "
                                   f"last {p} increasing")
        _json_value(where, v)


def form_to_json(a: AltForm) -> dict:
    tab = tables(a.dim)
    coeffs = {
        ",".join(map(str, T)): float(v)
        for T, v in zip(tab.tuples(a.degree), a.coeffs)
        if v != 0.0
    }
    return {"n": a.dim // 4, "degree": a.degree, "coeffs": coeffs}


def form_from_json(data: dict) -> AltForm:
    dim = 4 * _json_n(data)
    p = _json_index("key 'degree'", data.get("degree"), dim + 1)
    out = AltForm.zero(dim, p)
    _, u, vals = _json_coeffs(data, dim, p, 0)
    out.coeffs[u] = vals
    return out


def mixed_to_json(a: MixedTorsion) -> dict:
    tab = tables(a.dim)
    coeffs = {}
    for x in range(a.dim):
        for T, v in zip(tab.tuples(4), a.rows[x]):
            if v != 0.0:
                coeffs[",".join(map(str, (x,) + T))] = float(v)
    return {"n": a.dim // 4, "degree": 4, "coeffs": coeffs}


def mixed_from_json(data: dict) -> MixedTorsion:
    dim = 4 * _json_n(data)
    out = MixedTorsion.zero(dim)
    rows, u, vals = _json_coeffs(data, dim, 4, 1)
    out.rows[rows[:, 0], u] = vals
    return out


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
