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
increasing (p+q)-tuple splits into a p-part and a q-part with a sign.
``wedge`` sums the splits as they stand (``wedge_coeffs``, on stacks too),
and ``wedge_op`` holds their nonzeros for a fixed factor.  Only this module
reads the tables; other modules apply the operators built here:

* ``exp_table(p)`` is the (1, p-1) split (dropping entry r of p-tuple #u
  leaves (p-1)-tuple #t, with a sign).  ``FormTables.hook(p)`` and
  ``contraction(p)`` hold one entry per row, and slot derivations pair the
  rows through one t (``der_table``, by source);
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
    are built lazily per degree, each once, in the one memo _built, and
    shared process-wide through ``tables``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._built: dict = {}

    def _memo(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def nforms(self, p: int) -> int:
        return math.comb(self.dim, p)

    def columns(self, p: int) -> np.ndarray:
        """The p-tuples, in lexicographic order, as a read-only (p, N_p)
        integer array: row k holds the k-th entry of every tuple."""

        def build():
            N = self.nforms(p)
            flat = itertools.chain.from_iterable(
                itertools.combinations(range(self.dim), p))
            cols = np.fromiter(flat, np.int64, p * N).reshape(N, p).T.copy()
            cols.flags.writeable = False
            return cols

        return self._memo(("columns", p), build)

    def _rank(self, p: int, masks: np.ndarray) -> np.ndarray:
        """Numbers of the p-tuples with the given bit masks (bit i set for
        entry i), read from one table lut[mask] of 2^dim entries: masks of
        different degrees differ in popcount, so all degrees share it."""
        lut = self._memo("lut", lambda: np.zeros(1 << self.dim, np.int64))

        def fill():        # its memo entry, None, marks degree p as filled
            lut[_BIT[self.columns(p)].sum(axis=0)] = np.arange(self.nforms(p))

        self._memo(("ranked", p), fill)
        return lut[masks]

    def wedge_table(self, p: int, q: int):
        """Rows (o, ai, bi, sign) with e_O = sum sign * e_A ^ e_B over all
        splits of the (p+q)-tuple #o into a p-part #ai and q-part #bi.  Rows
        run over o, then over the splits in lexicographic order of the
        p-part positions; that order is what every view below relies on."""

        def build():
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
            return o, self._rank(p, a), self._rank(q, b), sign

        return self._memo(("wedge", p, q), build)

    def exp_table(self, p: int):
        """Rows (u, r, t, sign), the (1, p-1) split of ``wedge_table``:
        dropping entry r, at position m, from the p-tuple #u leaves the
        (p-1)-tuple #t, with sign (-1)^m; the p rows of #u run over m."""
        return self.wedge_table(1, p - 1)

    def hook(self, p: int) -> SparseOp:
        """b -> (e_y hook b)_y from N_p to dim N_{p-1}, one ``exp_table(p)``
        row an entry; its transpose is rows -> sum_y e^y ^ rows[y]."""

        def build():
            u, r, t, sign = self.exp_table(p)
            N = self.nforms(p - 1)
            return SparseOp(r * N + t, u, sign, (self.dim * N, self.nforms(p)))

        return self._memo(("hook", p), build)

    def contraction(self, p: int) -> SparseOp:
        """rows -> -sum_y e_y hook rows[y] from dim N_p to N_{p-1}, one
        ``exp_table(p)`` row an entry."""

        def build():
            u, r, t, sign = self.exp_table(p)
            N = self.nforms(p)
            return SparseOp(t, r * N + u, -sign,
                            (self.nforms(p - 1), self.dim * N))

        return self._memo(("contraction", p), build)

    def der_table(self, p: int):
        """Arrays (zr, t, sign) of shape (N_p, p (dim - p + 1)) so that the
        slot derivation b -> sum_i b(.., M X_i, ..) on degree p is
        out[t] += M.flat[zr] * sign * b[s] over row s of each array: the
        pairs of ``exp_table(p)`` rows (s, z) and (t, r) through one
        (p-1)-tuple, zr = z dim + r, grouped by the source tuple s."""

        def build():
            u, r, t, sign = self.exp_table(p)
            # every (p-1)-tuple is reached from k = dim - p + 1 p-tuples:
            # pair[e] holds the k rows through the (p-1)-tuple of row e
            k = self.dim - p + 1
            pair = np.argsort(t, kind="stable").reshape(-1, k)[t]
            return tuple(a.reshape(self.nforms(p), -1) for a in (
                r[:, None] * self.dim + r[pair], u[pair],
                sign[:, None] * sign[pair]))

        return self._memo(("der", p), build)

    def dense_table(self, p: int):
        """(flat, sign): flat[k] are the raveled positions of the k-th
        permutation image of every increasing tuple, sign[k] its parity."""

        def build():
            perms = np.array(list(itertools.permutations(range(p))),
                             dtype=np.int64).reshape(math.factorial(p), p)
            flat = (self.columns(p)[perms]
                    * self.dim ** np.arange(p - 1, -1, -1)[:, None]).sum(1)
            inv = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum((1, 2))
            return flat, (-1.0) ** inv

        return self._memo(("dense", p), build)


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
        return dense_forms(self.coeffs, self.dim, self.degree)

    def norm(self) -> float:
        return math.sqrt(self.coeffs @ self.coeffs)

    def _like(self, coeffs: np.ndarray) -> "AltForm":
        return AltForm(self.dim, self.degree, coeffs)

    def __add__(self, other: "AltForm") -> "AltForm":
        self._check_same(other)
        return self._like(self.coeffs + other.coeffs)

    def __mul__(self, scalar: float) -> "AltForm":
        return self._like(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_same(self, other: "AltForm"):
        if self.dim != other.dim or self.degree != other.degree:
            raise DegreeError("mismatched forms")


def dense_forms(coeffs: np.ndarray, dim: int, p: int) -> np.ndarray:
    """Full (0,p) tensors (..., dim, .., dim) of the p-form coefficients
    (..., N_p), with all permutation images filled in."""
    flat, sign = tables(dim).dense_table(p)
    lead = coeffs.shape[:-1]
    out = np.zeros(lead + (dim ** p,))
    out[..., flat] = sign[:, None] * coeffs[..., None, :]
    return out.reshape(lead + (dim,) * p)


def wedge(a: AltForm, b: AltForm) -> AltForm:
    if a.dim != b.dim:
        raise DegreeError("forms live on different spaces")
    p, q = a.degree, b.degree
    if p + q > a.dim:
        raise DegreeError(f"wedge degree {p}+{q} exceeds dimension {a.dim}")
    return AltForm(a.dim, p + q, wedge_coeffs(a.coeffs, b.coeffs, a.dim, p, q))


def wedge_coeffs(a: np.ndarray, b: np.ndarray, dim: int, p: int,
                 q: int) -> np.ndarray:
    """Coefficients (..., N_{p+q}) of a ^ b for p-form coefficients a
    (..., N_p) and q-form coefficients b (..., N_q) of one leading shape:
    the ``wedge_table(p, q)`` rows summed as they stand, a[ai] b[bi] sign
    into bin o, with no operator built (``wedge_op`` is the cached form for
    a fixed factor, and gives the same bits).  Only the rows inside both
    supports are summed, a support being the coefficients nonzero on some
    entry of the stack; a dropped row adds a zero, so the bits are those of
    the whole table."""
    tab = tables(dim)
    o, ai, bi, sign = tab.wedge_table(p, q)
    if not (a.all() and b.all()):
        keep = np.flatnonzero(_support(a)[ai] & _support(b)[bi])
        o, ai, bi, sign = o[keep], ai[keep], bi[keep], sign[keep]
    return _stack_pass(o, tab.nforms(p + q),
                       lambda x, y: x[..., ai] * y[..., bi] * sign, a, b)


def _support(x: np.ndarray) -> np.ndarray:
    """The coefficients nonzero on some entry of a stack x (..., N)."""
    return (x != 0).reshape(-1, x.shape[-1]).any(axis=0)


# the most terms one pass of _stack_pass gathers: a stack of B entries holds
# a B x nnz index and two B x nnz value arrays, so larger stacks go in chunks
_PASS_NNZ = 1 << 16


class SparseOp(NamedTuple):
    """A fixed matrix kept as index triples: v[k] is added at (r[k], c[k])."""

    r: np.ndarray
    c: np.ndarray
    v: np.ndarray
    shape: tuple[int, int]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The product with x along its last axis, (..., n) -> (..., m)."""
        return _stack_pass(self.r, self.shape[0],
                           lambda y: self.v * y.take(self.c, -1), x)

    @property
    def T(self) -> "SparseOp":
        return SparseOp(self.c, self.r, self.v, self.shape[::-1])

    def dense(self) -> np.ndarray:
        m, n = self.shape
        return np.bincount(self.r * n + self.c, weights=self.v,
                           minlength=m * n).reshape(m, n)


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


def interior(x: np.ndarray, a: AltForm) -> AltForm:
    """x-slot contraction (x 'hook' a)(...) = a(x, ...)."""
    if a.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    hooks = tables(a.dim).hook(a.degree)(a.coeffs).reshape(a.dim, -1)
    return AltForm(a.dim, a.degree - 1, np.asarray(x, dtype=float) @ hooks)


def wedge1(x: np.ndarray, b: AltForm) -> AltForm:
    """One-form wedge x^flat ^ b, ``wedge_rows`` of the rows x_y b."""
    if b.degree + 1 > b.dim:
        raise DegreeError("wedge degree exceeds dimension")
    rows = np.outer(np.asarray(x, dtype=float), b.coeffs)
    return AltForm(b.dim, b.degree + 1, wedge_rows(rows, b.degree))


def _stack_pass(idx: np.ndarray, n: int, terms, *xs: np.ndarray) -> np.ndarray:
    """out[..., i] = sum of terms(*xs)[..., k] over k with idx[k] = i, for
    stacks xs of one leading shape.  A stack goes in chunks of rows of at
    most _PASS_NNZ terms (one row at least); each entry's bins are summed
    in the same order either way, so the result does not depend on the
    chunking."""
    lead = xs[0].shape[:-1]
    rows = max(1, _PASS_NNZ // max(len(idx), 1))
    if math.prod(lead) <= rows:
        return _accumulate(idx, terms(*xs), n)
    xs = [x.reshape(-1, x.shape[-1]) for x in xs]
    out = np.empty((len(xs[0]), n))
    for i in range(0, len(out), rows):
        out[i:i + rows] = _accumulate(
            idx, terms(*(x[i:i + rows] for x in xs)), n)
    return out.reshape(lead + (n,))


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
    return tables(dim).hook(p + 1).T(rows.reshape(rows.shape[:-2] + (-1,)))


def wedge1_stack(rows: np.ndarray, dim: int, p: int) -> np.ndarray:
    """The dense table (dim, k, N_{p+1}) of e^y ^ rows[j] for p-form rows
    (k, N_p): each ``exp_table(p+1)`` row (u, y, t, sign) writes
    sign rows[:, t] at (y, :, u), and (y, u) fixes t."""
    u, y, t, sign = tables(dim).exp_table(p + 1)
    out = np.zeros((dim, len(rows), math.comb(dim, p + 1)))
    out[y, :, u] = sign[:, None] * rows.T[t]
    return out


def derivation_op(b) -> SparseOp:
    """The slot derivation M -> sum_i b(.., M X_i, ..) as a map from
    M.ravel() (dim^2) to the N_p coefficients of a form b, or to the k N_p
    of a sequence b of k forms of one degree, side by side.

    Only the ``der_table`` rows of the support of b are read: entry
    (zr, t, sign) of row s is sign * b[s] at (t, zr), and no two rows share
    a pair (zr, t)."""
    forms = (b,) if isinstance(b, AltForm) else tuple(b)
    dim, p, N = forms[0].dim, forms[0].degree, forms[0].coeffs.size
    if any((f.dim, f.degree) != (dim, p) for f in forms):
        raise DegreeError("derivation needs forms of one degree and dim")
    shape = (len(forms) * N, dim * dim)
    if p == 0:                                      # D = 0 on degree 0
        return SparseOp(np.zeros(0, np.int64), np.zeros(0, np.int64),
                        np.zeros(0), shape)
    B = np.stack([f.coeffs for f in forms])
    j, k = np.nonzero(B)
    zr, t, sign = (a[k] for a in tables(dim).der_table(p))
    return SparseOp((j[:, None] * N + t).ravel(), zr.ravel(),
                    (sign * B[j, k, None]).ravel(), shape)


def derivation_stack(mats: np.ndarray, p: int) -> SparseOp:
    """The stack (k N_p x N_p) of the slot derivations b -> sum_i
    b(.., M X_i, ..) on degree p for the k matrices M of mats (k, dim, dim),
    b -> (D_1 b, .., D_k b): entry (zr, t, sign) of ``der_table`` row s
    adds M.flat[zr] sign at (t, s) of D_M."""
    zr, t, sign = tables(mats.shape[-1]).der_table(p)
    N, R = zr.shape
    v = np.stack([M.ravel()[zr.ravel()] * sign.ravel() for M in mats])
    k, i = np.nonzero(v != 0)   # on a bool mask: 3x faster
    return SparseOp(k * N + t.ravel()[i], i // R, v[k, i], (len(mats) * N, N))


def koszul_op(b) -> SparseOp:
    """b -> db for a form b of degree p >= 1, or forms of one degree side
    by side, as a map on the bracket table c.ravel() (dim^3) of a Lie
    algebra: d b = -(1/2) sum_k e^k ^ derivation(ad(e_k), b).

    Entry (t, zr) of the ``derivation_op`` of b, zr = z dim + r, meets the
    dim - p rows (u, k, t) of ``exp_table(p+1)`` that drop k from u and
    leave t: -1/2 times their signs, at ad(e_k)[z, r] = c[k, r, z].  r lies
    in t and k does not, and the entry of (u, r, u - r) and zr = z dim + k
    has the same value at c[r, k, z] = -c[k, r, z]: the sum counts each
    bracket twice, so the entries with k < r are kept, doubled."""
    forms = (b,) if isinstance(b, AltForm) else tuple(b)
    dim, p = forms[0].dim, forms[0].degree
    D = derivation_op(forms)
    N, N1 = math.comb(dim, p), math.comb(dim, p + 1)
    u, k, t, sign = tables(dim).exp_table(p + 1)
    e = np.argsort(t, kind="stable").reshape(N, dim - p)[D.r % N]
    z, r = np.divmod(D.c[:, None], dim)
    keep = k[e] < r
    return SparseOp((u[e] + (D.r // N * N1)[:, None])[keep],
                    ((k[e] * dim + r) * dim + z)[keep],
                    -(sign[e] * D.v[:, None])[keep],
                    (D.shape[0] // N * N1, dim ** 3))


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

    def norm(self) -> float:
        return math.sqrt(self.rows.ravel() @ self.rows.ravel())

    @classmethod
    def from_flat(cls, dim: int, vec: np.ndarray) -> "MixedTorsion":
        return cls(dim, np.asarray(vec, dtype=float).reshape(
            dim, math.comb(dim, 4)))

    def __add__(self, other: "MixedTorsion") -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows + other.rows)

    def __sub__(self, other: "MixedTorsion") -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows - other.rows)

    def __mul__(self, scalar: float) -> "MixedTorsion":
        return MixedTorsion(self.dim, self.rows * float(scalar))

    __rmul__ = __mul__


def contract12(a: MixedTorsion) -> AltForm:
    """First-slot metric contraction with a minus sign:
    out(y,z,u) = -sum_r a(e_r; e_r, y, z, u)."""
    return AltForm(a.dim, 3, tables(a.dim).contraction(4)(a.rows.ravel()))


def alternate5(a: MixedTorsion) -> AltForm:
    """Cyclic-sum alternation of the five slots into a 5-form."""
    return AltForm(a.dim, 5, wedge_rows(a.rows, 4))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _json_n(data: dict, key: str = "n") -> int:
    """The "n" of a JSON description, which must be an integer >= 2; key
    names it in the error."""
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise InputFormatError(
            f"key {key!r}: {n!r:.40} is not an integer >= 2")
    return n


def _json_index(where: str, i, dim: int) -> int:
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < dim:
        raise InputFormatError(f"{where}: index {i!r} is outside [0, {dim})")
    return i


def _json_value(where: str, v) -> float:
    """A JSON number (int or float, not bool or str) as a finite float."""
    try:
        x = float(v) if type(v) in (int, float) else math.nan
    except OverflowError:
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
    m, cols = lead + p, tables(dim).columns(p)
    try:
        # the key fields, each key closed by a -1: in one parse when every
        # field is a nonempty run of ASCII digits (fromstring stops at a
        # blank, "+" or "-" field), else field by field through int; a
        # tuple is found by its flat code sum_k t_k dim^(p-1-k) among the
        # sorted codes
        keys = ",".join(coeffs).encode()
        if keys.translate(None, b"0123456789,") or b",," in b",%b," % keys:
            T = np.array([int(f) for key in coeffs
                          for f in (*key.split(","), -1)], np.int64)
        else:
            T = np.fromstring(",-1,".join(coeffs) + ",-1", np.int64, sep=",")
        T = T.reshape(len(coeffs), m + 1)
        codes = np.ravel_multi_index(cols, (dim,) * p)
        t = np.ravel_multi_index(T[:, lead:m].T, (dim,) * p)  # in [0, dim)
        u = codes.searchsorted(t)
        rows = T[:, :lead]
        # JSON numbers only: fromiter would read "1" and true as 1.0
        ok = {*map(type, coeffs.values())} <= {int, float}
        vals = np.fromiter(coeffs.values(), float, len(coeffs))
        ok = (ok and (codes[u] == t).all() and (T[:, m] == -1).all()
              and np.isfinite(vals).all()
              and ((rows >= 0) & (rows < dim)).all())
    except (IndexError, TypeError, ValueError, OverflowError):
        ok = False
    if ok:
        with np.errstate(over="ignore"):
            if not np.isfinite(vals @ vals):
                raise InputFormatError("key 'coeffs': the norm of the "
                                       "coefficients is not a finite number")
        # keys such as "0,0,1,2,3" and "00,0,1,2,3" name one entry
        code = np.ravel_multi_index((*rows.T, u),
                                    (dim,) * lead + cols.shape[1:])
        if code.size and np.bincount(code).max() > 1:
            seen = {}
            for c, key in zip(code.tolist(), coeffs):
                if c in seen:
                    raise InputFormatError(f"coefficient keys {seen[c]!r} and "
                                           f"{key!r} name the same entry")
                seen[c] = key
        return rows, u, vals
    # name the first offending key
    for key, v in coeffs.items():
        where = f"coefficient key {key!r}"
        try:
            T = tuple(map(int, key.split(",")))
        except ValueError:
            raise InputFormatError(f"{where} is not a list of integers") from None
        for i in T:
            _json_index(where, i, dim)
        if len(T) != m or any(x >= y for x, y in zip(T[lead:], T[lead + 1:])):
            raise InputFormatError(f"{where}: needs {m} indices, the "
                                   f"last {p} increasing")
        _json_value(where, v)


def mixed_to_json(a: MixedTorsion) -> dict:
    x, u = np.nonzero(a.rows)
    keys = np.vstack([x, tables(a.dim).columns(4)[:, u]]).T.tolist()
    coeffs = {",".join(map(str, k)): v
              for k, v in zip(keys, a.rows[x, u].tolist())}
    return {"n": a.dim // 4, "degree": 4, "coeffs": coeffs}


def mixed_from_json(data: dict) -> MixedTorsion:
    """A tensor document; it is read in the standard frame, so its
    structure, if given, must be "standard" and its degree 4."""
    dim = 4 * _json_n(data)
    for key, want in (("structure", "standard"), ("degree", 4)):
        if data.get(key, want) != want:
            raise InputFormatError(f"key {key!r}: {data[key]!r:.40} is not "
                                   f"{want!r}")
    out = MixedTorsion.zero(dim)
    rows, u, vals = _json_coeffs(data, dim, 4, 1)
    out.rows[rows[:, 0], u] = vals
    return out


def _unique_keys(pairs: list) -> dict:
    """The dict of one JSON object, whose keys must differ: json keeps the
    last value of a key written twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputFormatError(f"key {key!r} is written twice in one object")
    return out


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)
