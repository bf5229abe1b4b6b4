"""The six orthogonal components of the intrinsic-torsion space W.

Everything here works on W coordinates.  W = V* (x) W4, and
``fiber_basis_matrix`` gives an orthonormal basis Q (N4 x r) of W4, so a
tensor a has coordinates C = aQ (dim x r).  Membership is a distance: a lies
in W exactly when a = C Q^T, and ``require_in_W`` holds |a - C Q^T| / |a| to
a tolerance.

W splits into (L3E + K + E)(H + S3H), and Lambda^3 into KH + EH + L3ES3H +
ES3H, with multiplicity one each, so by Schur's lemma:

* d* kills exactly L3EH + KS3H, and HAT_W = SE_W H3 - R_W H1 (hat_dstar on
  W coordinates, threeform.hat_factors) is a right inverse, so HAT_W d* is
  the orthogonal projector onto the visible sum: X = HAT_W P_X d* a.  The
  pieces are read on one orthonormal basis U of Lambda^3
  (threeform.piece_basis) whose column blocks span KH, EH, ES3H, L3ES3H,
  so P_X = U_X U_X^T; the core holds B = HAT_W U, and with y = d* a U,
  X = y_X B_X^T.  HAT_W is c_X times an isometry on each piece (B^T B =
  blockdiag(c_X^2 I)), so |X| = c_X |y_X|.
* The d*-kernel residual v = C - HAT_W d* a is L3EH + KS3H, whose halves
  are the 4 and -2 eigenspaces of the five-slot operator Lcal:
  L3EH = (Lcal v + 2 v)/6 (lcal_hpart) and KS3H = v - L3EH.  On coordinates
  Lcal C = -sum_A A C D_A^T, with D_A = Q^T D_A Q (r x r) (lcal_coords).

A profile (component_norms) forms no visible component.  Norms on
coordinates are those of the tensors, as Q is orthonormal.  The paper's
route on full rows (hat_dstar o proj3 o d*, with hat_dstar applied as
SE H3 - R H1 without Q, proj3 through the factors of
threeform.proj3_parts, and the Lcal eigen-split) is kept in
``verify.paper_components`` as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exterior import MixedTorsion, contract12, wedge1_stack
from .structure import AXES, QuatStructure
from .threeform import hat_factors, piece_basis, piece_h3, r_matrix, se_core
from .torsion import fiber_basis_matrix, require_in_W, w_coords, w_embed


class ComponentLabel(Enum):
    L3EH = "L3EH"
    KH = "KH"
    EH = "EH"
    L3ES3H = "L3ES3H"
    KS3H = "KS3H"
    ES3H = "ES3H"

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    ComponentLabel.L3EH: "Λ₀³EH",
    ComponentLabel.KH: "KH",
    ComponentLabel.EH: "EH",
    ComponentLabel.L3ES3H: "Λ₀³ES³H",
    ComponentLabel.KS3H: "KS³H",
    ComponentLabel.ES3H: "ES³H",
}


def _l3e_dim(n: int) -> int:
    return math.comb(2 * n, 3) - 2 * n


def _k_dim(n: int) -> int:
    return 2 * n * n * (2 * n + 1) - math.comb(2 * n + 2, 3) - 2 * n


# dim X = dim(Sp(n) module) * dim(Sp(1) module); H has dimension 2, S3H 4
COMPONENT_DIMS = {
    ComponentLabel.L3EH: lambda n: 2 * _l3e_dim(n),
    ComponentLabel.KH: lambda n: 2 * _k_dim(n),
    ComponentLabel.EH: lambda n: 2 * (2 * n),
    ComponentLabel.L3ES3H: lambda n: 4 * _l3e_dim(n),
    ComponentLabel.KS3H: lambda n: 4 * _k_dim(n),
    ComponentLabel.ES3H: lambda n: 4 * (2 * n),
}

# the four components seen by d*, in the order of the profile
VISIBLE = (ComponentLabel.KH, ComponentLabel.EH, ComponentLabel.ES3H,
           ComponentLabel.L3ES3H)


def _w_core(s: QuatStructure) -> dict:
    """Cached operators on W coordinates: SE and R (dim r rows), B = HAT_W U
    (dim r x N3, U = threeform.piece_basis), the c_X of the visible pieces
    and the blocks of Lcal (lcal_coords)."""

    def build():
        Q = fiber_basis_matrix(s)
        # deriv_op(4) on the rows of Q^T, chunked by SparseOp: about 1.5 MiB
        # of transient at n=3 in any frame, its 0.5 MiB result included
        D = s.deriv_op(4)(Q.T).reshape(len(Q.T), 3, -1)
        # SE[y] = (Q^T se_core)(e_y hook .), row j the 3-form e^y ^ row j
        # of Q^T se_core
        SE = wedge1_stack(Q.T @ se_core(s), s.dim, 2).reshape(
            -1, s.tab.nforms(3))
        R = (Q.T @ r_matrix(s).reshape(s.dim, -1, s.dim)).reshape(-1, s.dim)
        # H3 is a scalar on each piece (piece_h3), so HAT_W U = SE U h -
        # R H1 U costs what HAT_W = SE H3 - R H1 did
        U, sizes = piece_basis(s)
        B = (SE @ U) * np.repeat(piece_h3(s), sizes) - R @ (
            hat_factors(s)[1] @ U)
        blocks = [slice(e - k, e) for e, k in zip(np.cumsum(sizes), sizes)]
        # B^T B = blockdiag(c_X^2 I); c_X = 0 on an empty piece
        c = np.array([np.linalg.norm(B[:, b]) / math.sqrt(max(k, 1))
                      for b, k in zip(blocks, sizes)])
        return {
            "SE": SE,
            "R": R,
            "B": B,
            "blocks": blocks,
            "c": c,
            # (y * y) S = (c_X^2 |y_X|^2)_X
            "S": np.repeat(np.diag(c * c), sizes, axis=0),
            "lcal": (-np.concatenate([s.mats[ax] for ax in AXES], axis=1),
                     (D @ Q).reshape(len(Q.T), -1)),
        }

    return s.cache("w_core", build)


def lcal_coords(C: np.ndarray, s: QuatStructure) -> np.ndarray:
    """Lcal on W coordinates (..., dim, r): C -> -sum_A A C D_A^T, as
    T = C [D_I^T D_J^T D_K^T] and then -[I J K] on the stacked blocks T_A."""
    M, D = _w_core(s)["lcal"]
    T = (C @ D).reshape(*C.shape[:-1], 3, -1)
    return M @ np.swapaxes(T, -2, -3).reshape(*C.shape[:-2], -1, C.shape[-1])


def lcal_hpart(C: np.ndarray, s: QuatStructure) -> np.ndarray:
    """The H half (Lcal C + 2 C)/6 of W coordinates C; C minus it is S3H."""
    return (lcal_coords(C, s) + 2.0 * C) / 6.0


_ORDER = VISIBLE + (ComponentLabel.L3EH, ComponentLabel.KS3H)


def component_norms(C: np.ndarray, ds: np.ndarray, s: QuatStructure) -> dict:
    """The six norms from W coordinates C (dim r, flat or not) and ds = d* a
    (N3), forming no visible component: with y = ds U (piece_basis), c_X
    |y_X|, then the halves of v = C - y B^T.  One tensor gives floats; a
    stack C (k, dim r) and ds (k, N3) gives arrays (k,), equal to those of
    its tensors up to rounding (the stack's products sum in another
    order)."""
    core, lead = _w_core(s), ds.shape[:-1]
    y = ds @ piece_basis(s)[0]
    v = (C.reshape(*lead, -1) - y @ core["B"].T).reshape(*lead, s.dim, -1)
    h = lcal_hpart(v, s)
    norms = [*np.sqrt((y * y) @ core["S"]).T]
    for x in (h, v - h):
        # one dot product per tensor, as np.linalg.norm takes it of one
        x = x.reshape(*lead, -1)
        norms.append(np.sqrt(np.vecdot(x, x)))
    return dict(zip(_ORDER, norms if lead else map(float, norms)))


def split_coords(C: np.ndarray, ds: np.ndarray,
                 s: QuatStructure) -> dict[ComponentLabel, np.ndarray]:
    """The six components' coordinates from W coordinates C (..., dim, r)
    and ds = d* a (..., N3): with y = ds U (piece_basis), y_X B_X^T for
    the visible X, then the halves of v, C minus their sum."""
    core = _w_core(s)
    y = ds @ piece_basis(s)[0]
    vis = [(y[..., b] @ core["B"][:, b].T).reshape(C.shape)
           for b in core["blocks"]]
    v = C - sum(vis)
    h = lcal_hpart(v, s)
    return dict(zip(_ORDER, [*vis, h, v - h]))


def components(a: MixedTorsion, s: QuatStructure,
               check: bool = True) -> dict[ComponentLabel, MixedTorsion]:
    """All six components, embedded back into V* (x) Lambda^4; with check, a
    must lie within 1e-8 of W (require_in_W)."""
    C = require_in_W(a, s) if check else w_coords(a, s)
    parts = split_coords(C, contract12(a).coeffs, s)
    return {X: w_embed(c, s) for X, c in parts.items()}


@dataclass
class ComponentProfile:
    """Six component norms of a torsion tensor plus its total norm."""

    norms: dict[ComponentLabel, float]
    total: float

    @property
    def pythagoras_residual(self) -> float:
        if self.total == 0.0:
            return 0.0
        ss = sum(v * v for v in self.norms.values())
        return abs(ss - self.total ** 2) / self.total ** 2

    def to_json(self) -> dict:
        return {
            "norms": {X.value: v for X, v in self.norms.items()},
            "total": self.total,
        }


def profile(a: MixedTorsion, s: QuatStructure) -> ComponentProfile:
    """The component norms of a, on w_coords (no membership test)."""
    return ComponentProfile(component_norms(
        w_coords(a, s), contract12(a).coeffs, s), a.norm())
