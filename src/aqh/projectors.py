"""The six orthogonal components of the intrinsic-torsion space W.

Everything here works on W coordinates.  W = V* (x) W4, and
``fiber_basis_matrix`` gives an orthonormal basis Q (N4 x r) of W4, so a
tensor a has coordinates C = aQ (dim x r).  Membership is a distance: a lies
in W exactly when a = C Q^T, and ``is_in_W`` reports |a - C Q^T| / |a|.

W splits into (L3E + K + E)(H + S3H) with multiplicity one each.

* The contraction d* kills exactly L3EH + KS3H, and hat_dstar is a right
  inverse landing in W, so the four components visible to d* are
  hat_dstar(proj3(d* a)).  On coordinates that is one product of the stacked
  proj3 parts of d* a with HAT_W = SE_W H3 - R_W H1 (threeform.hat_factors),
  SE_W and R_W built on W coordinates, never on full rows.
* The H / S3H halves are the 4 and -2 eigenspaces of the five-slot operator
  Lcal.  On coordinates Lcal C = -sum_A A C D_A^T with D_A = Q^T D_A Q
  (r x r) from the derivations of 4-forms, and

      hpart = (Lcal + 2)/6,          s3hpart = (4 - Lcal)/6,
      L3EH  = hpart - KH - EH,       KS3H = s3hpart - ES3H - L3ES3H.

Component norms are the norms of the coordinate arrays, which equal those of
the embedded tensors because Q is orthonormal.  The paper's route on full
rows (hat_dstar o proj3 o d*, with hat_dstar applied as SE H3 - R H1 without
Q, and the Lcal eigen-split) is kept in ``verify.paper_components`` as the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exterior import MixedTorsion, contract12
from .structure import AXES, QuatStructure
from .threeform import _interior_stack, hat_factors, proj3_matrix, r_matrix, se_core
from .torsion import fiber_basis_matrix, w_coords, w_embed


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

    @property
    def zero_at_n2(self) -> bool:
        return self in (ComponentLabel.L3EH, ComponentLabel.L3ES3H)


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
    """Cached operators on W coordinates: SE, R and HAT_W (dim r rows), the
    stacked proj3 matrices of the visible components and D_A (3, r, r)."""

    def build():
        Q = fiber_basis_matrix(s)
        SE = ((Q.T @ se_core(s)) @ _interior_stack(s)).reshape(
            -1, s.tab.nforms(3))
        R = (Q.T @ r_matrix(s).reshape(s.dim, -1, s.dim)).reshape(-1, s.dim)
        H3, H1 = hat_factors(s)
        D = s.deriv_op(4)(Q.T).reshape(len(Q.T), 3, -1)
        return {
            "SE": SE,
            "R": R,
            "hat_w": SE @ H3 - R @ H1,
            "proj3": np.concatenate([proj3_matrix(s, X.value)
                                     for X in VISIBLE]),
            "deriv": Q.T @ D.transpose(1, 2, 0),
        }

    return s.cache("w_core", build)


def lcal_coords(C: np.ndarray, s: QuatStructure) -> np.ndarray:
    """Lcal on W coordinates (..., dim, r): C -> -sum_A A C D_A^T."""
    D = _w_core(s)["deriv"]
    return -sum(s.mats[ax] @ C @ D[k].T for k, ax in enumerate(AXES))


def lcal_halves(C: np.ndarray, s: QuatStructure, LC: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the H and S3H halves: (Lcal + 2)/6 and (4 - Lcal)/6,
    from C and, when known, LC = Lcal C."""
    LC = lcal_coords(C, s) if LC is None else LC
    return (LC + 2.0 * C) / 6.0, (4.0 * C - LC) / 6.0


def split_coords(C: np.ndarray, ds: np.ndarray, s: QuatStructure,
                 LC: np.ndarray | None = None) -> dict[ComponentLabel, np.ndarray]:
    """Coordinates of the six components, from W coordinates C (..., dim, r),
    the contraction ds = d* a (..., N3) and, when known, LC = Lcal C."""
    core = _w_core(s)
    lead = C.shape[:-2]
    parts = (ds @ core["proj3"].T).reshape(*lead, len(VISIBLE), -1)
    vis = (parts @ core["hat_w"].T).reshape(*lead, len(VISIBLE),
                                            *C.shape[-2:])
    out = {X: vis[..., k, :, :] for k, X in enumerate(VISIBLE)}
    h, s3h = lcal_halves(C, s, LC)
    out[ComponentLabel.L3EH] = (h - out[ComponentLabel.KH]
                                - out[ComponentLabel.EH])
    out[ComponentLabel.KS3H] = (s3h - out[ComponentLabel.ES3H]
                                - out[ComponentLabel.L3ES3H])
    return out


def _split(a: MixedTorsion, s: QuatStructure, tol: float,
           check: bool) -> dict[ComponentLabel, np.ndarray]:
    return split_coords(w_coords(a, s, tol, check), contract12(a).coeffs, s)


def proj_hpart(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8,
               check: bool = True) -> MixedTorsion:
    return w_embed(lcal_halves(w_coords(a, s, tol, check), s)[0], s)


def proj_s3hpart(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8,
                 check: bool = True) -> MixedTorsion:
    return w_embed(lcal_halves(w_coords(a, s, tol, check), s)[1], s)


def component(a: MixedTorsion, X: ComponentLabel, s: QuatStructure,
              tol: float = 1e-8, check: bool = True) -> MixedTorsion:
    return components(a, s, tol, check)[X]


def components(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8,
               check: bool = True) -> dict[ComponentLabel, MixedTorsion]:
    """All six components, embedded back into V* (x) Lambda^4."""
    return {X: w_embed(c, s) for X, c in _split(a, s, tol, check).items()}


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

    @classmethod
    def of(cls, parts: dict, total: float) -> "ComponentProfile":
        """The profile of the component coordinates ``parts``."""
        return cls({X: float(np.linalg.norm(c)) for X, c in parts.items()},
                   total)

    def to_json(self) -> dict:
        return {
            "norms": {X.value: v for X, v in self.norms.items()},
            "total": self.total,
        }


def profile(a: MixedTorsion, s: QuatStructure, tol: float = 1e-8,
            check: bool = True) -> ComponentProfile:
    return ComponentProfile.of(_split(a, s, tol, check), a.norm())
