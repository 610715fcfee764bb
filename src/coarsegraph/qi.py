"""Quasi-isometry certification for explicit vertex maps.

A map φ: V(G) → V(H) is a (γ, c)-quasi-isometry when
(i)  (1/γ)·d_G(u,v) − c ≤ d_H(φu, φv) ≤ γ·d_G(u,v) + c for all u, v, and
(ii) every vertex of H lies within distance c of the image of φ.

Constants are exact ``fractions.Fraction`` values at the API boundary, so
the boundary cases are decided without rounding.  Inside, one scan over all
pairs compares integers: with γ = p/q, every requirement on c is scaled by p·q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import CompositionError, GraphToolError, StructuralError, UnknownVertexError
from .graph import Graph


class ConnectivityError(GraphToolError, ValueError):
    """Infinite distances would enter the verification and per-component mode is off."""


@dataclass(frozen=True)
class QuasiIsometryCertificate:
    source: Graph
    target: Graph
    phi: dict
    gamma: Fraction
    c: Fraction
    valid: bool
    worst_witness: tuple | None  # pair of source vertices, or a lone target vertex

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.gamma < 1:
            raise StructuralError("gamma must be ≥ 1")
        if self.c < 0:
            raise StructuralError("c must be ≥ 0")


def _check_map(source: Graph, target: Graph, phi: Mapping) -> None:
    for v in source.vertices:
        if v not in phi:
            raise StructuralError(f"phi is not total: missing {v!r}")
        if phi[v] not in target.vertices:
            raise UnknownVertexError(repr(phi[v]))


class _Scan(NamedTuple):
    c: Fraction | None          # tightest c at the scanned γ; None when no c works
    worst: tuple | None         # first entry of largest requirement
    violation: tuple | None     # first entry whose requirement exceeds the given c, if any


def _scan(source: Graph, target: Graph, phi: Mapping, gamma: Fraction, c: Fraction | None,
          per_component: bool) -> _Scan:
    """One pass over the pairs u < v of source vertices, then the target
    vertices, both in sorted order.  A pair requires c ≥ max(d_H − γ·d_G,
    d_G/γ − d_H), a target vertex c ≥ its distance to the image; with γ = p/q
    both are integers once scaled by p·q.  It holds one source BFS row at a
    time and one target row per image vertex.  An infinite distance raises
    ConnectivityError unless per_component is on; then a pair across source
    components requires −inf, and any other infinite distance +inf.
    """
    _check_map(source, target, phi)
    p, q = gamma.numerator, gamma.denominator
    pq, pp, qq = p * q, p * p, q * q
    # An integer requirement exceeds p·q·c exactly when it exceeds its floor.
    limit = math.inf if c is None else pq * c.numerator // c.denominator
    best = worst = violation = None

    def take(reqs: list, witness) -> None:
        nonlocal best, worst, violation
        if not reqs:
            return
        top = max(reqs)
        if best is None or top > best:
            best, worst = top, witness(reqs.index(top))
        if violation is None and top > limit:
            violation = witness(next(j for j, r in enumerate(reqs) if r > limit))

    src, tgt = source.index, target.index
    order = src.order
    img = [tgt.pos[phi[v]] for v in order]
    rows: dict = {}
    for i, u in enumerate(order):
        hrow = rows.get(img[i])
        if hrow is None:
            hrow = rows[img[i]] = tgt.distance_row([img[i]])
        gs, hs, vs = src.distance_row([i])[i + 1:], [hrow[k] for k in img[i + 1:]], order[i + 1:]
        take([max(pq * h - pp * g, qq * g - pq * h) if g >= 0 <= h else _unbounded(u, v, g, per_component)
              for g, h, v in zip(gs, hs, vs)], lambda j: (u, vs[j]))
    row = tgt.distance_row(set(img))
    if -1 in row and not per_component:
        raise ConnectivityError(f"target vertex {tgt.order[row.index(-1)]!r} cannot reach the image")
    take([pq * d if d >= 0 else math.inf for d in row], lambda j: (tgt.order[j],))
    return _Scan(None if best == math.inf else Fraction(max(best or 0, 0), pq), worst, violation)


def _unbounded(u, v, g: int, per_component: bool) -> float:
    """The requirement of a pair with an infinite distance."""
    if per_component:
        return -math.inf if g < 0 else math.inf
    if g < 0:
        raise ConnectivityError(f"{u!r} and {v!r} are in different components of the source")
    raise ConnectivityError(f"images of {u!r} and {v!r} are in different components of the target")


def qi_verify(cert: QuasiIsometryCertificate, per_component: bool = False) -> tuple[bool, tuple | None]:
    """Check conditions (i) and (ii) for the certificate's (gamma, c).

    Returns (ok, witness): the witness is the first violating vertex pair or a
    lone target vertex violating density, None when valid.
    """
    violation = _scan(cert.source, cert.target, cert.phi, cert.gamma, cert.c, per_component).violation
    return violation is None, violation


def make_certificate(
    source: Graph,
    target: Graph,
    phi: Mapping,
    gamma,
    c,
    per_component: bool = False,
) -> QuasiIsometryCertificate:
    """Check (gamma, c) for φ.  The witness is the first violation when invalid,
    else the pair (or density vertex) with the least margin before violation."""
    cert = QuasiIsometryCertificate(source, target, dict(phi), Fraction(gamma), Fraction(c), False, None)
    scan = _scan(source, target, cert.phi, cert.gamma, cert.c, per_component)
    if scan.violation is not None:
        return replace(cert, worst_witness=scan.violation)
    return replace(cert, valid=True, worst_witness=scan.worst)


def tightest_certificate(
    source: Graph,
    target: Graph,
    phi: Mapping,
    gamma=1,
    per_component: bool = False,
) -> QuasiIsometryCertificate | None:
    """The valid certificate at the tightest c for ``gamma``: what
    ``make_certificate`` returns at that c, from one scan instead of two.
    None when no finite c works (per-component mode only)."""
    cert = QuasiIsometryCertificate(source, target, dict(phi), Fraction(gamma), 0, True, None)
    scan = _scan(source, target, cert.phi, cert.gamma, None, per_component)
    return None if scan.c is None else replace(cert, c=scan.c, worst_witness=scan.worst)


def tightest_constants(
    source: Graph,
    target: Graph,
    phi: Mapping,
    fixed_gamma=None,
    per_component: bool = False,
) -> tuple[Fraction, Fraction] | None:
    """The minimal constants making φ a quasi-isometry.

    With ``fixed_gamma``: the unique smallest c valid at that γ.  Without it:
    the smallest γ admitting a finite c, then the smallest such c.  On finite
    inputs every total map with all relevant distances finite is a (1, c)-
    quasi-isometry for c large enough, so the γ-minimisation always returns
    γ = 1; the candidate-ratio scan a continuous setting would need collapses.
    Returns None only in per-component mode, when some finite source distance
    maps to an infinite target distance or a target vertex cannot reach the
    image (no c can fix either).
    """
    cert = tightest_certificate(source, target, phi, 1 if fixed_gamma is None else fixed_gamma, per_component)
    return None if cert is None else (cert.gamma, cert.c)


def qi_compose(f: QuasiIsometryCertificate, g: QuasiIsometryCertificate) -> QuasiIsometryCertificate:
    """Certificate for g ∘ f with conservatively combined constants, re-tightened.

    Conservative constants: γ = γ₁γ₂ and c = γ₂c₁ + 2c₂ (the path through an
    intermediate image point costs one extra c₂ in the density argument).
    """
    if f.target != g.source:
        raise CompositionError("target of the first certificate must equal source of the second")
    if not (f.valid and g.valid):
        raise CompositionError("can only compose valid certificates")
    phi = {v: g.phi[f.phi[v]] for v in f.source.vertices}
    c = g.gamma * f.c + 2 * g.c
    tight = tightest_certificate(f.source, g.target, phi, f.gamma * g.gamma)
    return tight if tight.c <= c else make_certificate(f.source, g.target, phi, tight.gamma, c)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _fraction_str(x: Fraction) -> str:
    return str(x)  # "p/q" or "p"


def parse_fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"not a rational number: {text!r}") from exc


def certificate_to_dict(cert: QuasiIsometryCertificate) -> dict:
    from .graph import vertex_token

    return {
        "phi": {vertex_token(v): vertex_token(cert.phi[v]) for v in cert.source.sorted_vertices()},
        "gamma": _fraction_str(cert.gamma),
        "c": _fraction_str(cert.c),
        "valid": cert.valid,
        "witness": list(cert.worst_witness) if cert.worst_witness else [],
    }
