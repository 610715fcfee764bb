"""Quasi-isometry certification for explicit vertex maps.

A map φ: V(G) → V(H) is a (γ, c)-quasi-isometry when
(i)  (1/γ)·d_G(u,v) − c ≤ d_H(φu, φv) ≤ γ·d_G(u,v) + c for all u, v, and
(ii) every vertex of H lies within distance c of the image of φ.

Constants are exact ``fractions.Fraction`` values at the API boundary, so
the boundary cases are decided without rounding; every γ and c enters through
``parse_fraction``, which refuses what is not a finite rational with
StructuralError.  Inside, one exact scan compares integers: with γ = p/q,
every requirement on c is scaled by p·q.  It reads the pairs off bit-parallel
ball levels of both graphs, one bit per source vertex, instead of one BFS per
source vertex.

An isomorphism of a connected source onto the target, such as φ of a
connected one-part planar host (H is the host renamed), needs no ball level:
it is decided in O(n + m) from the neighbour lists.  When each image is the
target's own vertex object at the source vertex's id, as
``construction.build_H`` makes it there, the image ids are read by one
identity test over the lists, with no lookup per vertex, so such a
certificate costs C-level passes and that linear test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import is_
from typing import Callable, Mapping, NamedTuple

from .errors import CompositionError, GraphToolError, StructuralError, UnknownVertexError
from .graph import Graph, bit_ids, vertex_token


class ConnectivityError(GraphToolError, ValueError):
    """Infinite distances would enter the verification and per-component mode is off."""


class _Certificate(NamedTuple):
    source: Graph
    target: Graph
    phi: dict
    gamma: Fraction
    c: Fraction
    valid: bool
    worst_witness: tuple | None  # pair of source vertices, or a lone target vertex


class QuasiIsometryCertificate(_Certificate):
    """Checked on every construction, ``_replace`` too: Fraction constants with gamma ≥ 1 and c ≥ 0."""

    __slots__ = ()

    def __new__(cls, source: Graph, target: Graph, phi: dict, gamma, c, valid: bool, worst_witness: tuple | None):
        gamma, c = _constants(gamma, c)
        return super().__new__(cls, source, target, phi, gamma, c, valid, worst_witness)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _constants(gamma, c) -> tuple[Fraction, Fraction]:
    """gamma and c as Fractions, each through ``parse_fraction``; gamma < 1 or c < 0 is refused."""
    gamma, c = parse_fraction(gamma), parse_fraction(c)
    if gamma < 1:
        raise StructuralError("gamma must be ≥ 1")
    if c < 0:
        raise StructuralError("c must be ≥ 0")
    return gamma, c


def _check_map(source: Graph, target: Graph, phi: Mapping) -> list:
    """The source ids' image ids, refusing at the key-least vertex a map that misses it or sends it off the target.
    When each image is the target's own object at the source vertex's id (``is``, so True for 1 is no match),
    the ids are the identity, read in one pass with no lookup in the target; else each image is looked up."""
    n = len(source.order)
    if len(target.order) >= n and all(map(is_, map(phi.get, source.order), target.order)):
        return list(range(n))
    img = []
    for v in source.order:
        if v not in phi:
            raise StructuralError(f"phi is not total: missing {v!r}")
        img.append(target.own_id(phi[v]))
        if img[-1] is None:
            raise UnknownVertexError(repr(phi[v]))
    return img


def _is_isomorphism(source: Graph, target: Graph, img: list) -> bool:
    """Whether source id i ↦ target id ``img[i]`` is an isomorphism: n target vertices, distinct images,
    each neighbour list mapped its image's.  Lists are sorted, so the identity needs no sort."""
    n = len(img)
    if len(target.order) != n:
        return False
    if img == list(range(n)):
        return source.nbrs == target.nbrs
    return len(set(img)) == n and all(sorted(map(img.__getitem__, js)) == target.nbrs[y]
                                      for js, y in zip(source.nbrs, img))


class _Scan(NamedTuple):
    c: Fraction | None                             # tightest c at the scanned γ; None when no c works
    worst: Callable[[], tuple | None]              # first entry of largest requirement, found when called
    violation: Callable[[Fraction], tuple | None]  # first entry whose requirement exceeds the given c, if any


def _scan(source: Graph, target: Graph, phi: Mapping, gamma: Fraction, per_component: bool) -> _Scan:
    """The requirements of the pairs u < v of source vertices, then of the
    target vertices, both in sorted order.  A pair requires c ≥ max(d_H −
    γ·d_G, d_G/γ − d_H), a target vertex c ≥ its distance to the image; with
    γ = p/q both are integers once scaled by p·q.  An infinite distance raises
    ConnectivityError unless per_component is on; then a pair across source
    components requires −inf, and any other infinite distance +inf.

    Each source vertex owns one bit.  Ball levels in G give A_v(r), the sources
    within r of v; ball levels in H seeded at the images give C_v(b), the
    sources whose image is within b of φ(v).  For r = 1 .. ecc(v), two forward
    pointers into the H levels give the largest d_H among sources with d_G ≤ r
    (the least b with A_v(r) ⊆ C_v(b)) and the least among those with d_G ≥ r,
    hence max_u(p·q·d_H − p²·d_G) and max_u(q²·d_G − p·q·d_H) exactly for every
    γ; H levels below the lower pointer are dropped.  The first entry meeting a
    condition is the least id i whose row maximum meets it, with the least
    j > i read off one BFS row on each side, else the least target vertex.

    Connectivity is decided at id 0: a pair at an infinite distance exists
    iff one holds 0.  If the source is split, some j lies outside 0's
    component; if it is connected but the images are split, some j has its
    image outside φ(0)'s component.  So the first such pair is (0, j), j least.

    An isomorphism φ of a connected source onto the target
    (``_is_isomorphism``) is decided first, in O(n + m), and reads no ball
    level: d_H(φu, φv) = d_G(u, v), so with γ = p/q ≥ 1 a pair's scaled
    requirement is q·(q − p)·d_G.  A row maximum is then 0 at γ = 1 when
    n > 1, else −inf, and every target vertex is an image, requiring 0.  No
    distance is infinite, so no per-source list is built and no connectivity
    check runs.  An isomorphism of a disconnected source is scanned like any
    other map.
    """
    img = _check_map(source, target, phi)
    p, q = gamma.numerator, gamma.denominator
    pq, pp, qq = p * q, p * p, q * q
    n = len(source.order)
    if len(source.component_masks) == 1 and _is_isomorphism(source, target, img):  # no distance is infinite
        top = [0 if p == q and n > 1 else -math.inf] * n
        dens = [0] * n
    else:
        bit = [1 << i for i in range(n)]
        seeds = [0] * len(target.order)
        for i, y in enumerate(img):
            seeds[y] |= bit[i]
        full = (1 << n) - 1
        # i's G-component; the sources with images in φ(i)'s H-component.
        comp, reach = [0] * n, [0] * n
        for mask in source.component_masks:
            for i in bit_ids(mask):
                comp[i] = mask
        for mask in target.component_masks:
            srcs = sum(seeds[y] for y in bit_ids(mask))
            for i in bit_ids(srcs):
                reach[i] = srcs
        later = full ^ comp[0] & reach[0] if n and not per_component else 0  # the first pair at an infinite distance
        if later:
            j = (later & -later).bit_length() - 1
            u, v = source.order[0], source.order[j]
            if not comp[0] >> j & 1:
                raise ConnectivityError(f"{u!r} and {v!r} are in different components of the source")
            raise ConnectivityError(f"images of {u!r} and {v!r} are in different components of the target")
        row = target.distance_row(set(img))
        if -1 in row and not per_component:
            raise ConnectivityError(f"target vertex {target.order[row.index(-1)]!r} cannot reach the image")
        dens = [pq * d if d >= 0 else math.inf for d in row]
        # Row maxima: +inf when i's component meets another H-component, −inf with no partner.
        top = [math.inf if comp[i] & ~reach[i] else -math.inf for i in range(n)]
        walk = [i for i in range(n) if top[i] == -math.inf and comp[i] != bit[i]]
        ball, levels = source.ball_levels(bit), target.ball_levels(seeds)
        near = [next(levels)]  # the H levels made so far; None below the lowest close pointer
        prev, t, dropped = next(ball), 0, 0
        far, close = [0] * n, [0] * n  # the two pointers of each source
        while walk:
            t += 1
            level, keep = next(ball), []
            for i in walk:
                a, y, b = level[i], img[i], far[i]
                while a & near[b][y] != a:  # i's own bit lies in C_v(b) for every b
                    b += 1
                    if b == len(near):
                        near.append(next(levels))
                far[i] = b
                if pq * b - pp * t > top[i]:
                    top[i] = pq * b - pp * t
                s, b = comp[i] ^ prev[i], close[i]  # close[i] ≤ far[i], so its level is made
                while not s & near[b][y]:
                    b += 1
                close[i] = b
                if qq * t - pq * b > top[i]:
                    top[i] = qq * t - pq * b
                if a != comp[i]:
                    keep.append(i)
            walk, prev = keep, level
            low = min(map(close.__getitem__, walk), default=dropped)
            while dropped < low:
                near[dropped] = None
                dropped += 1

    def first(hit) -> tuple | None:
        i = next((i for i in range(n) if hit(top[i])), None)
        if i is None:
            return next(((target.order[y],) for y, r in enumerate(dens) if hit(r)), None)
        gs, hs = source.distance_row([i]), target.distance_row([img[i]])
        for j in range(i + 1, n):
            g, h = gs[j], hs[img[j]]
            if hit(-math.inf if g < 0 else math.inf if h < 0 else max(pq * h - pp * g, qq * g - pq * h)):
                return source.order[i], source.order[j]

    def violation(c: Fraction) -> tuple | None:
        limit = pq * c.numerator // c.denominator  # an integer exceeds p·q·c exactly when it exceeds this floor
        return first(lambda r: r > limit)

    best = max(top + dens, default=0)  # every image requires 0, so best ≥ 0
    return _Scan(None if best == math.inf else Fraction(best, pq), lambda: first(lambda r: r >= best), violation)


def qi_verify(cert: QuasiIsometryCertificate, per_component: bool = False) -> tuple[bool, tuple | None]:
    """Check conditions (i) and (ii) for the certificate's (gamma, c).

    Returns (ok, witness): the witness is the first violating vertex pair or a
    lone target vertex violating density, None when valid.
    """
    violation = _scan(cert.source, cert.target, cert.phi, cert.gamma, per_component).violation(cert.c)
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
    cert = QuasiIsometryCertificate(source, target, dict(phi), gamma, c, False, None)
    scan = _scan(source, target, cert.phi, cert.gamma, per_component)
    violation = scan.violation(cert.c)
    if violation is not None:
        return cert._replace(worst_witness=violation)
    return cert._replace(valid=True, worst_witness=scan.worst())


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
    cert = QuasiIsometryCertificate(source, target, dict(phi), gamma, 0, True, None)
    scan = _scan(source, target, cert.phi, cert.gamma, per_component)
    return None if scan.c is None else cert._replace(c=scan.c, worst_witness=scan.worst())


def tightest_constants(
    source: Graph,
    target: Graph,
    phi: Mapping,
    fixed_gamma=1,
    per_component: bool = False,
) -> tuple[Fraction, Fraction] | None:
    """γ = ``fixed_gamma`` and the unique smallest c making φ a (γ, c)-quasi-isometry.

    Returns None only in per-component mode, when some finite source distance
    maps to an infinite target distance or a target vertex cannot reach the
    image (no c can fix either).
    """
    gamma, _ = _constants(fixed_gamma, 0)
    c = _scan(source, target, phi, gamma, per_component).c  # no witness: none is returned
    return None if c is None else (gamma, c)


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


def parse_fraction(value) -> Fraction:
    """``value`` as an exact Fraction: a number, or text such as "3/2".  Anything that is
    not a finite rational (None, True, "x", "1/0", inf, nan) raises StructuralError."""
    try:
        if isinstance(value, bool):  # Fraction reads it as 0 or 1, but here it is a flag passed for a constant
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise StructuralError(f"not a rational number: {value!r}") from exc


def certificate_to_dict(cert: QuasiIsometryCertificate) -> dict:
    return {
        "phi": {vertex_token(v): vertex_token(cert.phi[v]) for v in cert.source.sorted_vertices()},
        "gamma": str(cert.gamma),  # "p/q" or "p"
        "c": str(cert.c),
        "valid": cert.valid,
        "witness": list(cert.worst_witness) if cert.worst_witness else [],
    }
