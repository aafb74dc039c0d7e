"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data, so the same
seed gives the same inputs.  Dense systems keep only the terms that lie in
the irrelevant ideal of the fan; nothing else is filtered, so whatever the
pipeline rejects afterwards is measured as a refusal.
"""

from __future__ import annotations

import math

from toricres import MultiPoly, make_fan, monomial_basis
from toricres.residues import irrelevant_ideal

COEFFS = [c for c in range(-9, 10) if c]


def projective_fan(n: int):
    """Fan of P^n: rays -(1,..,1), e_1, .., e_n; every n-subset is a cone."""
    rays = [[-1] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    return make_fan(n, rays, cones, variables=[f"x{i}" for i in range(n + 1)])


def degree_monomials(fan, grading, degree):
    """Monomials of a degree class that lie in the irrelevant ideal."""
    gens = irrelevant_ideal(fan)
    return [m for m in monomial_basis(fan, grading, degree)
            if any(all(a <= b for a, b in zip(g, m)) for g in gens)]


def dense_poly(nvars: int, monomials, rng) -> MultiPoly:
    return MultiPoly(nvars, {m: rng.choice(COEFFS) for m in monomials})


def dense_system(fan, grading, degree, rng):
    """n+1 dense forms of one degree class, terms restricted to B(fan)."""
    mons = degree_monomials(fan, grading, degree)
    return [dense_poly(fan.nvars, mons, rng) for _ in range(fan.dim + 1)]


def power_system(n: int, rng):
    """(x_0^d_0, .., x_n^d_n) on P^n with a random critical monomial x^a."""
    d = tuple(rng.randint(1, 3) for _ in range(n + 1))
    total = sum(d) - (n + 1)
    a = [0] * (n + 1)
    for _ in range(total):
        a[rng.randrange(n + 1)] += 1
    if rng.random() < 0.5:
        a = [x - 1 for x in d]
    return d, tuple(a)


def power_residue(a, d) -> int:
    """Closed form for x^a against (x_i^d_i) on P^n: 1 iff a_i = d_i - 1.

    Same formula as ``power_system_residue`` in the repository's test
    oracles, restated here so the benchmark does not import test code.
    """
    return int(all(x == y - 1 for x, y in zip(a, d)))


# ---------------------------------------------------------------------------
# random complete simplicial surfaces with a known ample divisor


def _angle(v):
    return math.atan2(v[1], v[0]) % (2 * math.pi)


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _edge_lengths(rays):
    """Small positive integers l_i with sum l_i v_i = 0.

    Take l = k*(1, .., 1) plus a nonnegative integer combination of at most
    two rays equal to -k * sum v_i, for the least k that admits one, and
    among those the combination of least total.
    """
    nrays = len(rays)
    s = (sum(v[0] for v in rays), sum(v[1] for v in rays))
    if s == (0, 0):
        return [1] * nrays
    for k in range(1, 1000):
        t = (-k * s[0], -k * s[1])
        best = None
        for i in range(nrays):
            for j in range(i + 1, nrays):
                det = _det(rays[i], rays[j])
                if det == 0:
                    continue
                alpha, ra = divmod(_det(t, rays[j]), det)
                beta, rb = divmod(_det(rays[i], t), det)
                if ra or rb or alpha < 0 or beta < 0:
                    continue
                if best is None or alpha + beta < best[0]:
                    best = (alpha + beta, i, j, alpha, beta)
        if best is not None:
            _, i, j, alpha, beta = best
            lengths = [k] * nrays
            lengths[i] += alpha
            lengths[j] += beta
            return lengths
    raise AssertionError("no integral edge lengths found")


def random_surface(nrays: int, rng, draws: int = 5):
    """The draw with the median polygon size among ``draws`` surfaces.

    Polygon sizes of single draws spread widely, and the polytope layers
    cost in proportion to them; the median draw keeps the cost of a round
    steady from seed to seed.
    """
    cands = sorted((_surface(nrays, rng) for _ in range(draws)),
                   key=lambda s: s["points"])
    return cands[draws // 2]


def _surface(nrays: int, rng):
    """Rays, cones and an ample polygon for a random complete 2-D fan.

    The rays are distinct primitive vectors sorted by angle, with every gap
    below pi; consecutive rays span the maximal cones.  The polygon has the
    rays as inner edge normals, with integer edge lengths l_i solving
    sum l_i v_i = 0, so its divisor a_i = -<p_i, v_i> is ample and Cartier.
    Returns a dict with rays, cones, divisor, twice the area and the
    lattice point count (Pick's theorem), all exact.
    """
    box = 2
    while True:
        cands = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
                 if (x, y) != (0, 0) and math.gcd(x, y) == 1]
        if len(cands) >= 2 * nrays:
            break
        box += 1
    while True:
        rays = sorted(rng.sample(cands, nrays), key=_angle)
        gaps_ok = all(_det(rays[i], rays[(i + 1) % nrays]) > 0
                      for i in range(nrays))
        if gaps_ok:
            break
    lengths = _edge_lengths(rays)
    p = (0, 0)
    verts = []
    divisor = []
    for v, ell in zip(rays, lengths):
        verts.append(p)
        divisor.append(-(p[0] * v[0] + p[1] * v[1]))
        p = (p[0] + ell * v[1], p[1] - ell * v[0])
    assert p == (0, 0)
    twice_area = sum(_det(verts[i], verts[(i + 1) % nrays]) for i in range(nrays))
    boundary = sum(lengths)
    points = (twice_area + boundary) // 2 + 1
    cones = [sorted((i, (i + 1) % nrays)) for i in range(nrays)]
    return {"rays": rays, "cones": cones, "divisor": divisor,
            "twice_area": twice_area, "points": points}
