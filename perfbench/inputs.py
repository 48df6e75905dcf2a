"""Seeded input generators for the benchmark.

Everything here is plain data: curves are dicts in the curve JSON schema
of the command line, polarizations and degree vectors are ``{id: int}``
dicts, subgroup data are dicts in the datum JSON schema.  The program
only ever sees these generated values, so the same ``--seed`` gives the
same inputs, byte for byte.

Polarizations are built from the weighted dualizing degrees, whose
subcurve values are additive over components.  With every component
carrying weight 0 or 2 (six marks of weight 1/3), the degree
``k * omega_C - w_C / 2`` is an integer and sits exactly at the centre of
every subcurve window, so the canonical polarization is Stable; moving
degree along nodes from there gives boundary and unstable inputs whose
witnesses are known in advance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import Bitmasks

MARK_WEIGHT = "1/3"
MARKS_PER_COMPONENT = 6  # six marks of weight 1/3: w_C = 2, so w_C / 2 is an integer


def _ids(r: int) -> list[str]:
    # Unpadded ids, so lexicographic order (the documented witness order)
    # differs from numeric order once r >= 10.
    return [f"C{i + 1}" for i in range(r)]


def curve_spec(rng: random.Random, shape: str, r: int, marked: bool) -> dict:
    """Connected curve of one of three dual-graph shapes.

    Every component gets a positive weighted dualizing degree, which the
    canonical polarization needs: chains and cycles have genus 1 or 2 on
    each component, dense graphs genus 0 or 1 with at least three nodes
    per component.
    """
    ids = _ids(r)
    nodes = [[ids[i], ids[i + 1]] for i in range(r - 1)]
    if shape in ("cycle", "dense"):
        nodes.append([ids[-1], ids[0]])
    if shape == "dense":
        for i in range(r):
            j = (i + 2 + rng.randrange(r - 3)) % r
            nodes.append([ids[i], ids[j]])
    low = 0 if shape == "dense" else 1
    comps = [{"id": cid, "genus": rng.randint(low, low + 1)} for cid in ids]
    sites, marks = [], []
    if marked:
        # two components, so the mark count (and the scan cost) is the same
        # for every seed
        for cid in sorted(rng.sample(ids, 2)):
            for s in range(MARKS_PER_COMPONENT // 2):
                sid = f"s{cid}_{s}"
                sites.append({"id": sid, "component": cid})
                for t in range(2):
                    marks.append({"id": f"x{cid}_{s}{t}", "site": sid, "weight": MARK_WEIGHT})
    return {"components": comps, "nodes": nodes, "sites": sites, "marks": marks}


def canonical_polarization(spec: dict, k: int) -> dict[str, int]:
    """Degrees ``k * omega_C - w_C / 2``: every subcurve degree equals its
    window centre, so the polarization is Stable.  With ``k >= 4`` every
    component also clears the section-count guard ``2 g + l + 1``."""
    bm = Bitmasks(spec)
    degs = {}
    for i, cid in enumerate(bm.ids):
        one = 1 << i
        val = Fraction(2 * k * bm.omega_scaled(one) - bm.w[one], 2 * bm.L)
        if val.denominator != 1 or val < 1:
            raise ValueError(f"non-integral canonical degree {val} on {cid}")
        degs[cid] = int(val)
    return degs


def shift(degrees: dict[str, int], src: str, dst: str, units: int) -> dict[str, int]:
    out = dict(degrees)
    out[src] -= units
    out[dst] += units
    return out


def linking_rows(spec: dict) -> dict[str, dict[str, int]]:
    ids = [c["id"] for c in spec["components"]]
    rows = {a: {b: 0 for b in ids} for a in ids}
    for a, b in spec["nodes"]:
        if a == b:
            continue
        rows[a][b] += 1
        rows[b][a] += 1
        rows[a][a] -= 1
        rows[b][b] -= 1
    return rows


def displaced(spec: dict, degrees: dict[str, int], rng: random.Random, spread: int) -> dict[str, int]:
    """A vector in the degree class of ``degrees``, moved by a random
    integer combination of linking-matrix rows."""
    rows = linking_rows(spec)
    out = dict(degrees)
    for cid in rows:
        b = rng.randint(-spread, spread)
        for other, val in rows[cid].items():
            out[other] += b * val
    return out


def literal(assign: dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in assign.items())


# ---------------------------------------------------------------------------
# the weight side


def small_curve_spec(rng: random.Random, r: int, marked: bool) -> dict:
    """Chain of ``r <= 4`` components of genus 1 or 2, optionally with one
    weight-1/2 mark on the last component."""
    ids = _ids(r)
    comps = [{"id": cid, "genus": rng.randint(1, 2)} for cid in ids]
    nodes = [[ids[i], ids[i + 1]] for i in range(r - 1)]
    sites, marks = [], []
    if marked:
        sites.append({"id": "p1", "component": ids[-1]})
        marks.append({"id": "x1", "site": "p1", "weight": "1/2"})
    return {"components": comps, "nodes": nodes, "sites": sites, "marks": marks}


def two_weight_datum_json(spec: dict, degrees: dict[str, int], sub: list[str]) -> dict:
    """The two-weight subgroup datum toward ``sub``, in the datum JSON
    schema, built here from the definition rather than by the program.

    Weight one on the first ``m0 + 1`` sections, zero on the rest, with
    ``m + 1 = d + 1 - g`` and ``m0 + 1 = d_Y + 1 - g_Y``.  Inside
    components get one constant profile of width ``d_C``; each linking
    node puts a unit-triangle profile on its outside branch; outside
    components are padded with simple zeros up to their degree.
    """
    inside = set(sub)
    bm = Bitmasks(spec)
    mask = sum(1 << i for i, cid in enumerate(bm.ids) if cid in inside)
    m = sum(degrees.values()) - bm.g[bm.full]
    m0 = sum(degrees[c] for c in inside) - bm.g[mask]
    profiles = []
    for cid in sorted(inside):
        profiles.append({"id": f"span_{cid}", "component": cid, "kind": "smooth",
                         "vanish": [degrees[cid]] * (m0 + 1)})
    branch = [0] * (m0 + 1) + [1] * (m - m0)
    used = {cid: 0 for cid in bm.ids if cid not in inside}
    link = 0
    for a, b in spec["nodes"]:
        if (a in inside) == (b in inside):
            continue
        out = b if a in inside else a
        profiles.append({"id": f"link{link}_{out}", "component": out,
                         "kind": f"node-branch:{a}~{b}#{link}", "vanish": branch})
        used[out] += 1
        link += 1
    fill = [0] * m + [1]
    for cid in sorted(used):
        for j in range(degrees[cid] - used[cid]):
            profiles.append({"id": f"fill{j}_{cid}", "component": cid, "kind": "smooth",
                             "vanish": fill})
    site_comp = {s["id"]: s["component"] for s in spec["sites"]}
    imax = {mk["id"]: (m0 if site_comp[mk["site"]] in inside else m) for mk in spec["marks"]}
    hbar = {cid: (m0 if cid in inside else m) for cid in bm.ids}
    out = {"m": m, "rho": [1] * (m0 + 1) + [0] * (m - m0), "hbar": hbar, "profiles": profiles}
    if imax:
        out["imax"] = imax
    return out


GAMMA_WIDTH = 6


def gamma_points(rng: random.Random) -> list[tuple[int, int]]:
    """Lattice points with one on the weight axis, all heights positive
    and no abscissa past ``GAMMA_WIDTH``.

    Every polygon vertex is then a lattice point, so the lattice counts of
    the dilates are an Ehrhart polynomial, and the polygon always reaches
    the strip edge, so the column count (the oracle's cost) is the same
    for every seed.
    """
    pts = {(0, rng.randint(5, 9))}
    for _ in range(3):
        pts.add((rng.randint(1, GAMMA_WIDTH), rng.randint(1, 6)))
    return sorted(pts)


def gamma_literal(points: list[tuple[int, int]]) -> str:
    return ";".join(f"{x},{y}" for x, y in points)
