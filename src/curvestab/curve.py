"""Dual-graph models of weighted pointed nodal curves.

A curve is stored combinatorially: irreducible components with their
arithmetic genera, a multiset of nodes given as unordered pairs of
component ids, and marked smooth points carrying nonnegative rational
weights.  A pair naming one component twice is a self-node; it is folded
into that component's genus on construction, so the stored genus is always
the full arithmetic genus of the component and the stored node list only
contains cross-nodes.

Marks live on *sites*.  A site is a smooth point of one component; several
marks may share a site, subject to the total weight at the site staying
at most one.

Every subcurve invariant (genus, linking nodes, weighted dualizing degree,
mark weight) is read from one per-curve table, ``_Invariants``, which the
public functions here and in the scanning modules build at the start of a
call, never per subcurve.

All arithmetic is exact: weights are :class:`fractions.Fraction`, every
other quantity is an integer.  No float appears anywhere in this package.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

#: Hard bound on the number of components for the 2^r subcurve scans.
ENUMERATION_CAP = 24

#: A subcurve is a set of component ids.
Subcurve = frozenset


@dataclass(frozen=True)
class Component:
    id: str
    genus: int


@dataclass(frozen=True)
class MarkSite:
    id: str
    component: str


@dataclass(frozen=True)
class Mark:
    id: str
    site: str
    weight: Fraction


@dataclass(frozen=True)
class CurveModel:
    """Weighted pointed nodal curve given by its dual graph.

    ``nodes`` entries naming the same component twice are folded into that
    component's genus at construction time; afterwards ``nodes`` holds only
    cross-pairs, sorted for a canonical representation.
    """

    components: tuple[Component, ...]
    nodes: tuple[tuple[str, str], ...] = ()
    sites: tuple[MarkSite, ...] = ()
    marks: tuple[Mark, ...] = ()

    def __post_init__(self):
        comps = tuple(Component(c.id, int(c.genus)) for c in self.components)
        known = {c.id for c in comps}
        bump = {cid: 0 for cid in known}
        cross = []
        for a, b in self.nodes:
            if a == b and a in known:
                bump[a] += 1
            else:
                cross.append((a, b) if a <= b else (b, a))
        if any(bump.values()):
            comps = tuple(Component(c.id, c.genus + bump.get(c.id, 0)) for c in comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "nodes", tuple(sorted(cross)))
        object.__setattr__(self, "sites", tuple(MarkSite(s.id, s.component) for s in self.sites))
        object.__setattr__(
            self, "marks", tuple(Mark(m.id, m.site, Fraction(m.weight)) for m in self.marks)
        )

    # -- basic accessors -------------------------------------------------

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def genus_of(self, cid: str) -> int:
        for c in self.components:
            if c.id == cid:
                return c.genus
        raise KeyError(f"unknown component {cid!r}")

    def full_subcurve(self) -> Subcurve:
        return frozenset(self.component_ids)


@dataclass(frozen=True)
class Polarization:
    """Numerical class of an ample line bundle: one positive integer degree
    per component."""

    degrees: dict[str, int]

    def __post_init__(self):
        clean = {}
        for cid, d in self.degrees.items():
            d = int(d)
            if d < 1:
                raise ValueError(f"polarization degree {d} on {cid!r} is not ample")
            clean[cid] = d
        object.__setattr__(self, "degrees", clean)

    def of(self, cid: str) -> int:
        return self.degrees[cid]

    def deg(self, cids: Iterable[str]) -> int:
        return sum(self.degrees[c] for c in cids)

    @property
    def total(self) -> int:
        return sum(self.degrees.values())


@dataclass(frozen=True)
class Violation:
    code: str
    entity: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class WeightedClass:
    """Trichotomy of the intrinsic (polarization-free) weighted curve."""

    status: str  # "Stable" | "Semistable" | "NotSemistable"
    exceptional: tuple[str, ...] = ()
    witness: Optional[str] = None
    reason: Optional[str] = None


# ---------------------------------------------------------------------------
# validation


def validate_curve(curve: CurveModel) -> ValidationReport:
    """Check the model invariants and report every violation found.

    Never raises; the report carries the failures so callers can render
    them (the CLI turns them into JSON-pointer diagnostics).
    """
    violations = []
    ids = [c.id for c in curve.components]
    known = set(ids)
    if len(ids) != len(known):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(Violation("duplicate-component", ",".join(dupes), "duplicate component ids"))
    for c in curve.components:
        if c.genus < 0:
            violations.append(Violation("negative-genus", c.id, f"genus {c.genus} < 0"))
    for a, b in curve.nodes:
        for end in (a, b):
            if end not in known:
                violations.append(Violation("unknown-component", end, f"node endpoint {end!r} is not a component"))
    site_ids = [s.id for s in curve.sites]
    if len(site_ids) != len(set(site_ids)):
        violations.append(Violation("duplicate-site", "", "duplicate site ids"))
    for s in curve.sites:
        if s.component not in known:
            violations.append(Violation("unknown-component", s.id, f"site {s.id!r} on unknown component {s.component!r}"))
    mark_ids = [m.id for m in curve.marks]
    if len(mark_ids) != len(set(mark_ids)):
        violations.append(Violation("duplicate-mark", "", "duplicate mark ids"))
    per_site: dict[str, Fraction] = {}
    for m in curve.marks:
        if m.site not in site_ids:
            violations.append(Violation("unknown-site", m.id, f"mark {m.id!r} on unknown site {m.site!r}"))
            continue
        if m.weight < 0:
            violations.append(Violation("negative-weight", m.id, f"weight {m.weight} < 0"))
        per_site[m.site] = per_site.get(m.site, Fraction(0)) + m.weight
    for sid, tot in sorted(per_site.items()):
        if tot > 1:
            violations.append(Violation("site-overweight", sid, f"site overweight {tot} > 1"))
    if known and not violations_have(violations, "unknown-component", "duplicate-component"):
        if len(_connected_pieces(curve, frozenset(known))) > 1:
            violations.append(Violation("disconnected", "", "dual graph disconnected"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def violations_have(violations, *codes) -> bool:
    return any(v.code in codes for v in violations)


# ---------------------------------------------------------------------------
# genus / node / degree arithmetic over subcurves


class _Invariants:
    """Per-component genus, linking count (cross-node branches, so zero on
    an irreducible curve) and mark weight of one curve.  Dualizing degrees
    add up over components; a subcurve's genus follows from its dualizing
    degree and linking count.  Callers check the subcurves they pass."""

    def __init__(self, curve: CurveModel):
        self.full = curve.full_subcurve()
        self.nodes = curve.nodes
        self.genera = {c.id: c.genus for c in curve.components}
        self.links = Counter(end for node in curve.nodes for end in node)
        self.omegas = {c: 2 * g - 2 + self.links[c] for c, g in self.genera.items()}
        site_of = {s.id: s.component for s in curve.sites}
        self.weights: Counter = Counter()  # keys: the components carrying marks, of any weight
        for m in curve.marks:
            self.weights[site_of[m.site]] += m.weight
        self.total_weight = sum(self.weights.values(), Fraction(0))

    def linking(self, sub: Subcurve) -> int:
        """Nodes joining the subcurve to its complement (0 for the whole curve)."""
        return sum(1 for a, b in self.nodes if (a in sub) != (b in sub))

    def mark_weight(self, sub: Subcurve) -> Fraction:
        return sum((w for c, w in self.weights.items() if c in sub), Fraction(0))

    def omega(self, sub: Subcurve, weighted: bool = False) -> Fraction:
        """``2 g_Y - 2 + l_Y``, plus the mark weight on the subcurve when weighted."""
        val = Fraction(sum(self.omegas[c] for c in sub))
        return val + self.mark_weight(sub) if weighted else val

    def genus(self, sub: Subcurve) -> int:
        """``1 - chi(O_Y)``, also for disconnected subcurves."""
        return (sum(self.omegas[c] for c in sub) - self.linking(sub)) // 2 + 1


def _check_subcurve(curve: CurveModel, cids: Iterable[str]) -> Subcurve:
    sub = frozenset(cids)
    if not sub:
        raise ValueError("empty subcurve")
    unknown = sub - set(curve.component_ids)
    if unknown:
        raise ValueError(f"unknown components in subcurve: {sorted(unknown)}")
    return sub


def arithmetic_genus(curve: CurveModel, cids: Optional[Iterable[str]] = None) -> int:
    """Arithmetic genus of a subcurve, via the Euler characteristic.

    For a possibly disconnected subcurve the convention is
    ``g = 1 - chi(O)``, i.e. one minus the number of components plus the
    component genera plus the internal nodes.
    """
    sub = _check_subcurve(curve, curve.component_ids if cids is None else cids)
    return _Invariants(curve).genus(sub)


def linking_nodes(curve: CurveModel, cids: Iterable[str]) -> int:
    """Number of nodes joining the subcurve to its complement."""
    sub = _check_subcurve(curve, cids)
    if sub == curve.full_subcurve():
        raise ValueError("subcurve must be proper")
    return _Invariants(curve).linking(sub)


def omega_degree(curve: CurveModel, cids: Optional[Iterable[str]] = None, weighted: bool = False) -> Fraction:
    """Degree of the dualizing sheaf restricted to a subcurve.

    The unweighted value is ``2 g_Y - 2 + l_Y`` (with ``g_Y = 1 - chi(O_Y)``
    this single formula also covers disconnected subcurves); the weighted
    value adds the weights of the marks sitting on the subcurve.
    """
    sub = _check_subcurve(curve, curve.component_ids if cids is None else cids)
    return _Invariants(curve).omega(sub, weighted)


def _connected_pieces(curve: CurveModel, sub: Subcurve) -> list[Subcurve]:
    adj: dict[str, set[str]] = {c: set() for c in sub}
    for a, b in curve.nodes:
        if a in sub and b in sub:
            adj[a].add(b)
            adj[b].add(a)
    pieces, seen = [], set()
    for start in sorted(sub):
        if start in seen:
            continue
        stack, piece = [start], set()
        while stack:
            v = stack.pop()
            if v in piece:
                continue
            piece.add(v)
            stack.extend(adj[v] - piece)
        seen |= piece
        pieces.append(frozenset(piece))
    return pieces


def is_connected(curve: CurveModel, cids: Iterable[str]) -> bool:
    sub = _check_subcurve(curve, cids)
    return len(_connected_pieces(curve, sub)) == 1


def subcurves(
    curve: CurveModel,
    proper_only: bool = True,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> list[Subcurve]:
    """Deterministic enumeration of nonempty component subsets.

    Subsets come out in lexicographic order of their sorted id tuples.
    """
    ids = sorted(curve.component_ids)
    r = len(ids)
    if r > cap:
        raise ValueError(f"enumeration cap exceeded: {r} components > {cap}")
    subsets = []
    for size in range(1, r + 1):
        if proper_only and size == r:
            continue
        subsets.extend(itertools.combinations(ids, size))
    subsets.sort()
    out = [frozenset(t) for t in subsets]
    if connected_only:
        out = [s for s in out if is_connected(curve, s)]
    return out


# ---------------------------------------------------------------------------
# intrinsic classification and stabilization


def classify_weighted(curve: CurveModel) -> WeightedClass:
    """Classify the weighted curve by the sign pattern of the weighted
    dualizing degrees of its components.

    A component of weighted degree zero must be an unmarked rational curve
    (it then has exactly two linking nodes and is called exceptional);
    anything negative, or a marked/positive-genus degree-zero component,
    or a nonpositive total degree, disqualifies the curve.
    """
    inv = _Invariants(curve)
    exceptional = []
    for cid in sorted(curve.component_ids):
        wdeg = inv.omega({cid}, weighted=True)
        if wdeg < 0:
            return WeightedClass(
                "NotSemistable", witness=cid,
                reason=f"component weighted degree {wdeg} < 0")
        if wdeg == 0:
            if inv.genera[cid] > 0 or cid in inv.weights:
                return WeightedClass(
                    "NotSemistable", witness=cid,
                    reason="degree-zero component is not an unmarked rational curve")
            exceptional.append(cid)
    total = inv.omega(inv.full, weighted=True)
    if total <= 0:
        return WeightedClass("NotSemistable", witness=None,
                             reason=f"total weighted degree {total} <= 0")
    if exceptional:
        return WeightedClass("Semistable", exceptional=tuple(exceptional))
    return WeightedClass("Stable")


def _contract(curve: CurveModel, cid: str) -> CurveModel:
    neighbours = []
    remaining = []
    for a, b in curve.nodes:
        if a == cid and b == cid:  # impossible after self-node folding
            raise AssertionError("self-node survived folding")
        if a == cid:
            neighbours.append(b)
        elif b == cid:
            neighbours.append(a)
        else:
            remaining.append((a, b))
    if len(neighbours) != 2:
        raise ValueError(f"component {cid!r} is not exceptional: {len(neighbours)} linking nodes")
    # The new pair may name one component twice; the constructor folds that
    # into a genus increment, which is exactly the contraction of a loop.
    remaining.append((neighbours[0], neighbours[1]))
    comps = tuple(c for c in curve.components if c.id != cid)
    sites = tuple(s for s in curve.sites if s.component != cid)
    return CurveModel(comps, tuple(remaining), sites, curve.marks)


def stabilize(curve: CurveModel) -> CurveModel:
    """Contract exceptional components until none remain.

    Requires the curve to classify as Stable or Semistable; arithmetic
    genus and the marks are preserved, and the result is a fixpoint.
    """
    current = curve
    while True:
        cls = classify_weighted(current)
        if cls.status == "NotSemistable":
            raise ValueError(f"cannot stabilize: {cls.reason}")
        if not cls.exceptional:
            return current
        current = _contract(current, cls.exceptional[0])
