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
mark weight) and each mark's component is read from one per-curve table,
``_Invariants``, which each public function that reads a curve, on the
slope and the weight side alike, builds once at the start of a call, never
per subcurve.  One generator, ``_faults``, lists a curve's violations in
order, each with the JSON pointer of the faulty element: ``validate_curve``
collects them, the JSON reader raises the first, and the table, whose own
cheap size and subset tests decide whether the curve is sound, raises the
first that leaves one of its numbers undefined (a node, site or mark that
names nothing, or an id that names two components, sites or marks) as one
``ValueError``, after a polarization that does not cover the curve and
before any invariant is read.
Every 2^r scan reads its ``walk``: a depth-first
pass over the proper subcurves as bitmasks, in lexicographic order of their
sorted id tuples, that keeps integer sums (dualizing degree, mark weight
times D, degree, linking count) and
updates them by one component per step, so a subcurve costs a few integer
additions; a frozenset is built only for a subcurve a caller reports.
The table keeps each number once: the mark weights as integers over D,
the lcm of the marks' own weight denominators (``denom``, ``scaled``),
and the nodes as one list of position pairs over the sorted ids
(``pairs``), built in its constructor and read by every scan.
A scan whose margin is a zero-sum weight over components plus a positive
multiple of the linking count first reads the sign of its least value over
every proper subcurve from one maximum flow (``cut_sign``; Picard and
Ratliff, 1975; Picard and Queyranne, 1980).

All arithmetic is exact: weights are :class:`fractions.Fraction`, every
other quantity is an integer.  No float appears anywhere in this package.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def _integer(value, what: str) -> int:
    """``value``, or a ``ValueError`` naming ``what`` unless it is an
    ``int``: a float or a ``Fraction`` is never truncated, and a ``bool``
    is not a number here."""
    if type(value) is int:
        return value
    raise ValueError(f"{what} is not an integer: {value!r}")


def _integers(values, what: str):
    """``values``, a dict or a sequence, once each of its entries is an
    ``int`` (``_integer``'s rule).  One pass checks the types; only on
    failure is the first other entry found and named, by ``what`` and, in
    a dict, its key."""
    keyed = type(values) is dict
    if {*map(type, values.values() if keyed else values)} <= {int}:
        return values
    for key, value in values.items() if keyed else enumerate(values):
        if type(value) is not int:
            _integer(value, f"{what} on {key!r}" if keyed else what)


def _weight(mark: Mark) -> Fraction:
    """A mark's weight as a ``Fraction``, or a ``ValueError`` naming the mark
    unless it is an ``int`` (not a ``bool``) or a ``Fraction``: a float is
    not taken at its binary value, nor a string parsed."""
    if type(mark.weight) in (int, Fraction):
        return Fraction(mark.weight)
    raise ValueError(f"weight of mark {mark.id!r} is not an exact rational: {mark.weight!r}")


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
        comps = tuple(Component(c.id, _integer(c.genus, f"genus of {c.id!r}")) for c in self.components)
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
        object.__setattr__(self, "marks", tuple(Mark(m.id, m.site, _weight(m)) for m in self.marks))

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
            d = _integer(d, f"polarization degree on {cid!r}")
            if d < 1:
                raise ValueError(f"polarization degree {d} on {cid!r} is not ample")
            clean[cid] = d
        object.__setattr__(self, "degrees", clean)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.degrees.items())))

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
    them (the CLI turns the first into a JSON-pointer diagnostic).
    """
    violations = tuple(v for _, v in _faults(curve))
    return ValidationReport(ok=not violations, violations=violations)


#: Violation codes that leave some number of the invariants table undefined.
_BROKEN = frozenset({"duplicate-component", "unknown-component", "duplicate-site", "unknown-site", "duplicate-mark"})


def _faults(curve: CurveModel):
    """Iterator of ``(pointer, violation)`` over the curve's violations, in
    ``validate_curve``'s order.  The pointer is the JSON pointer of the
    faulty element in the curve's file: ``/nodes`` as a whole for a node,
    since the model sorts the nodes and folds self-nodes, and ``/`` for an
    id named twice or a disconnected curve."""
    ids = [c.id for c in curve.components]
    known = {c: i for i, c in enumerate(ids)}  # id -> position
    resolved = len(ids) == len(known)  # every component id and reference to one is sound
    if not ids:
        yield "/components", Violation("no-components", "", "curve has no components")
    if not resolved:
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        yield "/", Violation("duplicate-component", ",".join(dupes), "duplicate component ids")
    for i, c in enumerate(curve.components):
        if c.genus < 0:
            yield f"/components/{i}", Violation("negative-genus", c.id, f"genus {c.genus} < 0")
    for a, b in curve.nodes:
        for end in (a, b):
            if end not in known:
                resolved = False
                yield "/nodes", Violation("unknown-component", end, f"node endpoint {end!r} is not a component")
    site_at = {s.id: i for i, s in enumerate(curve.sites)}
    if len(site_at) != len(curve.sites):
        yield "/", Violation("duplicate-site", "", "duplicate site ids")
    for i, s in enumerate(curve.sites):
        if s.component not in known:
            resolved = False
            yield f"/sites/{i}", Violation(
                "unknown-component", s.id, f"site {s.id!r} on unknown component {s.component!r}")
    if len({m.id for m in curve.marks}) != len(curve.marks):
        yield "/", Violation("duplicate-mark", "", "duplicate mark ids")
    per_site: dict[str, Fraction] = {}
    for i, m in enumerate(curve.marks):
        if m.site not in site_at:
            yield f"/marks/{i}", Violation("unknown-site", m.id, f"mark {m.id!r} on unknown site {m.site!r}")
            continue
        if m.weight < 0:
            yield f"/marks/{i}", Violation("negative-weight", m.id, f"weight {m.weight} < 0")
        per_site[m.site] = per_site.get(m.site, Fraction(0)) + m.weight
    for sid, tot in sorted(per_site.items()):
        if tot > 1:
            yield f"/sites/{site_at[sid]}", Violation("site-overweight", sid, f"site overweight {tot} > 1")
    if known and resolved and not _spans((1 << len(ids)) - 1, _neighbours(
            len(ids), [(known[a], known[b]) for a, b in curve.nodes])):
        yield "/", Violation("disconnected", "", "dual graph disconnected")


# ---------------------------------------------------------------------------
# genus / node / degree arithmetic over subcurves


class _Invariants:
    """Per-component genus, linking count (cross-node branches, so zero on
    an irreducible curve) and mark weight of one curve, and each mark's
    component (``homes``).  Dualizing degrees add up over components; a
    subcurve's genus follows from its dualizing degree and linking count.
    Callers check the subcurves they pass.  Mark weights are kept once,
    as integers: ``denom`` is D, the lcm of the marks' own weight
    denominators (1 with no mark), ``scaled[c]`` is the weight of the
    marks on ``c`` times D, and the total and a subcurve's mark weight are
    read off them over D.  A component carries a mark when it is in
    ``homes``' values.  ``pairs`` lists the positions ``(i, j)``, ``i <
    j``, of each node's ends in ``ids``, a pair per node, so parallel
    nodes repeat: the walk, the cut, the neighbour masks and the linking
    matrix read it.

    The one check of a curve and its polarization before any invariant is
    read: raises on a polarization ``pol`` that names a component the
    curve lacks or misses one it has.  Then, only when its size and subset
    tests show an id named twice or a reference to nothing, it raises the
    message of the curve's first such violation in ``validate_curve``'s
    order (``_faults``); a sound curve never lists its violations here.
    Negative genera and weights, overweight sites and a disconnected dual
    graph leave every number well-defined and pass.  ``genera``, ``homes``
    and ``marks`` keep the curve's order; ``ids`` is sorted."""

    def __init__(self, curve: CurveModel, pol: Optional[Polarization] = None):
        self.full = curve.full_subcurve()
        if pol is not None:
            if unknown := set(pol.degrees) - self.full:
                raise ValueError(f"unknown component in polarization: {sorted(unknown)}")
            if missing := self.full - set(pol.degrees):
                raise ValueError(f"polarization missing components: {sorted(missing)}")
        self.nodes, self.marks = curve.nodes, curve.marks
        self.genera = {c.id: c.genus for c in curve.components}
        self.links = Counter(end for node in curve.nodes for end in node)
        site_of = {s.id: s.component for s in curve.sites}
        self.homes = {m.id: site_of.get(m.site) for m in curve.marks}  # mark id -> component
        if (len(self.genera) != len(curve.components) or not self.links.keys() <= self.genera.keys()
                or len(site_of) != len(curve.sites) or not self.genera.keys() >= set(site_of.values())
                or None in self.homes.values() or len(self.homes) != len(curve.marks)):
            raise ValueError(next(v.message for _, v in _faults(curve) if v.code in _BROKEN))
        self.omegas = {c: 2 * g - 2 + self.links[c] for c, g in self.genera.items()}
        self.ids = sorted(self.genera)
        at = {c: i for i, c in enumerate(self.ids)}
        self.pairs = [(at[a], at[b]) for a, b in curve.nodes]  # i < j: the nodes and the ids are sorted
        self.denom = lcm(*(m.weight.denominator for m in curve.marks))
        self.scaled = dict.fromkeys(self.ids, 0)
        for m in curve.marks:
            self.scaled[self.homes[m.id]] += m.weight.numerator * (self.denom // m.weight.denominator)
        self.total_weight = Fraction(sum(self.scaled.values()), self.denom)

    def linking(self, sub: Subcurve) -> int:
        """Nodes joining the subcurve to its complement (0 for the whole curve)."""
        return sum(1 for a, b in self.nodes if (a in sub) != (b in sub))

    def mark_weight(self, sub: Subcurve) -> Fraction:
        return Fraction(sum(self.scaled[c] for c in sub), self.denom)

    def omega(self, sub: Subcurve, weighted: bool = False) -> Fraction:
        """``2 g_Y - 2 + l_Y``, plus the mark weight on the subcurve when weighted."""
        val = Fraction(sum(self.omegas[c] for c in sub))
        return val + self.mark_weight(sub) if weighted else val

    def genus(self, sub: Subcurve) -> int:
        """``1 - chi(O_Y)``, also for disconnected subcurves."""
        return (sum(self.omegas[c] for c in sub) - self.linking(sub)) // 2 + 1

    def sums(self, sub: Subcurve, degrees: dict) -> tuple[int, int, int, int]:
        """The integer sums ``walk`` yields for one subcurve."""
        return (sum(self.omegas[c] for c in sub), sum(self.scaled[c] for c in sub),
                sum(degrees[c] for c in sub), self.linking(sub))

    def subcurve(self, mask: int) -> Subcurve:
        ids, members = self.ids, []
        while mask:
            low = mask & -mask
            members.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(members)

    def walk(self, degrees: dict, connected_only: bool = False,
             cap: int = ENUMERATION_CAP, proper: bool = True):
        """Iterator of ``(mask, omega_Y, denom * w_Y, degree_Y, l_Y)`` over
        the nonempty subcurves, proper ones only when ``proper``, in
        lexicographic order of their sorted id tuples (bit ``i`` of the
        mask is ``ids[i]``, ``degree_Y`` sums ``degrees``).  Raises at once
        past the cap.  Depth-first: ``Y + j``, with ``j`` above all of
        ``Y``, adds ``j``'s own numbers to ``Y``'s sums, and
        ``l(Y + j) = l(Y) + l_j - 2 #nodes(j, Y)``.  The tables behind the
        steps are built on the first one, so a caller that proves its
        verdict before stepping pays only the cap check."""
        r = len(self.ids)
        if r > cap:
            raise ValueError(f"enumeration cap exceeded: {r} components > {cap}")

        def steps():
            # own[j]: j's numbers and the bit of i per node joining j to an i < j
            own = [(self.omegas[c], self.scaled[c], degrees[c], self.links[c], []) for c in self.ids]
            for i, j in self.pairs:
                own[j][4].append(1 << i)
            skip = (1 << r) - 1 if proper else -1
            neighbours = _neighbours(r, self.pairs) if connected_only else None
            stack = [(0, -1, 0, 0, 0, 0)]
            while stack:
                mask, last, om, a, deg, ell = stack.pop()
                for j in range(r - 1, last, -1):  # pushed downwards: the lowest comes off first
                    j_om, j_a, j_deg, j_ell, below = own[j]
                    for bit in below:
                        if mask & bit:
                            j_ell -= 2
                    stack.append((mask | 1 << j, j, om + j_om, a + j_a, deg + j_deg, ell + j_ell))
                if mask and mask != skip and (neighbours is None or _spans(mask, neighbours)):
                    yield mask, om, a, deg, ell
        return steps()

    def cut_sign(self, weights: list[int], lam: int) -> Optional[int]:
        """The sign (-1, 0 or 1) of the least ``g(Y) = (sum of weights[i]
        over i in Y) + lam * l_Y`` over the proper nonempty subcurves ``Y``
        (``weights`` indexed like ``ids``, ``lam > 0``); None when there is
        no proper subcurve.  Raises unless the weights sum to 0.

        Proof.  Put ``Y`` on the source side of a network on the
        components plus a source and a sink: an arc of capacity ``w`` from
        each component of weight ``w > 0`` to the sink, one of capacity
        ``-w`` from the source to each component of weight ``w < 0``, and
        ``lam`` each way per node.  A cut with source side ``Y`` costs
        ``g(Y) - N``, ``N`` the sum of the negative weights, so one maximum
        flow ``F`` gives ``N + F = min g`` over all ``Y`` (Picard and
        Ratliff, 1975).  With weights summing to 0, ``g(empty) = g(C) = 0``:
        that minimum is at most 0, and below 0 only at a proper ``Y``.  At
        0 the flow saturates every source and sink arc, and the minimum
        cuts are the source sides that no residual arc leaves (Picard and
        Queyranne, 1980), here the sets of components closed under the
        residual arcs between components.  A proper nonempty one exists,
        and then the sign is 0, exactly when the residual graph on the
        components is not strongly connected (a sink strong component is
        one); two searches from component 0 tell.

        The scans read their verdicts off this sign.  Over the window scale
        ``2 D t`` the room above the lower bound is ``g(Y)`` with
        ``w_c = scale deg_c - (D omega_c + a_c) k + t a_c`` and
        ``lam = D t``.  As ``t = D omega + A`` and ``k = 2 D d + A`` (``A``
        the scaled total mark weight), these weights sum to 0 for every
        degree vector of total ``d``, so for each point of ``find_twist``'s
        box, whose total is pinned.  With ``l_Y = l_{Y^c}`` the room under
        the upper bound at ``Y`` is ``g(Y^c)``, so one sign covers both
        sides.  The section-count margin is that room over ``4 D^2 h0_all
        h0_Y`` (``slope._Windows``), so where the section counts are
        positive the same sign serves both criteria.  A sign over every
        proper subcurve bounds the connected ones too."""
        r = len(self.ids)
        if r < 2:
            return None
        if sum(weights):
            raise ValueError(f"cut weights sum to {sum(weights)}, not 0")
        s, t = r, r + 1
        cap = [[0] * (r + 2) for _ in range(r + 2)]
        adj = [[t, s] for _ in range(r)] + [list(range(r)), list(range(r))]
        for i, j in self.pairs:
            if not cap[i][j]:
                adj[i].append(j)
                adj[j].append(i)
            cap[i][j] += lam
            cap[j][i] += lam
        for i, w in enumerate(weights):
            cap[i][t], cap[s][i] = max(w, 0), max(-w, 0)
        if sum(w for w in weights if w < 0) + _max_flow(cap, adj, s, t) < 0:
            return -1
        for forward in (True, False):  # 0 reaches every component, then every one reaches 0
            reached = [0]
            for u in reached:
                reached += [v for v in adj[u]
                            if v < r and v not in reached and (cap[u][v] if forward else cap[v][u])]
            if len(reached) < r:
                return 0
        return 1


def _max_flow(cap: list[list[int]], adj: list[list[int]], s: int, t: int) -> int:
    """Value of a maximum ``s``-``t`` flow through the integer capacities
    ``cap`` (left as the residual), by shortest augmenting paths
    (Edmonds-Karp); ``adj[u]`` lists every ``v`` with an arc either way."""
    flow, n = 0, len(cap)
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            row = cap[u]
            for v in adj[u]:
                if parent[v] < 0 and row[v] > 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        else:
            return flow
        path, v = [], t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        flow += push


def _neighbours(r: int, pairs) -> list[int]:
    """Bitmask of each of ``r`` components' neighbours through the nodes
    ``pairs``, both by position."""
    out = [0] * r
    for i, j in pairs:
        out[i] |= 1 << j
        out[j] |= 1 << i
    return out


def _spans(mask: int, neighbours: list[int]) -> bool:
    """Whether the components in ``mask`` form one connected piece."""
    reach, grown = 0, mask & -mask
    while grown != reach:
        new, reach = grown & ~reach, grown
        while new:
            low = new & -new
            grown |= neighbours[low.bit_length() - 1] & mask
            new ^= low
    return reach == mask


def _check_subcurve(curve: CurveModel, cids: Iterable[str], proper: bool = False) -> Subcurve:
    """``cids`` as a subcurve, once it is nonempty, names only components
    of ``curve`` and, when ``proper``, leaves one of them out; the first of
    these three faults raises."""
    sub = frozenset(cids)
    if not sub:
        raise ValueError("empty subcurve")
    ids = set(curve.component_ids)
    unknown = sub - ids
    if unknown:
        raise ValueError(f"unknown components in subcurve: {sorted(unknown)}")
    if proper and sub == ids:
        raise ValueError("subcurve must be proper")
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
    return _Invariants(curve).linking(_check_subcurve(curve, cids, proper=True))


def omega_degree(curve: CurveModel, cids: Optional[Iterable[str]] = None, weighted: bool = False) -> Fraction:
    """Degree of the dualizing sheaf restricted to a subcurve.

    The unweighted value is ``2 g_Y - 2 + l_Y`` (with ``g_Y = 1 - chi(O_Y)``
    this single formula also covers disconnected subcurves); the weighted
    value adds the weights of the marks sitting on the subcurve.
    """
    sub = _check_subcurve(curve, curve.component_ids if cids is None else cids)
    return _Invariants(curve).omega(sub, weighted)


def is_connected(curve: CurveModel, cids: Iterable[str]) -> bool:
    inv = _Invariants(curve)
    sub = _check_subcurve(curve, cids)
    return _spans(sum(1 << i for i, c in enumerate(inv.ids) if c in sub), _neighbours(len(inv.ids), inv.pairs))


def subcurves(
    curve: CurveModel,
    proper_only: bool = True,
    connected_only: bool = False,
    cap: int = ENUMERATION_CAP,
) -> list[Subcurve]:
    """Deterministic enumeration of nonempty component subsets.

    Subsets come out in lexicographic order of their sorted id tuples.
    """
    inv = _Invariants(curve)
    return [inv.subcurve(s[0]) for s in inv.walk(dict.fromkeys(inv.ids, 0), connected_only, cap, proper_only)]


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
            if inv.genera[cid] > 0 or cid in inv.homes.values():
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
        if a == cid:  # never both ends: self-nodes are folded into the genus
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
