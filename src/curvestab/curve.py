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
call, never per subcurve.  Every 2^r scan reads its ``walk``: a depth-first
pass over the proper subcurves as bitmasks, in lexicographic order of their
sorted id tuples, that keeps integer sums (dualizing degree, mark weight
times the lcm of the weight denominators, degree, linking count) and
updates them by one component per step, so a subcurve costs a few integer
additions; a frozenset is built only for a subcurve a caller reports.
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
        if not is_connected(curve, known):
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
    degree and linking count.  Callers check the subcurves they pass.
    ``scaled[c]`` is ``c``'s mark weight times ``denom``, the lcm of the
    weight denominators."""

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
        self.ids = sorted(self.genera)
        self.denom = lcm(*(w.denominator for w in self.weights.values()))
        self.scaled = {c: int(self.weights[c] * self.denom) for c in self.ids}

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

    def sums(self, sub: Subcurve, degrees: dict) -> tuple[int, int, int, int]:
        """The integer sums ``walk`` yields for one subcurve."""
        return (sum(self.omegas[c] for c in sub), sum(self.scaled[c] for c in sub),
                sum(degrees[c] for c in sub), self.linking(sub))

    def subcurve(self, mask: int) -> Subcurve:
        return frozenset(c for i, c in enumerate(self.ids) if mask >> i & 1)

    def walk(self, degrees: dict, connected_only: bool = False,
             cap: int = ENUMERATION_CAP, proper: bool = True):
        """Iterator of ``(mask, omega_Y, denom * w_Y, degree_Y, l_Y)`` over
        the nonempty subcurves, proper ones only when ``proper``, in
        lexicographic order of their sorted id tuples (bit ``i`` of the
        mask is ``ids[i]``, ``degree_Y`` sums ``degrees``).  Raises at once
        past the cap.  Depth-first: ``Y + j``, with ``j`` above all of
        ``Y``, adds ``j``'s own numbers to ``Y``'s sums, and
        ``l(Y + j) = l(Y) + l_j - 2 #nodes(j, Y)``."""
        r = len(self.ids)
        if r > cap:
            raise ValueError(f"enumeration cap exceeded: {r} components > {cap}")
        # own[j]: j's numbers and a (bit of i, nodes joining i and j) pair per i < j
        own = [(self.omegas[c], self.scaled[c], degrees[c], self.links[c], []) for c in self.ids]
        index = {c: i for i, c in enumerate(self.ids)}
        for (a, b), n in Counter(self.nodes).items():
            if a in index and b in index:  # sorted pairs, so a comes first in ids
                own[index[b]][4].append((1 << index[a], n))
        skip = (1 << r) - 1 if proper else -1
        neighbours = _neighbours(self.ids, self.nodes) if connected_only else None

        def steps():
            stack = [(0, -1, 0, 0, 0, 0)]
            while stack:
                mask, last, om, a, deg, ell = stack.pop()
                for j in range(r - 1, last, -1):  # pushed downwards: the lowest comes off first
                    j_om, j_a, j_deg, j_ell, pairs = own[j]
                    for bit, n in pairs:
                        if mask & bit:
                            j_ell -= 2 * n
                    stack.append((mask | 1 << j, j, om + j_om, a + j_a, deg + j_deg, ell + j_ell))
                if mask and mask != skip and (neighbours is None or _spans(mask, neighbours)):
                    yield mask, om, a, deg, ell
        return steps()

    def cut_sign(self, weights: list[int], lam: int) -> Optional[int]:
        """The sign (-1, 0 or 1) of the least ``g(Y) = (sum of weights[i]
        over i in Y) + lam * l_Y`` over the proper nonempty subcurves ``Y``
        (``weights`` indexed like ``ids``, ``lam > 0``); None when there is
        no proper subcurve or a node names an unknown component.  Raises
        unless the weights sum to 0.

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
        sides.  The doubled section-count numerator ``2 n`` is ``g(Y)``
        with ``w_c = k (2 deg_c - omega_c) - 2 h0 (2 D deg_c + a_c)`` and
        ``lam = k - 2 D h0 = D (omega + W)``; its weights sum to
        ``(2 d - omega - 2 h0) k = 0`` by Riemann-Roch on the whole curve.
        A sign over every proper subcurve bounds the connected ones too."""
        r = len(self.ids)
        index = {c: i for i, c in enumerate(self.ids)}
        if r < 2 or any(a not in index or b not in index for a, b in self.nodes):
            return None
        if sum(weights):
            raise ValueError(f"cut weights sum to {sum(weights)}, not 0")
        s, t = r, r + 1
        cap = [[0] * (r + 2) for _ in range(r + 2)]
        adj = [[t, s] for _ in range(r)] + [list(range(r)), list(range(r))]
        for a, b in self.nodes:
            i, j = index[a], index[b]
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


def _neighbours(ids: list[str], nodes) -> list[int]:
    """Bitmask of each component's neighbours, by position in ``ids``."""
    index = {c: i for i, c in enumerate(ids)}
    out = [0] * len(ids)
    for a, b in nodes:
        if a in index and b in index:
            out[index[a]] |= 1 << index[b]
            out[index[b]] |= 1 << index[a]
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


def is_connected(curve: CurveModel, cids: Iterable[str]) -> bool:
    sub = _check_subcurve(curve, cids)
    ids = sorted(set(curve.component_ids))
    return _spans(sum(1 << i for i, c in enumerate(ids) if c in sub), _neighbours(ids, curve.nodes))


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
