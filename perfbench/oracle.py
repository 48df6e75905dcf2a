"""Independent recomputation of what the benchmark asks the program.

Nothing here imports ``curvestab``.  Subcurve invariants come from
bitmask tables built straight from the curve JSON spec; every window,
slope and weight is compared as exact integers or ``Fraction``s.  The
checkers return a list of problems, empty when the program's output is
right.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Bitmasks:
    """Per-subset genus, linking nodes, mark weight and degree.

    Subsets are integer masks over the components in spec order.  Values
    are filled for all ``2^r`` masks by peeling off the lowest bit, so each
    costs O(r).  Mark weights are scaled by ``L``, the lcm of their
    denominators, to stay integral.
    """

    def __init__(self, spec: dict):
        self.ids = [c["id"] for c in spec["components"]]
        index = {cid: i for i, cid in enumerate(self.ids)}
        r = self.r = len(self.ids)
        self.full = (1 << r) - 1
        self.genus = [c["genus"] for c in spec["components"]]
        cnt = [[0] * r for _ in range(r)]
        ends = [0] * r
        for a, b in spec["nodes"]:
            i, j = index[a], index[b]
            if i == j:
                self.genus[i] += 1  # a self-node is genus
                continue
            cnt[i][j] += 1
            cnt[j][i] += 1
            ends[i] += 1
            ends[j] += 1
        site_comp = {s["id"]: index[s["component"]] for s in spec["sites"]}
        weights = [(site_comp[m["site"]], Fraction(m["weight"])) for m in spec["marks"]]
        self.L = lcm(1, *[w.denominator for _, w in weights])
        wl = [0] * r
        for i, w in weights:
            wl[i] += int(w * self.L)
        self.unmarked = not weights
        size = 1 << r
        internal = [0] * size
        gsum = [0] * size
        endsum = [0] * size
        wsum = [0] * size
        for m in range(1, size):
            low = m & -m
            i = low.bit_length() - 1
            rest = m ^ low
            internal[m] = internal[rest] + sum(cnt[i][j] for j in range(r) if rest >> j & 1)
            gsum[m] = gsum[rest] + self.genus[i] - 1
            endsum[m] = endsum[rest] + ends[i]
            wsum[m] = wsum[rest] + wl[i]
        self.g = [1 + gsum[m] + internal[m] for m in range(size)]
        self.ell = [endsum[m] - 2 * internal[m] for m in range(size)]
        self.w = wsum  # times L

    def key(self, mask: int) -> tuple[str, ...]:
        """Sorted ids of a subset: the documented enumeration order."""
        return tuple(sorted(self.ids[i] for i in range(self.r) if mask >> i & 1))

    def proper(self) -> list[int]:
        """Proper nonempty subsets, in the documented order."""
        return sorted(range(1, self.full), key=self.key)

    def degrees(self, degs: dict) -> list[int]:
        per = [degs[cid] for cid in self.ids]
        out = [0] * (1 << self.r)
        for m in range(1, 1 << self.r):
            low = m & -m
            out[m] = out[m ^ low] + per[low.bit_length() - 1]
        return out

    def omega_scaled(self, mask: int) -> int:
        """``L`` times the weighted dualizing degree of a subset."""
        return self.L * (2 * self.g[mask] - 2 + self.ell[mask]) + self.w[mask]

    def windows(self, total: int) -> dict[int, tuple[Fraction, Fraction]]:
        """Extremes window of every proper subset for a total degree.

        Centre ``omega_Y / omega * (d + W/2) - w_Y / 2``, half-width
        ``l_Y / 2``; everything multiplied through by ``2 L omega``.
        """
        L, full = self.L, self.full
        big = self.omega_scaled(full)
        if big <= 0:
            raise ValueError("total weighted degree non-positive")
        scale = 2 * L * big
        lead = 2 * L * total + self.w[full]
        out = {}
        for m in range(1, full):
            c = self.omega_scaled(m) * lead - big * self.w[m]
            h = L * big * self.ell[m]
            out[m] = (Fraction(c - h, scale), Fraction(c + h, scale))
        return out

    def guard_ok(self, degs: dict) -> bool:
        """Section-count degree guard: every component degree at least
        ``2 g + l + 1``."""
        for i, cid in enumerate(self.ids):
            ell = self.ell[1 << i] if self.r > 1 else 0
            if degs[cid] < 2 * self.genus[i] + ell + 1:
                return False
        return True


# ---------------------------------------------------------------------------
# slope verdicts


def _status(witnesses) -> str:
    if any(w[5] == "violated" for w in witnesses):
        return "Unstable"
    return "StrictlySemistable" if witnesses else "Stable"


def interval_expected(bm: Bitmasks, degs: dict):
    """Status and witnesses ``(ids, value, lower, upper, side, kind)``."""
    deg = bm.degrees(degs)
    win = bm.windows(deg[bm.full])
    out = []
    for m in bm.proper():
        lo, hi = win[m]
        v = deg[m]
        if v <= lo:
            out.append((bm.key(m), Fraction(v), lo, hi, "lower", "attained" if v == lo else "violated"))
        elif v >= hi:
            out.append((bm.key(m), Fraction(v), lo, hi, "upper", "attained" if v == hi else "violated"))
    return _status(out), out


def h0_expected(bm: Bitmasks, degs: dict):
    """Section-count verdict inside the guard: normalized slope of every
    proper subset against that of the whole curve."""
    if not bm.guard_ok(degs):
        raise ValueError("below the section-count guard")
    L, full = bm.L, bm.full
    deg = bm.degrees(degs)
    h0_all = deg[full] + 1 - bm.g[full]
    rhs = 2 * L * deg[full] + bm.w[full]
    bound = Fraction(rhs, 2 * L * h0_all)
    out = []
    for m in bm.proper():
        h0 = deg[m] + 1 - bm.g[m]
        lhs = 2 * L * deg[m] + L * bm.ell[m] + bm.w[m]
        sign = rhs * h0 - lhs * h0_all  # sign of the slope margin
        if sign <= 0:
            out.append((bm.key(m), Fraction(lhs, 2 * L * h0), None, bound, "upper",
                        "attained" if sign == 0 else "violated"))
    return _status(out), out


def _library_witnesses(verdict):
    return [
        (tuple(sorted(w.subcurve)), w.value, w.lower, w.upper, w.side, w.kind)
        for w in verdict.witnesses
    ]


def _json_witnesses(items):
    def rat(s):
        return None if s is None else Fraction(s)
    return [
        (tuple(w["subcurve"]), rat(w["value"]), rat(w["lower"]), rat(w["upper"]), w["side"], w["kind"])
        for w in items
    ]


def _compare(label, got, want) -> list[str]:
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{label}: {len(got)} witnesses, expected {len(want)}"]
    bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{label}: witness {bad} is {got[bad]}, expected {want[bad]}"]


def check_verdict(bm, degs, verdict, criterion: str) -> list[str]:
    """A library ``StabilityVerdict`` against the recomputation."""
    status, want = (interval_expected if criterion == "interval" else h0_expected)(bm, degs)
    problems = [] if verdict.status == status else [f"status {verdict.status}, expected {status}"]
    return problems + _compare(criterion, _library_witnesses(verdict), want)


def check_balanced(bm, vector, report) -> list[str]:
    deg = bm.degrees(vector)
    win = bm.windows(deg[bm.full])
    ok = all(v >= 0 for v in vector.values()) and all(lo <= deg[m] <= hi for m, (lo, hi) in win.items())
    return [] if report.ok == ok else [f"is_balanced says {report.ok}, expected {ok}"]


def check_twist(bm, spec_rows, vector, result) -> list[str]:
    """A twist must be nonnegative, inside every window for its total, and
    differ from the input by its coefficients times the linking rows."""
    if result is None:
        return ["no twist found, but the input's class holds a balanced vector"]
    out = result.vector
    problems = []
    if sum(out.values()) != sum(vector.values()):
        problems.append("twist changed the total degree")
    if any(v < 0 for v in out.values()):
        problems.append("twist has a negative entry")
    deg = bm.degrees(out)
    for m, (lo, hi) in bm.windows(deg[bm.full]).items():
        if not lo <= deg[m] <= hi:
            problems.append(f"twist outside the window of {bm.key(m)}")
            break
    for cid in bm.ids:
        moved = sum(result.coefficients[a] * spec_rows[a][cid] for a in bm.ids)
        if out[cid] - vector[cid] != moved:
            problems.append(f"twist minus input at {cid} is not the row combination")
            break
    return problems


def _complement_identity(bm, total, witnesses) -> list[str]:
    """``lower(Y) = d - upper(Y^c)``: every interval witness has its
    complement among the witnesses, on the other side, of the same kind."""
    by_key = {w[0]: w for w in witnesses}
    all_ids = set(bm.ids)
    for key, value, lo, hi, side, kind in witnesses:
        comp = by_key.get(tuple(sorted(all_ids - set(key))))
        if comp is None:
            return [f"complement of witness {key} missing"]
        if comp[2] != total - hi or comp[3] != total - lo or comp[4] == side or comp[5] != kind:
            return [f"complement identity fails at {key}"]
    return []


def check_cli_check(bm, degs, criterion, code, report) -> list[str]:
    """A ``check`` report (with its float block) and its exit code."""
    problems = []
    exit_of = {"Stable": 0, "StrictlySemistable": 1, "Unstable": 2}
    total = sum(degs.values())
    if criterion in ("interval", "both"):
        status, want = interval_expected(bm, degs)
        if report.get("status") != status:
            problems.append(f"interval status {report.get('status')}, expected {status}")
        got = _json_witnesses(report.get("witnesses", []))
        problems += _compare("interval", got, want)
        problems += _complement_identity(bm, total, got)
        expected_code = exit_of[status]
    if criterion in ("h0", "both"):
        h_status, h_want = h0_expected(bm, degs)
        key = "status" if criterion == "h0" else "h0_status"
        wkey = "witnesses" if criterion == "h0" else "h0_witnesses"
        if report.get(key) != h_status:
            problems.append(f"h0 status {report.get(key)}, expected {h_status}")
        problems += _compare("h0", _json_witnesses(report.get(wkey, [])), h_want)
        if criterion == "h0":
            expected_code = exit_of[h_status]
    if criterion == "both":
        # Inside the guard the two criteria agree subcurve by subcurve: the
        # section-count witnesses are exactly the lower-side interval ones.
        lower_side = [(w[0], w[5]) for w in _json_witnesses(report.get("witnesses", [])) if w[4] == "lower"]
        h0_side = [(w[0], w[5]) for w in _json_witnesses(report.get("h0_witnesses", []))]
        if lower_side != h0_side:
            problems.append("interval lower side and h0 witnesses disagree")
        if report.get("regime") != "ok" or report.get("disagreements") != []:
            problems.append("equivalence report flags a disagreement inside the guard")
    problems += check_float_block(report)
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    return problems


def check_cli_kcheck(bm, degs, code, report) -> list[str]:
    """``k-check``: proportionality verdict and every two-weight
    Donaldson-Futaki entry, recomputed from the bitmask invariants."""
    if not bm.unmarked:
        raise ValueError("k-check needs an unmarked curve")
    full = bm.full
    g = bm.g[full]
    omega = 2 * g - 2
    deg = bm.degrees(degs)
    d = deg[full]
    comp_omega = [2 * bm.genus[i] - 2 + bm.ell[1 << i] for i in range(bm.r)]
    offender = next((bm.ids[i] for i in range(bm.r) if comp_omega[i] == 0), None)
    if offender is None:
        offender = next((bm.ids[i] for i in range(bm.r) if degs[bm.ids[i]] * omega != d * comp_omega[i]), None)
    proportional = offender is None
    entries, df_w, margin_w = [], None, None
    for m in bm.proper():
        margin = Fraction((2 * bm.g[m] - 2 + bm.ell[m]) * d, omega) - deg[m]
        value = Fraction(g - 1, d) * (margin - Fraction(bm.ell[m], 2))
        entries.append((list(bm.key(m)), value))
        if value > 0 and df_w is None:
            df_w = list(bm.key(m))
        if margin > 0 and margin_w is None:
            margin_w = list(bm.key(m))
    problems = []
    verdict = "KStable" if proportional else "NotKStable"
    if report.get("verdict") != verdict or report.get("proportional") != proportional:
        problems.append(f"verdict {report.get('verdict')}, expected {verdict}")
    got = [(e["subcurve"], Fraction(e["value"])) for e in report.get("df", [])]
    if got != entries:
        problems.append("Donaldson-Futaki entries differ from the closed form")
    witness = None if proportional else (df_w or margin_w or [offender])
    if report.get("witness") != witness:
        problems.append(f"witness {report.get('witness')}, expected {witness}")
    if code != (0 if proportional else 2):
        problems.append(f"exit code {code}")
    return problems


def _rational_leaves(value, path=()):
    if isinstance(value, str) and "/" in value:
        yield path, float(Fraction(value))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _rational_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _rational_leaves(item, path + (str(i),))


def _float_leaves(value, path=()):
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _float_leaves(item, path + (key,))


def check_float_block(report) -> list[str]:
    """``--float``: one decimal rendering per non-integral rational of the
    report, at the same path (list positions as string keys), and nothing
    else besides the note."""
    exact = dict(_rational_leaves({k: v for k, v in report.items() if k != "approximations"}))
    block = dict(report.get("approximations") or {})
    block.pop("note", None)
    got = dict(_float_leaves(block))
    return [] if got == exact else [f"float block has {len(got)} leaves, expected {len(exact)}"]


# ---------------------------------------------------------------------------
# the weight side


def two_weight_expected(bm: Bitmasks, degs: dict, sub: list[str]) -> dict[str, Fraction]:
    """Closed forms of the two-weight subgroup toward ``sub``.

    ``m + 1 = d + 1 - g`` and ``m0 + 1 = d_Y + 1 - g_Y``.  The full weight
    is ``2 (m0+1) ((d + W/2) / (m+1) - (d_Y + l_Y/2 + w_Y/2) / (m0+1))``,
    the total multiplicity ``2 d_Y + l_Y``, and a mark of weight ``a``
    adds ``a (avg - rho[imax])`` with ``avg = (m0+1) / (m+1)``.
    """
    mask = sum(1 << bm.ids.index(c) for c in sub)
    full, L = bm.full, bm.L
    deg = bm.degrees(degs)
    m = deg[full] - bm.g[full]
    m0 = deg[mask] - bm.g[mask]
    w_all = Fraction(bm.w[full], L)
    w_sub = Fraction(bm.w[mask], L)
    omega_a = 2 * (m0 + 1) * (
        (deg[full] + w_all / 2) / (m + 1)
        - (deg[mask] + Fraction(bm.ell[mask], 2) + w_sub / 2) / (m0 + 1))
    avg = Fraction(m0 + 1, m + 1)
    mu = w_sub * (avg - 1) + (w_all - w_sub) * avg
    return {"m": m, "omega_a": omega_a, "mu_a": mu, "omega": omega_a - mu,
            "e": Fraction(2 * deg[mask] + bm.ell[mask])}


def check_weight_report(bm, degs, sub, code, report, command) -> list[str]:
    want = two_weight_expected(bm, degs, sub)
    problems = []
    for key in ("omega_a", "mu_a", "omega", "e"):
        if key not in report or Fraction(report[key]) != want[key]:
            problems.append(f"{command} {key} = {report.get(key)}, expected {want[key]}")
    if command == "two-weight":
        if report.get("m") != want["m"] or Fraction(report.get("closed_form", "0")) != want["omega_a"]:
            problems.append("two-weight m or closed_form differs")
    sign = want["omega_a"]
    if code != (0 if sign > 0 else 1 if sign == 0 else 2):
        problems.append(f"{command} exit code {code}")
    return problems


def envelope_area(points, width, lo=0, hi=None) -> Fraction:
    """Area under the lower-left envelope of ``points + R^2_{>=0}`` over
    ``[lo, hi]`` (default the whole strip ``[0, width]``).

    The envelope is convex with breaks only at abscissas of the points, so
    it is linear between consecutive point abscissas and the trapezoid
    rule over those is exact.  Its value at ``x`` is the least height of a
    point or of a segment between two points reachable at or left of
    ``x``.
    """
    hi = width if hi is None else hi
    pts = sorted(set(points))

    def f(x):
        best = min(y for px, y in pts if px <= x)
        for (x0, y0) in pts:
            for (x1, y1) in pts:
                if x0 < x <= x1 and x0 < x1:
                    best = min(best, y0 + Fraction(x - x0, x1 - x0) * (y1 - y0))
        return best

    xs = sorted({Fraction(lo), Fraction(hi)} | {Fraction(x) for x, _ in pts if lo < x < hi})
    return sum(((b - a) * (f(a) + f(b)) / 2 for a, b in zip(xs, xs[1:])), Fraction(0))


def check_newton(points, width, k, code, report) -> list[str]:
    """Area by the independent envelope, and the lattice counts of the
    dilates: an Ehrhart polynomial for a lattice polygon, so every second
    difference is twice the area."""
    area = envelope_area(points, width)
    problems = []
    if Fraction(report.get("area", "0")) != area:
        problems.append(f"newton area {report.get('area')}, expected {area}")
    counts = report.get("oracle", {}).get("counts", [])
    diffs = report.get("oracle", {}).get("second_differences", [])
    if len(counts) != k + 1 or counts[:1] != [1]:
        problems.append("newton oracle counts malformed")
    if diffs != [counts[i + 2] - 2 * counts[i + 1] + counts[i] for i in range(len(counts) - 2)]:
        problems.append("newton second differences do not match the counts")
    tail = diffs[len(diffs) // 2:]
    if not tail or any(v != 2 * area for v in tail):
        problems.append("newton second differences do not settle at twice the area")
    if code != 0:
        problems.append(f"newton exit code {code}")
    return problems


def check_bounds(bm, degs, sub, datum, code, report) -> list[str]:
    """``bounds`` on two-weight data: the component bounds reproduce the
    multiplicity, so the surrogate weights equal the closed forms, and
    every trapezoid row carries the exact clipped area of its profile."""
    want = two_weight_expected(bm, degs, sub)
    problems = []
    if Fraction(report["omega_hat"]) != want["omega"] or Fraction(report["omega_hat_weighted"]) != want["omega_a"]:
        problems.append("bounds surrogate weight differs from the closed form")
    if sum(Fraction(v) for v in report["E_alpha"].values()) != want["e"]:
        problems.append("bounds component bounds do not sum to the multiplicity")
    rho = datum["rho"]
    rows = report["trapezoid_report"]
    if [row["point"] for row in rows] != [p["id"] for p in datum["profiles"]]:
        return problems + ["bounds trapezoid rows do not follow the profiles"]
    areas = {}
    for p, row in zip(datum["profiles"], rows):
        h = datum["hbar"][p["component"]]
        key = (tuple(p["vanish"]), h)
        if key not in areas:
            v = p["vanish"]
            rel = [rho[i] - rho[h] for i in range(h + 1)]
            pts = {(v[i], rel[i]) for i in range(h + 1)}
            if all(x > 0 for x, _ in pts):
                pts.add((0, max(rel)))
            areas[key] = envelope_area(pts, v[-1], v[0], v[-1]) if v[-1] else Fraction(0)
        if Fraction(row["exact"]) != areas[key]:
            problems.append(f"bounds exact area of {row['point']} is {row['exact']}, expected {areas[key]}")
            break
    if code != 0:
        problems.append(f"bounds exit code {code}")
    return problems
