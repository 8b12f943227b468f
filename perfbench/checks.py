"""Output checks of the benchmark, computed with its own code.

None of these compares against a stored output of paravoa.  Geometry is
re-derived with integer arithmetic, characters from lattice-vector counts
and partition numbers, quotient dimensions from a closed form or from the
benchmark's own Fraction elimination, certificates by replaying them.
paravoa's FockState and BasisWord are used only as containers, and its
`word_mode`/`state_mode` only as the primitive that a replay is made of.
Every check raises CheckError on the first property that fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

from inputs import coloured_partitions, norm, normal_pair, oriented, pair, side


class CheckError(AssertionError):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- geometry --------------------------------------------------------------------


def boundary(g, gamma):
    """Oriented primitive generator of the hyperplane's lattice points, or None."""
    p, q = normal_pair(g, gamma)
    if q == [0, 0]:
        return oriented([-p[1], p[0]])
    if p == [0, 0] or p[0] * q[1] - p[1] * q[0] == 0:
        return oriented([-q[1], q[0]])
    return None


def member(g, D: int, desc: dict, v) -> bool:
    v = tuple(v)
    kind = desc["kind"]
    if kind == "type2":
        return side(g, D, desc["gamma"], v) >= 0
    if kind == "type1":
        if v == (0, 0):
            return True
        s = side(g, D, desc["gamma"], v)
        if s:
            return s > 0
        a = boundary(g, desc["gamma"])  # primitive: v parallel to a is k*a
        return (a is not None and v[0] * a[1] - v[1] * a[0] == 0
                and v[0] * a[0] + v[1] * a[1] > 0)
    raise ValueError(f"no own membership rule for {kind!r}")


def box(radius: int) -> list:
    return [(m, n) for m in range(-radius, radius + 1)
            for n in range(-radius, radius + 1)]


def gamma_parts(report_gamma):
    """QuadScalar pair of a report -> config-schema gamma."""
    return [{"a": str(x.a), "b": str(x.b)} for x in report_gamma]


def check_sweep(g, D, desc, points, got) -> None:
    expect(len(got) == len(points), "sweep length")
    for v, m in zip(points, got):
        expect(m == member(g, D, desc, v), f"member{tuple(v)} = {m}")


def check_classify_halfplane(g, desc, rep) -> None:
    expect(rep.is_parabolic, "half-plane descriptor not parabolic")
    want = "TYPE_II" if desc["kind"] == "type2" else "TYPE_I"
    expect(rep.type == want, f"type {rep.type} != {want}")
    a = boundary(g, desc["gamma"])
    expect((list(rep.alpha) if rep.alpha is not None else None) == a,
           f"alpha {rep.alpha} != {a}")


def check_classify_generators(g, D, alpha, beta, rep) -> None:
    """<alpha, -alpha, beta> is the closed half-plane bounded by R*alpha."""
    expect(rep.is_parabolic and rep.type == "TYPE_II", f"type {rep.type}")
    expect(list(rep.alpha) in (list(alpha), [-alpha[0], -alpha[1]]),
           f"alpha {rep.alpha} vs {alpha}")
    gm = gamma_parts(rep.gamma)
    expect(side(g, D, gm, alpha) == 0, "alpha off the boundary")
    expect(side(g, D, gm, beta) > 0, "beta not on the positive side")


def check_classify_fill(rep) -> None:
    expect(not rep.is_parabolic and rep.type == "OTHER", f"type {rep.type}")


def check_borel(g, D, gamma, points, got) -> None:
    desc, pos, neg = got
    expect(desc.kind == "type1", "borel descriptor kind")
    spec = {"kind": "type1", "gamma": gamma}
    check_sweep(g, D, spec, points, pos)
    check_sweep(g, D, spec, [(-v[0], -v[1]) for v in points], neg)
    expect(all(p or n for p, n in zip(pos, neg)), "B u -B misses a point")
    both = [v for v, p, n in zip(points, pos, neg) if p and n]
    expect(both == [(0, 0)], f"B n -B = {both}")


def check_saturate(g, D, gamma, alpha, got) -> None:
    beta, beta_p = got
    expect(side(g, D, gamma, beta) > 0, "beta not on the positive side")
    expect(side(g, D, gamma, beta_p) > 0, "beta' not on the positive side")
    dets = {alpha[0] * w[1] - alpha[1] * w[0] for w in (beta, beta_p)}
    expect(dets == {1, -1}, f"det[alpha, beta], det[alpha, beta'] = {dets}")


def check_c1(g, D, desc, rep_json) -> None:
    """rep_json: C1Report.to_json() or the CLI's JSON."""
    verdict = rep_json["verdict"]
    if desc["kind"] == "type1":
        expect(verdict == "NOT_COFINITE", f"type I verdict {verdict}")
        return
    alpha = boundary(g, desc["gamma"])
    cond = rep_json.get("condition")
    if verdict == "COFINITE":
        a, beta = rep_json["witness"]
        expect(list(a) == alpha, f"witness alpha {a} != {alpha}")
        expect(abs(a[0] * beta[1] - a[1] * beta[0]) == 1, "witness not a basis")
        expect(member(g, D, desc, beta), "witness beta not in P")
        n = abs(pair(g, a, beta))
        expect(cond["n"] == n, f"n {cond['n']} != {n}")
        if n == 0:
            expect(cond["value"] == 0, "orthogonal witness value")
            return
        l, k = sorted((norm(g, a) // 2, norm(g, beta) // 2))
        val = n * n + l * l - 4 * l * k
        expect((cond["k"], cond["l"], cond["value"]) == (k, l, val),
               f"condition {cond} != {(n, k, l, val)}")
        expect(val <= 0, "COFINITE with a positive value")
    else:
        expect(verdict == "CONDITION_FAILED", f"verdict {verdict}")
        n, k, l = cond["n"], cond["k"], cond["l"]
        expect(cond["value"] == n * n + l * l - 4 * l * k > 0,
               "CONDITION_FAILED value")


# -- characters ----------------------------------------------------------------


def partitions(cap: int, colours: int) -> list:
    """Number of `colours`-coloured partitions of n, n <= cap, via Euler's
    recurrence for one colour and convolution."""
    p = [1] + [0] * cap
    for n in range(1, cap + 1):
        k, s = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            s += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                s += sign * p[n - g2]
            k += 1
        p[n] = s
    out = p
    for _ in range(colours - 1):
        out = [sum(out[i] * p[n - i] for i in range(n + 1)) for n in range(cap + 1)]
    return out


def lattice_points(g, max_norm: int, keep=lambda v: True) -> list:
    """Vectors with (v|v) <= max_norm: (v|v) >= det/g11 x^2 and det/g00 y^2."""
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    xr = math.isqrt(max_norm * g[1][1] // det) + 1
    yr = math.isqrt(max_norm * g[0][0] // det) + 1
    return [(x, y) for x in range(-xr, xr + 1) for y in range(-yr, yr + 1)
            if norm(g, (x, y)) <= max_norm and keep((x, y))]


def series(g, cap, keep) -> list:
    """Graded dimensions: label counts by (v|v)/2 convolved with
    2-coloured partitions, as sorted (exponent, dim) pairs."""
    cap = Fraction(cap)
    parts = partitions(math.floor(cap), 2)
    out: dict = {}
    for v in lattice_points(g, math.floor(2 * cap), keep):
        h = Fraction(norm(g, v), 2)
        for n, c in enumerate(parts):
            if h + n <= cap:
                out[h + n] = out.get(h + n, 0) + c
    return sorted((e, c) for e, c in out.items() if c)


def check_series(want: list, got_terms) -> None:
    got = [(Fraction(e), int(c)) for e, c in got_terms]
    expect(got == want, f"series {got[:4]}... != {want[:4]}...")


def on_line(alpha):
    return lambda v: v[0] * alpha[1] - v[1] * alpha[0] == 0


# -- modules and fusion ----------------------------------------------------------


def check_modules(g, alpha, ts, mods) -> None:
    """mods: (t, i, N, h) tuples of the type-II registry sample."""
    N = norm(g, alpha) // 2
    w = (pair(g, alpha, (1, 0)), pair(g, alpha, (0, 1)))
    beta = oriented([-w[1], w[0]])
    want = {(Fraction(t), i) for t in ts for i in range(2 * N)}
    expect({(t, i) for t, i, _, _ in mods} == want and len(mods) == len(want),
           "module sample")
    for t, i, n, h in mods:
        expect(n == N, f"N {n} != {N}")
        hw = t * t * Fraction(norm(g, beta), 2) + Fraction(i * i, 4 * N)
        expect(h == hw, f"h({t},{i}) = {h} != {hw}")


def check_fusion_table(mods, table) -> None:
    """mods: (t, i) pairs; table: index triples with nonzero fusion.  Every
    pair whose t1 + t2 is sampled has exactly one product, with t = t1 + t2,
    and no other pair has one; on the coset index the products form one
    abelian group, the same for every t."""
    ts = {t for t, _ in mods}
    prod: dict = {}
    for a, b, c in table:
        expect((a, b) not in prod, "two products")
        prod[(a, b)] = c
    mul: dict = {}
    for a, (ta, ia) in enumerate(mods):
        for b, (tb, ib) in enumerate(mods):
            expect(((a, b) in prod) == (ta + tb in ts), "product missing or extra")
            if (a, b) in prod:
                tc, ic = mods[prod[(a, b)]]
                expect(tc == ta + tb, "t not additive")
                expect(mul.setdefault((ia, ib), ic) == ic, "i product depends on t")
    idx = sorted({i for _, i in mods})
    expect(all(mul[(0, a)] == a == mul[(a, 0)] for a in idx), "identity")
    for a in idx:
        expect(any(mul[(a, b)] == 0 for b in idx), "inverse")
        for b in idx:
            expect(mul[(a, b)] == mul[(b, a)], "commutativity")
            for c in idx:
                expect(mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])],
                       "associativity")


# -- modes -------------------------------------------------------------------------


def word_degree(g, w) -> Fraction:
    return sum(n for n, _ in w.modes) + Fraction(norm(g, w.label), 2)


def check_zero(state, what: str) -> None:
    expect(not state.terms, f"{what}: nonzero residual with {len(state.terms)} terms")


def check_lemma35(g, u, v_word, m: int, cap: int, got: dict) -> None:
    du, dv = word_degree(g, u), word_degree(g, v_word)
    ns = range(math.ceil(du + dv - 1 - cap), math.floor(du + dv - 1 + max(-m, 0)) + 1)
    expect(sorted(got) == list(ns), f"mode indices {sorted(got)} != {list(ns)}")
    for n, r in got.items():
        check_zero(r, f"lemma 3.5 at n={n}")


def words_by_degree(g, max_degree: int, keep) -> dict:
    """Counts of Fock words per degree whose label passes `keep`."""
    parts = partitions(max_degree, 2)
    out = {d: 0 for d in range(max_degree + 1)}
    for v in lattice_points(g, 2 * max_degree, keep):
        half = norm(g, v) // 2
        for d in range(half, max_degree + 1):
            out[d] += parts[d - half]
    return out


def check_ideal_report(g, D, desc, sample_degree: int, cap: int, rep) -> None:
    expect(rep["check"] == "ideal", "check name")
    expect(rep["failures"] == [], f"{len(rep['failures'])} ideal failures")
    inP = lambda v: member(g, D, desc, v)
    if desc["kind"] == "type1":
        inS = lambda v: v != (0, 0) and inP(v)
    else:
        inS = lambda v: side(g, D, desc["gamma"], v) > 0
    na = sum(words_by_degree(g, sample_degree, inP).values())
    nb = sum(words_by_degree(g, sample_degree, inS).values())
    want = na * nb * (cap + 1)
    expect(rep["instances"] == want, f"instances {rep['instances']} != {want}")


def check_phi(g, alpha, cap: int, ctx_cap: int, rep) -> None:
    expect(rep["failures"] == [], f"{len(rep['failures'])} phi failures")
    expect(rep["omega_ok"] is True, "omega image")
    expect(rep["dims_ok"] is True, "dimension match")
    N = Fraction(norm(g, alpha), 2)
    parts = partitions(cap, 2)
    words = 0
    for d in range(cap + 1):
        p = 0
        while p * p * N <= d:
            words += parts[int(d - p * p * N)] * (1 if p == 0 else 2)
            p += 1
    want = words * words * (ctx_cap + 1)
    expect(rep["instances"] == want, f"instances {rep['instances']} != {want}")


def cocycle_sign(g, beta) -> int:
    return -1 if (beta[0] * beta[1] * g[1][0]) % 2 else 1


def check_nil(g, beta, cert) -> None:
    expect(cert["ok"] is True, "certificate not ok")
    expect(cert["N"] == norm(g, beta) // 2, f"N {cert['N']}")
    expect(cert["cocycle_sign"] == cocycle_sign(g, beta), "cocycle sign")
    expect(list(cert["beta"]) == list(beta), "beta")


def exp_word_state(fock, label, modes=(), coeff=1):
    return fock.FockState({fock.make_word(modes, label): coeff})


def check_reduce35(fock, g, beta, got) -> None:
    """R(e^b, e^b, 2N-1, 0) = eps(b, b) e^{2b}."""
    want = exp_word_state(fock, (2 * beta[0], 2 * beta[1]), (),
                          cocycle_sign(g, beta))
    expect(got == want, "reduce_35 of e^beta, e^beta")


def check_star(fock, g, beta, d: int, got) -> None:
    """h_d(-1)1 * e^{2b} = h_d(-1)e^{2b} + (2b|h_d) e^{2b}."""
    lab = (2 * beta[0], 2 * beta[1])
    want = exp_word_state(fock, lab, ((1, d),)) + exp_word_state(
        fock, lab, (), pair(g, lab, (1 if d == 0 else 0, 1 if d == 1 else 0)))
    expect(got == want, "star with h(-1)")


# -- quotients -------------------------------------------------------------------


def vh_dims(alpha_norm: int, cap: int) -> list:
    """dim of (M(1) (x) V_{Z alpha}) / C1 per degree, N = (alpha|alpha)/2."""
    N = alpha_norm // 2
    out = [0] * (cap + 1)
    out[0] = 1
    if cap >= 1:
        out[1] = 2
    if N <= cap:
        out[N] += 2
    return out


def check_dims(want: list, got) -> None:
    expect(list(got) == want, f"dims {list(got)} != {want}")


def rank(rows: list) -> int:
    """Rank over Q of sparse rows {key: Fraction}.  Each new pivot row is
    reduced by every earlier one, so one pass in pivot order clears them."""
    pivots = []
    for row in rows:
        row = dict(row)
        for key, prow in pivots:
            c = row.get(key)
            if c:
                for k, x in prow.items():
                    y = row.get(k, 0) - c * x
                    if y:
                        row[k] = y
                    else:
                        row.pop(k, None)
        if row:
            key = next(iter(row))
            inv = 1 / row[key]
            pivots.append((key, {k: x * inv for k, x in row.items()}))
    return len(pivots)


def fraction_row(state) -> dict:
    row = {}
    for w, c in state.terms.items():
        expect(c.b == 0, "irrational coefficient")
        row[w] = c.a
    return row


def vp_dims(pv, g, D: int, desc: dict, cap: int) -> list:
    """Quotient dimensions of V_P / C1(V_P) per degree by the benchmark's
    own elimination: dim = #words - rank(span) in each degree, where the
    span holds L(-1)v and a_{-1}b for positive-degree homogeneous words."""
    fock, vertexops = pv.fock, pv.vertexops
    sp = fock.FockSpace.full_lattice(pv.lattice.GramLattice(
        gram=tuple(tuple(r) for r in g), D=D))
    labels = lattice_points(g, 2 * cap, lambda v: member(g, D, desc, v))
    by_deg = {d: [] for d in range(cap + 1)}
    for v in labels:
        half = norm(g, v) // 2
        for d in range(half, cap + 1):
            for modes in coloured_partitions(d - half):
                by_deg[d].append(fock.make_word(modes, v))
    det = Fraction(g[0][0] * g[1][1] - g[0][1] * g[1][0])
    inv = ((g[1][1] / det, -g[0][1] / det), (-g[1][0] / det, g[0][0] / det))
    omega = fock.FockState()
    for i in range(2):
        for j in range(2):
            omega = omega + exp_word_state(fock, (0, 0), ((1, i), (1, j)),
                                           inv[i][j] / 2)
    dims = []
    for d in range(cap + 1):
        words = set(by_deg[d])
        rows = []
        for v in by_deg.get(d - 1, ()):
            if word_degree(g, v) > 0:
                rows.append(vertexops.state_mode(sp, omega, 0, fock.FockState.of(v)))
        for d1 in range(1, d):
            for a in by_deg[d1]:
                for b in by_deg[d - d1]:
                    if word_degree(g, b) > 0:
                        rows.append(vertexops.word_mode(sp, a, -1, fock.FockState.of(b)))
        rows = [fraction_row(s) for s in rows]
        expect(all(w in words for r in rows for w in r), "span leaves the degree")
        dims.append(len(words) - rank(rows))
    return dims


def binom(n: int, k: int) -> int:
    """Binomial coefficient with any integer top."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def eq33_diff(pv, g, sp, a, b):
    """a*b - sum_j C(wt b - 1, j) b_{j-1} a, for single words a, b."""
    wm = pv.vertexops.word_mode
    fs = pv.fock.FockState
    wa, wb = int(word_degree(g, a)), int(word_degree(g, b))
    out = fs()
    for j in range(wa + 1):
        out = out + wm(sp, a, j - 1, fs.of(b)).scale(binom(wa, j))
    for j in range(max(wb, 1)):
        out = out - wm(sp, b, j - 1, fs.of(a)).scale(binom(wb - 1, j))
    return out


def residue(pv, g, sp, x, y, m: int, n: int):
    """R(x, y, m, n) = sum_j C(wt x + n, j) x_{j-2-m} y."""
    fs = pv.fock.FockState
    wx = int(word_degree(g, x))
    out = fs()
    for j in range(wx + n + 1):
        out = out + pv.vertexops.word_mode(sp, x, j - 2 - m, fs.of(y)).scale(
            binom(wx + n, j))
    return out


def check_eq33(pv, g, a, b, pool, cap: int, mmax: int, cert) -> None:
    sp = pv.fock.FockSpace.full_lattice(pv.lattice.GramLattice(
        gram=tuple(tuple(r) for r in g), D=2))
    diff = eq33_diff(pv, g, sp, a, b)
    by_name = {w.to_str(): w for w in pool}
    if cert["status"] == "resolved":
        total = pv.fock.FockState()
        for term in cert["combination"]:
            c = Fraction(term["coeff"]["a"])
            expect(Fraction(term["coeff"]["b"]) == 0, "irrational coefficient")
            x, y = by_name[term["x"]], by_name[term["y"]]
            expect(0 <= term["n"] <= term["m"] <= mmax, "residue indices")
            total = total + residue(pv, g, sp, x, y, term["m"], term["n"]).scale(c)
        expect(total == diff, "replayed combination != a*b - b-side")
        return
    expect(cert["status"] == "unresolved", f"status {cert['status']}")
    rows = []
    for x in pool:
        wx = word_degree(g, x)
        if wx.denominator != 1:
            continue
        for y in pool:
            for m in range(mmax + 1):
                for n in range(m + 1):
                    if wx + word_degree(g, y) + m + 1 <= cap:
                        rows.append(fraction_row(residue(pv, g, sp, x, y, m, n)))
    target = fraction_row(diff)
    expect(rank(rows + [target]) > rank(rows), "unresolved but in the span")
