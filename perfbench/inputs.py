"""Seeded inputs of the four benchmark workloads.

Everything here is plain JSON data made with the benchmark's own integer
arithmetic; nothing imports paravoa.  The same seed always gives the same
inputs.  Which lattices a workload runs on is fixed where the cost of an
operation swings with the lattice (check_phi_hom, c1_quotient_dims); the
seed then draws directions, sample words and mode indices.

Regenerate every input of one seed as JSON files:

    python3 perfbench/inputs.py --seed 1 --out inputs-seed1
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("geometry", "modes", "quotient", "cli")

LARGE_D = 1000003  # prime, so squarefree
GEOMETRY_RADIUS = 3
GEOMETRY_LARGE_D_RADIUS = 2
GEOMETRY_CLASSIFY_RADIUS = 3
GEOMETRY_CHAR_CAP = 4
MAX_FUSION_NORM = 8
LEMMA35 = 8  # per lattice; u of degree <= 2, v of degree <= 1

# (Gram matrix, alpha) per norm class (alpha|alpha) = 2, 4, 6; alpha is a
# basis vector so that the lemma-3.5 words and beta are easy to write down.
MODES_PAIRS = (
    ([[2, 1], [1, 4]], [1, 0]),
    ([[4, -1], [-1, 4]], [0, 1]),
    ([[2, -1], [-1, 6]], [0, 1]),
)
# c1_quotient_dims for V_H: (Gram matrix, alpha, cap)
QUOTIENT_VH = (
    ([[2, 0], [0, 6]], [1, 0], 4),
    ([[4, 1], [1, 4]], [1, 0], 4),
    ([[2, 1], [1, 6]], [0, 1], 5),
)
# c1_quotient_dims for type-II V_P: (Gram matrix, boundary alpha, cap); the
# seed draws the orientation and scale of gamma, which leave the cost alone
QUOTIENT_VP = (
    ([[2, 0], [0, 2]], [1, 0], 3),
    ([[2, 1], [1, 4]], [1, 0], 4),
)
QUOTIENT_EQ33_GRAM = [[2, 0], [0, 2]]
CLI_GRAMS = ([[2, 1], [1, 4]], [[4, 1], [1, 4]])


# -- integer lattice helpers ---------------------------------------------------


def reduced_forms(maxdet: int = 15) -> list:
    """Reduced even positive-definite forms [[2a,b],[b,2c]] with
    |b| <= a <= c and det <= maxdet (Cohen, GTM 138, 5.3)."""
    out = []
    a = 1
    while 3 * a * a <= maxdet:
        c = a
        while 4 * a * c - a * a <= maxdet:
            for b in range(-a, a + 1):
                if 4 * a * c - b * b <= maxdet:
                    out.append([[2 * a, b], [b, 2 * c]])
            c += 1
        a += 1
    return out


def norm(g, v) -> int:
    return g[0][0] * v[0] * v[0] + 2 * g[0][1] * v[0] * v[1] + g[1][1] * v[1] * v[1]


def pair(g, u, v) -> int:
    return (u[0] * g[0][0] * v[0] + u[0] * g[0][1] * v[1]
            + u[1] * g[1][0] * v[0] + u[1] * g[1][1] * v[1])


def oriented(v) -> list:
    """Primitive multiple of v with its first nonzero coordinate positive."""
    k = math.gcd(abs(v[0]), abs(v[1]))
    v = [v[0] // k, v[1] // k]
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = [-v[0], -v[1]]
    return v


def primitive_vectors(radius: int) -> list:
    return [[x, y] for x in range(-radius, radius + 1)
            for y in range(-radius, radius + 1)
            if (x, y) != (0, 0) and math.gcd(abs(x), abs(y)) == 1]


def perp_gamma(g, alpha, scale: Fraction) -> list:
    """A rational direction orthogonal to alpha: scale * J(G alpha)."""
    w = (g[0][0] * alpha[0] + g[0][1] * alpha[1],
         g[1][0] * alpha[0] + g[1][1] * alpha[1])
    return [str(-w[1] * scale), str(w[0] * scale)]


def split_gamma(gamma):
    """Rational and sqrt(D) parts of a config-schema gamma."""
    a, b = [], []
    for comp in gamma:
        if isinstance(comp, dict):
            a.append(Fraction(comp["a"]))
            b.append(Fraction(comp.get("b", "0")))
        else:
            a.append(Fraction(comp))
            b.append(Fraction(0))
    return a, b


def normal_pair(g, gamma):
    """Integer vectors p, q with (gamma|v) proportional to p.v + (q.v)sqrt(D)."""
    a, b = split_gamma(gamma)
    p = [a[0] * g[0][j] + a[1] * g[1][j] for j in range(2)]
    q = [b[0] * g[0][j] + b[1] * g[1][j] for j in range(2)]
    den = math.lcm(*(x.denominator for x in p + q))
    return [int(x * den) for x in p], [int(x * den) for x in q]


def side(g, D: int, gamma, v) -> int:
    """sign((gamma|v)) with integers only: p.v + (q.v)*sqrt(D), squares compared."""
    p, q = normal_pair(g, gamma)
    x = p[0] * v[0] + p[1] * v[1]
    y = q[0] * v[0] + q[1] * v[1]
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > y * y * D else sy


def ext_basis(alpha, rng) -> list:
    """A beta with det[alpha, beta] = 1, shifted by a random multiple of alpha."""
    x, y = alpha

    def egcd(a, b):
        if b == 0:
            return (a, 1, 0)
        g0, s, t = egcd(b, a % b)
        return (g0, t, s - (a // b) * t)

    g0, s, t = egcd(x, y)  # x*s + y*t = g0 = +-1
    # det[alpha, beta] = x*b1 - y*b0 = 1 with beta = (-t, s) * g0
    beta = [-t * g0, s * g0]
    k = rng.randint(-1, 1)
    return [beta[0] + k * x, beta[1] + k * y]


def rand_fraction(rng, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_scale(rng) -> Fraction:
    s = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    return s if rng.random() < 0.5 else -s


def rand_irrational_gamma(rng) -> list:
    """a + b*sqrt(D) components whose rational and sqrt parts are not
    proportional, so the hyperplane meets the lattice only at 0."""
    while True:
        a = [rand_fraction(rng) for _ in range(2)]
        b = [rand_fraction(rng, -2, 2) for _ in range(2)]
        if a[0] * b[1] - a[1] * b[0] != 0:
            return [{"a": str(a[i]), "b": str(b[i])} for i in range(2)]


def short_alpha(g, rng, max_norm: int, min_norm: int = 0) -> list:
    cands = sorted({tuple(oriented(v)) for v in primitive_vectors(2)
                    if min_norm <= norm(g, v) <= max_norm})
    return list(rng.choice(cands))


def config(g, D: int, descriptors: dict, max_degree=6, seed=0):
    return {"lattice": {"gram": g, "D": D, "names": ["a1", "a2"]},
            "descriptors": descriptors,
            "truncation": {"maxDegree": max_degree},
            "boxRadius": 8, "seed": seed}


def half_plane_descriptors(g, rng, max_norm=MAX_FUSION_NORM, min_norm=0):
    """type1/type2 descriptors on one rational direction with a short
    boundary vector, so module samples stay small."""
    alpha = short_alpha(g, rng, max_norm, min_norm)
    gamma = perp_gamma(g, alpha, rand_scale(rng))
    return alpha, gamma


def words_up_to(g, max_degree: int, max_label_norm: int, keep=None) -> list:
    """Basis-word specs {modes, label} of degree <= max_degree, labels of
    norm <= max_label_norm kept by `keep`; modes are 2-coloured partitions."""
    out = []
    r = max_label_norm + 1
    labels = sorted((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                    if norm(g, (x, y)) <= max_label_norm
                    and (keep is None or keep((x, y))))
    for lab in labels:
        half = norm(g, lab) // 2
        for d in range(half, max_degree + 1):
            for modes in coloured_partitions(d - half):
                out.append({"modes": modes, "label": list(lab)})
    return out


def coloured_partitions(m: int) -> list:
    """All 2-coloured partitions of m as [[n, colour], ...], n descending."""
    out = []

    def rec(rest, max_part, max_colour, acc):
        if rest == 0:
            out.append([list(p) for p in acc])
            return
        for n in range(min(rest, max_part), 0, -1):
            for c in range(2):
                if n == max_part and c > max_colour:
                    continue
                rec(rest - n, n, c, acc + [(n, c)])

    rec(m, m, 1, [])
    return out


# -- workloads -----------------------------------------------------------------


def geometry(seed: int) -> dict:
    rng = random.Random(f"geometry:{seed}")
    sessions = []
    forms = reduced_forms()
    for idx, g in enumerate(forms):
        D = 2 if idx % 2 == 0 else 3
        alpha, gamma_rat = half_plane_descriptors(g, rng)
        gamma_irr = rand_irrational_gamma(rng)
        gen_alpha = short_alpha(g, rng, 12)
        gen_beta = ext_basis(gen_alpha, rng)
        neg = [v for v in primitive_vectors(3) if side(g, D, gamma_rat, v) < 0]
        sessions.append({
            "config": config(g, D, {
                "P1": {"kind": "type1", "gamma": gamma_rat},
                "P2": {"kind": "type2", "gamma": gamma_rat},
                "B1": {"kind": "type1", "gamma": gamma_irr},
                "G2": {"kind": "generators", "generators":
                       [gen_alpha, [-gen_alpha[0], -gen_alpha[1]], gen_beta]},
                "GF": {"kind": "generators",
                       "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
            }),
            "alpha": alpha,
            "gen_alpha": gen_alpha,
            "gen_beta": gen_beta,
            "sat_alpha": rng.choice(neg),
            "fusion_t": str(rng.choice([Fraction(1, 2), Fraction(1, 3),
                                        Fraction(2, 3), Fraction(1, 4)])),
            "radius": GEOMETRY_RADIUS,
            "classify_radius": GEOMETRY_CLASSIFY_RADIUS,
            "char_cap": GEOMETRY_CHAR_CAP,
            "large_d": False,
        })
    for idx in sorted(rng.sample(range(len(forms)), 2)):
        g = forms[idx]
        _, gamma_rat = half_plane_descriptors(g, rng)
        gamma_irr = rand_irrational_gamma(rng)
        neg = [v for v in primitive_vectors(3)
               if side(g, LARGE_D, gamma_rat, v) < 0]
        sessions.append({
            "config": config(g, LARGE_D, {
                "P2": {"kind": "type2", "gamma": gamma_rat},
                "B1": {"kind": "type1", "gamma": gamma_irr},
            }),
            "sat_alpha": rng.choice(neg),
            "radius": GEOMETRY_LARGE_D_RADIUS,
            "large_d": True,
        })
    return {"workload": "geometry", "seed": seed, "sessions": sessions}


def modes(seed: int) -> dict:
    rng = random.Random(f"modes:{seed}")
    lattices = []
    for g, alpha in MODES_PAIRS:
        d = 0 if alpha == [1, 0] else 1
        # beta (mode-basis coordinates) orthogonal to the direction of alpha
        beta = [g[1][0], -g[0][0]] if d == 0 else [g[1][1], -g[0][1]]
        k = math.gcd(*beta)
        beta = [beta[0] // k, beta[1] // k]
        # every pair a, b of low words at every (m, n) in [-1, 1]^2; the
        # seed draws v, so the mix of sample costs barely moves with it
        low = words_up_to(g, 1, 2)
        commutators = [{"a": a, "b": b, "v": rng.choice(low), "m": m, "n": n}
                       for a in low for b in low
                       for m in (-1, 0, 1) for n in (-1, 0, 1)]
        alpha_norm = norm(g, alpha)
        u_words = [w for w in words_up_to(g, 2, 2 * 2)
                   if all(c == d for _, c in w["modes"])
                   and w["label"][1 - d] == 0]
        v_words = words_up_to(g, 1, 2)
        # u, v and m run over their ranges in turn, not drawn: an instance
        # costs 1 to 40 ms with them, and drawing them moved a round's
        # time by 8% from one seed to the next
        lemma35 = [{"u": u_words[j % len(u_words)],
                    "v": v_words[j % len(v_words)],
                    "m": j % 7 - 3} for j in range(LEMMA35)]
        gamma = perp_gamma(g, alpha, rand_scale(rng))
        s_vectors = [v for v in primitive_vectors(2)
                     if 2 <= norm(g, v) <= 4
                     and side(g, 2, gamma, v) > 0]
        nil_betas = rng.sample(s_vectors, min(2, len(s_vectors)))
        lattices.append({
            "config": config(g, 2, {"P1": {"kind": "type1", "gamma": gamma},
                                    "P2": {"kind": "type2", "gamma": gamma}}),
            "alpha": alpha,
            "beta": beta,
            "commutators": commutators,
            "commutator_cap": 6,
            "lemma35": lemma35,
            "lemma35_cap": 4,
            "ideal_cap": 4,
            # degree-2 samples cost ~10x more where labels of norm 2 exist
            "ideal_sample_degree": 2 if alpha_norm > 2 else 1,
            "phi_cap": 2,
            "phi_ctx": 2,
            "nil_betas": nil_betas,
            "nil_cap": 8,
            "star_direction": rng.randint(0, 1),
        })
    return {"workload": "modes", "seed": seed, "lattices": lattices}


def quotient(seed: int) -> dict:
    rng = random.Random(f"quotient:{seed}")
    vh = [{"gram": g, "alpha": a, "cap": cap} for g, a, cap in QUOTIENT_VH]
    vp = []
    for g, alpha, cap in QUOTIENT_VP:
        vp.append({"gram": g, "cap": cap,
                   "P": {"kind": "type2",
                         "gamma": perp_gamma(g, alpha, rand_scale(rng))}})
    g, alpha = QUOTIENT_EQ33_GRAM, [1, 0]
    gamma = perp_gamma(g, alpha, rand_scale(rng))
    words = words_up_to(g, 1, 2, keep=lambda v: side(g, 2, gamma, v) >= 0)
    vacuum = {"modes": [], "label": [0, 0]}
    pool = [vacuum] + [w for w in words if w != vacuum]
    return {"workload": "quotient", "seed": seed, "vh": vh, "vp": vp,
            "eq33": {"gram": g, "P": {"kind": "type2", "gamma": gamma},
                     "pool": pool, "cap": 4, "mmax": 2,
                     "vacuum_a": rng.choice(pool[1:])}}


def cli(seed: int) -> dict:
    rng = random.Random(f"cli:{seed}")
    g1, g2 = CLI_GRAMS
    # boundary norm 4 on both: the module count, and with it the cost of
    # fusion and verify-ideal, follows the norm, and the seed should not
    # move which command is a round's median
    _, gamma1 = half_plane_descriptors(g1, rng, 4, min_norm=4)
    _, gamma2 = half_plane_descriptors(g2, rng, 4, min_norm=4)
    descs = lambda gm: {"P1": {"kind": "type1", "gamma": gm},
                        "P2": {"kind": "type2", "gamma": gm}}
    # the configs' own seed, which draws the verify-commutators samples
    # inside paravoa, stays 0: their cost swings from 11 to 71 ms with it
    configs = {
        "G1": config(g1, 3, descs(gamma1), max_degree=4),
        "G2": config(g2, 3, descs(gamma2), max_degree=8),
    }
    s2 = [v for v in primitive_vectors(2)
          if 2 <= norm(g2, v) <= 4 and side(g2, 3, gamma2, v) > 0]
    nil_beta = rng.choice(s2)
    irr = rand_irrational_gamma(rng)
    borel_gamma = ",".join(f"{c['a']}~{c['b']}" for c in irr)
    vec = lambda v: f"{v[0]},{v[1]}"
    commands = [
        # the one command run as its own `python -m paravoa.cli` process,
        # so that a round also pays for one interpreter start and import
        {"name": "classify", "config": "G1", "args": ["classify", "P2"],
         "process": True},
        {"name": "borel", "config": "diag22", "args": ["borel", "--", borel_gamma]},
        {"name": "character", "config": "G1",
         "args": ["character", "VH", "--cap", "3"]},
        {"name": "fusion", "config": "G1",
         "args": ["fusion", "P2", "--ts", "0,1/2"]},
        {"name": "c1", "config": "G2", "args": ["c1", "P2"]},
        {"name": "c1-dims", "config": "G2",
         "args": ["c1-dims", "VH", "--cap", "3"]},
        {"name": "verify-ideal", "config": "G1",
         "args": ["verify-ideal", "P2", "--sample-degree", "1"]},
        {"name": "zhu-nil", "config": "G2",
         "args": ["zhu-nil", "P2", "--", vec(nil_beta)]},
        {"name": "verify-commutators", "config": "G2",
         "args": ["verify-commutators", "--samples", "3"]},
        # kept failing, on fixed inputs: correct is exit 0 with
        # det[alpha, beta] = 1, but the witnesses come back in the other
        # order and the command exits 1
        {"name": "saturate-order", "config": "diag22",
         "args": ["saturate", "--", "0,-1", "1,1"]},
        # kept failing: both should exit 2 with a one-line error
        {"name": "character-VH-zero-alpha", "config": "a2",
         "args": ["character", "VH", "--alpha", "0,0"], "exit": 2},
        {"name": "character-zero-cap", "config": "a2",
         "args": ["character", "VL", "--cap", "1/0"], "exit": 2},
    ]
    return {"workload": "cli", "seed": seed, "configs": configs,
            "commands": commands, "borel_gamma": irr, "nil_beta": nil_beta}


GENERATORS = {"geometry": geometry, "modes": modes, "quotient": quotient,
              "cli": cli}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the JSON files")
    args = p.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name in WORKLOADS:
        with open(os.path.join(args.out, f"{name}.json"), "w") as f:
            json.dump(generate(name, args.seed), f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
