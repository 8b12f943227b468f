"""Tests of the benchmark's own code: every output check accepts a real
paravoa result and rejects the same result corrupted, so no check passes
vacuously; plus the seeded inputs, the tracer and the runner's refusal to
run without a source tree.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import paravoa  # noqa: E402
import paravoa.cli  # noqa: E402,F401
from paravoa.fock import FockSpace, FockState, make_word  # noqa: E402
from paravoa.lattice import GramLattice  # noqa: E402
from paravoa.monoid import MonoidDescriptor  # noqa: E402
from paravoa import modrep, monoid, vertexops, zhu  # noqa: E402

G = [[2, 1], [1, 4]]
L = GramLattice(gram=((2, 1), (1, 4)), D=2)
GAMMA = inputs.perp_gamma(G, [1, 0], Fraction(1))  # boundary alpha = (1, 0)
IRR = [{"a": "1", "b": "1/2"}, {"a": "-2", "b": "1"}]
P2 = {"kind": "type2", "gamma": GAMMA}
P1 = {"kind": "type1", "gamma": GAMMA}
B1 = {"kind": "type1", "gamma": IRR}


def desc(spec):
    return MonoidDescriptor.from_json(spec, L)


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


# -- inputs --------------------------------------------------------------------


def test_inputs_are_seeded():
    for w in inputs.WORKLOADS:
        assert inputs.generate(w, 7) == inputs.generate(w, 7)
        assert inputs.generate(w, 7) != inputs.generate(w, 8)


def test_reduced_forms_and_partitions():
    forms = inputs.reduced_forms()
    assert len(forms) == 15
    assert all(abs(g[0][1]) <= g[0][0] // 2 <= g[1][1] // 2 for g in forms)
    assert checks.partitions(6, 1) == [1, 1, 2, 3, 5, 7, 11]
    assert checks.partitions(5, 2) == [1, 2, 5, 10, 20, 36]
    assert all(len(inputs.coloured_partitions(m)) == c
               for m, c in enumerate(checks.partitions(5, 2)))


def test_integer_side_test_matches_paravoa():
    for gamma, D in ((GAMMA, 2), (IRR, 2), (IRR, inputs.LARGE_D)):
        Lg = GramLattice(gram=((2, 1), (1, 4)), D=D)
        d = MonoidDescriptor.from_json({"kind": "type1", "gamma": gamma}, Lg)
        for v in checks.box(3):
            assert checks.side(G, D, gamma, v) == paravoa.lattice.side(Lg, d.gamma, v)


# -- geometry ------------------------------------------------------------------


def test_sweep():
    pts = checks.box(2)
    got = [monoid.member(L, desc(B1), v) for v in pts]
    checks.check_sweep(G, 2, B1, pts, got)
    got[3] = not got[3]
    rejects(checks.check_sweep, G, 2, B1, pts, got)


def test_classify():
    rep = monoid.classify(L, desc(P2))
    checks.check_classify_halfplane(G, P2, rep)
    rejects(checks.check_classify_halfplane, G, P2, dataclasses.replace(rep, type="TYPE_I"))
    rejects(checks.check_classify_halfplane, G, P2, dataclasses.replace(rep, alpha=(2, 0)))
    gens = desc({"kind": "generators", "generators": [[1, 1], [-1, -1], [0, 1]]})
    rep = monoid.classify(L, gens, 3)
    checks.check_classify_generators(G, 2, [1, 1], [0, 1], rep)
    flipped = tuple(-x for x in rep.gamma)
    rejects(checks.check_classify_generators, G, 2, [1, 1], [0, 1],
            dataclasses.replace(rep, gamma=flipped))
    fill = desc({"kind": "generators", "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
    rep = monoid.classify(L, fill, 3)
    checks.check_classify_fill(rep)
    rejects(checks.check_classify_fill, dataclasses.replace(rep, is_parabolic=True))


def test_borel_and_saturate():
    pts = checks.box(2)
    d = monoid.borel_in(L, desc(B1).gamma)
    pos = [monoid.member(L, d, v) for v in pts]
    neg = [monoid.member(L, d, (-v[0], -v[1])) for v in pts]
    checks.check_borel(G, 2, IRR, pts, (d, pos, neg))
    k = next(i for i, v in enumerate(pts) if not pos[i])
    bad = list(pos)
    bad[k] = True
    rejects(checks.check_borel, G, 2, IRR, pts, (d, bad, neg))
    alpha = (-1, -1)
    got = monoid.saturate_witnesses(L, desc(P2).gamma, alpha)
    checks.check_saturate(G, 2, GAMMA, alpha, got)
    rejects(checks.check_saturate, G, 2, GAMMA, alpha, (got[0], got[0]))
    rejects(checks.check_saturate, G, 2, GAMMA, alpha, (got[0], (-got[1][0], -got[1][1])))


def test_c1():
    rep = modrep.c1_decide(L, desc(P2)).to_json()
    checks.check_c1(G, 2, P2, rep)
    rejects(checks.check_c1, G, 2, P2, {**rep, "condition": {**rep["condition"], "value": 5}})
    rejects(checks.check_c1, G, 2, P2, {**rep, "witness": [[1, 0], [1, 1]]})
    rejects(checks.check_c1, G, 2, P1, rep)


def test_characters():
    for sel, keep in ((modrep.Selector("V_L", L), lambda v: True),
                      (modrep.Selector("V_P", L, P=desc(P2)),
                       lambda v: checks.member(G, 2, P2, v)),
                      (modrep.Selector("V_H", L, alpha=(1, 0)), checks.on_line((1, 0)))):
        q = modrep.character(sel, 4)
        want = checks.series(G, 4, keep)
        checks.check_series(want, q.terms)
        bad = list(q.terms)
        bad[-1] = (bad[-1][0], bad[-1][1] + 1)
        rejects(checks.check_series, want, bad)


def test_fusion():
    ts = [Fraction(0), Fraction(1, 3)]
    mods = modrep.irreducibles(L, desc(P2), {"ts": ts})
    tup = [(m.t, m.i, m.N, m.h) for m in mods]
    checks.check_modules(G, [1, 0], ts, tup)
    rejects(checks.check_modules, G, [1, 0], ts, tup[:-1])
    rejects(checks.check_modules, G, [1, 0], ts,
            [tup[0][:3] + (tup[0][3] + 1,)] + tup[1:])
    table = [(a, b, c) for a, m1 in enumerate(mods) for b, m2 in enumerate(mods)
             for c, m3 in enumerate(mods) if modrep.fusion(m1, m2, m3)]
    ti = [(m.t, m.i) for m in mods]
    checks.check_fusion_table(ti, table)
    rejects(checks.check_fusion_table, ti, table[1:])
    a, b, c = table[0]
    rejects(checks.check_fusion_table, ti, [(a, b, (c + 1) % len(mods))] + table[1:])


# -- modes ----------------------------------------------------------------------


def test_commutator_and_lemma35():
    sp = FockSpace.full_lattice(L)
    w = make_word(((1, 0),), (0, 0))
    e = FockState.of(make_word((), (1, 0)))
    res = vertexops.check_commutator(sp, FockState.of(w), e, 1, -1, e,
                                     vertexops.TruncationCtx(6))
    checks.check_zero(res, "commutator")
    rejects(checks.check_zero, e, "commutator")
    u, v = make_word(((1, 0),), (1, 0)), make_word(((1, 1),), (0, 0))
    got = vertexops.check_lemma35(sp, (1, -2), -1, u, FockState.of(v),
                                  vertexops.TruncationCtx(4))
    checks.check_lemma35(G, u, v, -1, 4, got)
    n = min(got)
    rejects(checks.check_lemma35, G, u, v, -1, 4, {**got, n: e})
    rejects(checks.check_lemma35, G, u, v, -1, 4, {k: r for k, r in got.items() if k != n})


def test_ideal_and_phi():
    rep = vertexops.check_ideal(L, desc(P2), vertexops.TruncationCtx(3), 1)
    checks.check_ideal_report(G, 2, P2, 1, 3, rep)
    rejects(checks.check_ideal_report, G, 2, P2, 1, 3, {**rep, "instances": rep["instances"] - 1})
    rejects(checks.check_ideal_report, G, 2, P2, 1, 3, {**rep, "failures": [{"n": 0}]})
    rep = vertexops.check_phi_hom(L, (1, 0), 1, vertexops.TruncationCtx(1))
    checks.check_phi(G, (1, 0), 1, 1, rep)
    for key, bad in (("omega_ok", False), ("dims_ok", False), ("failures", [{}]),
                     ("instances", rep["instances"] + 1)):
        rejects(checks.check_phi, G, (1, 0), 1, 1, {**rep, key: bad})


def test_certificates():
    beta = (0, 1)
    ctx = vertexops.TruncationCtx(8)
    cert = zhu.nilpotency_certificate(L, desc(P2), beta, ctx)
    checks.check_nil(G, beta, cert)
    rejects(checks.check_nil, G, beta, {**cert, "N": cert["N"] + 1})
    rejects(checks.check_nil, G, beta, {**cert, "cocycle_sign": -cert["cocycle_sign"]})
    rejects(checks.check_nil, G, beta, {**cert, "ok": False})
    sp = FockSpace.full_lattice(L)
    eb, e2b = sp.exp_state(beta), sp.exp_state((0, 2))
    r = zhu.reduce_35(sp, eb, eb, 3, 0, ctx)
    checks.check_reduce35(paravoa.fock, G, beta, r)
    rejects(checks.check_reduce35, paravoa.fock, G, beta, r.scale(-1))
    h1 = FockState.of(sp.word(((1, 1),)))
    s = zhu.star(sp, h1, e2b, ctx)
    checks.check_star(paravoa.fock, G, beta, 1, s)
    rejects(checks.check_star, paravoa.fock, G, beta, 1, s - e2b)
    # a cocycle-sign case: odd g10 and beta0 * beta1 odd
    ga2 = [[2, -1], [-1, 2]]
    spa = FockSpace.full_lattice(GramLattice(gram=((2, -1), (-1, 2)), D=2))
    eb = spa.exp_state((1, 1))
    r = zhu.reduce_35(spa, eb, eb, 1, 0, None)
    assert checks.cocycle_sign(ga2, (1, 1)) == -1
    checks.check_reduce35(paravoa.fock, ga2, (1, 1), r)
    rejects(checks.check_reduce35, paravoa.fock, ga2, (1, 1), r.scale(-1))


# -- quotients ------------------------------------------------------------------


def test_quotient_dims():
    diag = GramLattice(gram=((2, 0), (0, 2)), D=2)
    dims = modrep.c1_quotient_dims(diag, "V_H", 3, alpha=(1, 0))
    checks.check_dims(checks.vh_dims(2, 3), dims)
    assert checks.vh_dims(4, 3) == [1, 2, 2, 0]
    rejects(checks.check_dims, checks.vh_dims(2, 3), dims[:-1] + [1])
    gd = [[2, 0], [0, 2]]
    spec = {"kind": "type2", "gamma": ["0", "1"]}
    dims = modrep.c1_quotient_dims(diag, "V_P", 2,
                                   P=MonoidDescriptor.from_json(spec, diag))
    own = checks.vp_dims(paravoa, gd, 2, spec, 2)
    checks.check_dims(own, dims)
    rejects(checks.check_dims, own, [dims[0], dims[1] + 1, dims[2]])


def test_eq33_replay():
    gd = [[2, 0], [0, 2]]
    diag = GramLattice(gram=((2, 0), (0, 2)), D=2)
    sp = FockSpace.full_lattice(diag)
    pool = [make_word((), (0, 0)), make_word((), (-1, 0)), make_word(((1, 0),), (0, 0)),
            make_word(((1, 1),), (0, 0))]
    a, b = pool[1], pool[2]
    cert = zhu.eq33_certificate(sp, FockState.of(a), FockState.of(b), pool,
                                vertexops.TruncationCtx(4))
    assert cert["status"] == "resolved" and cert["combination"]
    checks.check_eq33(paravoa, gd, a, b, pool, 4, 2, cert)
    term = cert["combination"][0]
    bad = {**term, "coeff": {"a": str(Fraction(term["coeff"]["a"]) + 1), "b": "0"}}
    rejects(checks.check_eq33, paravoa, gd, a, b, pool, 4, 2,
            {**cert, "combination": [bad] + cert["combination"][1:]})
    rejects(checks.check_eq33, paravoa, gd, a, b, pool, 4, 2, {"status": "unresolved"})
    rejects(checks.check_eq33, paravoa, gd, a, b, pool, 4, 2,
            {"status": "resolved", "combination": []})
    # the vacuum as b: a*1 - 1_{-1}a = 0, so the correct result is an empty
    # combination (paravoa raises ValueError here today)
    checks.check_eq33(paravoa, gd, a, pool[0], pool, 4, 2,
                      {"status": "resolved", "combination": []})


# -- cli ------------------------------------------------------------------------


CORRUPT = {
    "classify": lambda o: o.update(alpha=[o["alpha"][0] + 1, o["alpha"][1]]),
    "borel": lambda o: o.update(intersectionIsZero=False),
    "character": lambda o: o["series"][-1].update(dim=o["series"][-1]["dim"] + 1),
    "fusion": lambda o: o["nonzeroTriples"].pop(),
    "c1": lambda o: o.update(verdict="NOT_COFINITE"),
    "c1-dims": lambda o: o["dims"].__setitem__(1, 3),
    "verify-ideal": lambda o: o.update(instances=o["instances"] + 1),
    "zhu-nil": lambda o: o.update(N=o["N"] + 1),
    "verify-commutators": lambda o: o.update(failures=[{"sample": 0}]),
}


def test_cli_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.Cli(inputs.generate("cli", 3), paravoa, str(tmp_path / "work"))
    session = wl.setup()
    seen = set()
    for op in session.ops:
        name = op.label.split(":", 1)[1]
        if op.kept_failing:
            with pytest.raises(workloads.OpFailed):
                op.run()
            continue
        res = op.run()
        op.check(res)
        obj = res.json()
        CORRUPT[name](obj)
        bad = workloads.CliResult(0, json.dumps(obj).encode(), b"")
        rejects(op.check, bad)
        seen.add(name)
    assert seen == set(CORRUPT)
    wl.cleanup()


# -- tracer and runner ----------------------------------------------------------


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    a, b = tr.intern("fock.x", "fock"), tr.intern("exactnum.y", "exactnum")
    for name, parent, start, end in ((a, -1, 0.0, 10.0), (b, 0, 1.0, 4.0),
                                     (b, 0, 5.0, 6.0)):
        tr.span_name.append(name)
        tr.span_parent.append(parent)
        tr.span_start.append(start)
        tr.span_end.append(end)
    st = tr.self_times()
    assert st["fock"] == 6.0 and st["exactnum"] == 4.0


def test_tracer_wraps_every_namespace():
    tr = tracing.Tracer()
    tr.install()
    try:
        assert zhu.exp_mode is paravoa.vertexops.exp_mode
        assert zhu.exp_mode.__wrapped__ is not None
        tr.enabled = True
        zhu.nilpotency_certificate(L, desc(P2), (0, 1), vertexops.TruncationCtx(8))
        tr.enabled = False
        calls = tr.call_counts()
        assert calls["vertexops.exp_mode"] > 0
        assert calls["exactnum.QuadScalar.__init__"] > 0
        st = tr.self_times()
        assert st["zhu"] > 0 and st["vertexops"] > 0
    finally:
        tr.uninstall()
    assert not hasattr(zhu.exp_mode, "__wrapped__")


def test_runner_refuses_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and not p.stdout
