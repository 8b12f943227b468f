"""Command-line front end: config ingestion, dispatch, JSON reports.

Machine output is a single JSON document on stdout; --pretty adds a human
summary on stderr.  Each cmd_* handler returns its report, its summary lines
and whether its checks passed, and writes nothing; main() alone writes, once
the report is serialized.  Exit codes: 0 all checks pass, 1 verification
failure, 2 a ParavoaError: a usage or config error, input that breaks a
precondition, or a result degree above the truncation ceiling
(TruncationOverflow); and 2 for a result with an integer past the
interpreter's digit limit, too long to print.  Any other exception is a bug
and ends in a traceback.

main() parses with a parser of only the first argument that names a
subcommand, silenced, and falls back to the parser of all subcommands, which
prints every help and usage text, only when that parse exits.

This module imports only exactnum, lattice and monoid; each handler imports
the engine layers it runs (fock, vertexops, linalg, zhu, modrep) when it
runs, so classify, borel and saturate load none of them.  The engine layers
stay attributes of the package: the first access to any of them imports all
five.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, Optional

from .exactnum import QuadScalar
from .lattice import PLUS, GramLattice, ParavoaError, _json_int, is_primitive, side
from .monoid import (
    MonoidDescriptor,
    borel_in,
    c1_decide,
    classify,
    member,
    parabolic,
    saturate_witnesses,
)

if TYPE_CHECKING:
    from .vertexops import TruncationCtx

__all__ = ["main", "SessionConfig"]


class SessionConfig:
    def __init__(self, obj: dict, source: str):
        sections = {"config": obj}
        if isinstance(obj, dict):
            sections.update((k, obj.get(k, {})) for k in ("descriptors", "truncation"))
        for what, x in sections.items():
            if not isinstance(x, dict):
                raise ParavoaError(f"{source}: {what}: expected a JSON object, got {x!r}")
        try:
            if "lattice" not in obj:
                raise ParavoaError("lattice: required")
            self.lattice = GramLattice.from_json(obj["lattice"])
        except ParavoaError as exc:
            raise ParavoaError(f"{source}: bad lattice spec: {exc}") from exc
        self.descriptors: dict = {}
        for name, d in sections["descriptors"].items():
            try:
                desc = MonoidDescriptor.from_json(d, self.lattice)
                desc.validate(self.lattice)
            except ParavoaError as exc:
                raise ParavoaError(f"{source}: descriptor {name!r}: {exc}") from exc
            self.descriptors[name] = desc
        try:
            self.max_degree = _json_int(sections["truncation"].get("maxDegree", 6),
                                        "truncation.maxDegree", 0)
            self.box_radius = _json_int(obj.get("boxRadius", 8), "boxRadius", 1)
            self.seed = _json_int(obj.get("seed", 0), "seed")
        except ParavoaError as exc:
            raise ParavoaError(f"{source}: {exc}") from exc
        self.source = source

    def ctx(self) -> TruncationCtx:
        from .vertexops import TruncationCtx

        return TruncationCtx(self.max_degree)

    def descriptor(self, name: str) -> MonoidDescriptor:
        if name not in self.descriptors:
            raise ParavoaError(
                f"unknown descriptor {name!r}; config has {sorted(self.descriptors)}"
            )
        return self.descriptors[name]


def load_config(spec: str) -> SessionConfig:
    """Load a config from a path, or a bundled name like 'a2' / 'diag22'."""
    bundled = resources.files("paravoa").joinpath(f"configs/{spec}.json")
    is_bundled = "/" not in spec and not spec.endswith(".json") and bundled.is_file()
    source = f"bundled:{spec}" if is_bundled else spec
    try:
        if is_bundled:
            text = bundled.read_text()
        else:
            with open(spec) as f:
                text = f.read()
        obj = json.loads(text)
    except OSError as exc:
        raise ParavoaError(f"cannot read config {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParavoaError(
            f"{source}: JSON parse error at line {exc.lineno}, col {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # bytes that are not UTF-8, a NUL in the path, or an integer literal
        # past Python's digit limit
        raise ParavoaError(f"{source}: {exc}") from exc
    except RecursionError as exc:
        raise ParavoaError(f"{source}: JSON nested too deeply") from exc
    return SessionConfig(obj, source)


def parse_scalar(s: str, D: int) -> QuadScalar:
    """'a' or 'a~b' meaning a + b*sqrt(D), components as fractions."""
    if "~" in s:
        a, b = s.split("~", 1)
        return QuadScalar(parse_fraction(a, "scalar part"),
                          parse_fraction(b, "scalar part"), D)
    return QuadScalar(parse_fraction(s, "scalar"), 0, D)


def parse_vec(s: str) -> tuple[int, int]:
    parts = s.split(",")
    if len(parts) != 2:
        raise ParavoaError(f"expected 'x,y' integer vector, got {s!r}")
    return (parse_int(parts[0], "vector entry"), parse_int(parts[1], "vector entry"))


def parse_alpha(s: str) -> tuple[int, int]:
    """An 'x,y' lattice vector that must be primitive (so not zero)."""
    v = parse_vec(s)
    if v == (0, 0) or not is_primitive(v):
        raise ParavoaError(f"alpha must be a primitive lattice vector, got {s!r}")
    return v


def parse_fraction(s: str, what: str) -> Fraction:
    """A rational 'p', 'p/q' or decimal argument; ParavoaError if malformed."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParavoaError(f"bad {what} {s!r}: {exc}") from exc


def parse_int(s: str, what: str) -> int:
    """An integer argument; ParavoaError if malformed."""
    try:
        return int(s)
    except ValueError as exc:
        raise ParavoaError(f"bad {what} {s!r}: {exc}") from exc


def parse_size(s: str, what: str, rational: bool = False):
    """A non-negative size argument: an integer, or a rational read as
    parse_fraction reads it if rational is set; ParavoaError if negative."""
    v = parse_fraction(s, what) if rational else parse_int(s, what)
    if v < 0:
        raise ParavoaError(f"{what} must be non-negative, got {s!r}")
    return v


def parse_hvec(s: str, D: int):
    parts = s.split(",")
    if len(parts) != 2:
        raise ParavoaError(f"expected 'x,y' vector, got {s!r}")
    return (parse_scalar(parts[0], D), parse_scalar(parts[1], D))


# -- subcommands: each returns (report, summary lines, ok) --------------------


def cmd_classify(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    rep = classify(cfg.lattice, cfg.descriptor(args.descriptor))
    line = f"{args.descriptor}: {rep.type}"
    if rep.alpha:
        line += f", boundary alpha {rep.alpha}"
    return rep.to_json(), [line], True


def cmd_borel(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    L = cfg.lattice
    gamma = parse_hvec(args.gamma, L.D)
    desc = borel_in(L, gamma)
    alpha = desc.boundary_alpha(L)
    R = cfg.box_radius
    # off the boundary line exactly one of v, -v is strictly positive, and
    # on it P decides k*alpha by the sign of k: so both axioms hold on all of
    # L, and in every box, unless P holds both or neither of +-alpha
    plus, minus = ((member(L, desc, alpha), member(L, desc, (-alpha[0], -alpha[1])))
                   if alpha else (True, False))
    union_ok, inter_ok = plus or minus, not (plus and minus)
    out = {
        "descriptor": desc.to_json(),
        "alpha": list(alpha) if alpha else None,
        "boxRadius": R,
        "unionCoversBox": union_ok,
        "intersectionIsZero": inter_ok,
    }
    ok = union_ok and inter_ok
    return out, [f"Borel axioms in box R={R}: {'ok' if ok else 'FAILED'}"], ok


def cmd_saturate(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    L = cfg.lattice
    gamma = parse_hvec(args.gamma, L.D)
    alpha = parse_vec(args.alpha)
    beta, beta_p = saturate_witnesses(L, gamma, alpha)
    checks = {
        "betaPositiveSide": side(L, gamma, beta) == PLUS,
        "betaPrimePositiveSide": side(L, gamma, beta_p) == PLUS,
        "betaDet": alpha[0] * beta[1] - alpha[1] * beta[0] == 1,
        "betaPrimeDet": alpha[0] * beta_p[1] - alpha[1] * beta_p[0] == -1,
    }
    ok = all(checks.values())
    out = {"beta": list(beta), "betaPrime": list(beta_p), "checks": checks}
    return out, [f"witnesses beta={beta}, beta'={beta_p}: "
                 f"{'ok' if ok else 'FAILED'}"], ok


def _character_target(cfg: SessionConfig, args):
    from .fock import Selector
    from .modrep import irreducibles

    L = cfg.lattice
    name = args.target
    if name in cfg.descriptors:
        P = cfg.descriptors[name]
        _inapplicable(args, ("alpha",), f"descriptor {name!r}")
        if args.t is not None or args.i is not None:
            if P.kind == "type1":
                raise ParavoaError(f"--t/--i select type-II modules; "
                                   f"descriptor {name!r} is TYPE_I")
            t = parse_fraction("0" if args.t is None else args.t, "--t")
            i = parse_int("0" if args.i is None else args.i, "--i")
            mods = irreducibles(L, P, {"ts": [t], "is": [i]})
            if not mods:
                raise ParavoaError(f"no module with coset index {i}")
            return mods[0]
        return Selector(kind="V_P", L=L, P=P)
    if name in ("VH", "V_H"):
        _inapplicable(args, ("t", "i"), f"target {name!r}")
        return Selector(kind="V_H", L=L, alpha=_alpha(cfg, args))
    if name in ("VL", "V_L", "M1"):
        _inapplicable(args, ("alpha", "t", "i"), f"target {name!r}")
        return Selector(kind="M1" if name == "M1" else "V_L", L=L)
    raise ParavoaError(f"unknown character target {name!r}")


def _inapplicable(args, options, where: str) -> None:
    """ParavoaError for the first of these options given: none applies here."""
    for opt in options:
        if getattr(args, opt) is not None:
            raise ParavoaError(f"--{opt} does not apply to {where}")


def _alpha(cfg: SessionConfig, args):
    """--alpha if given, else the first boundary line of a descriptor."""
    if args.alpha is not None:
        return parse_alpha(args.alpha)
    for desc in cfg.descriptors.values():
        a = desc.boundary_alpha(cfg.lattice)
        if a is not None:
            return a
    raise ParavoaError("no descriptor provides a boundary line; pass --alpha")


def cmd_character(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .modrep import character

    target = _character_target(cfg, args)
    cap = parse_size(args.cap, "--cap", rational=True)
    q = character(target, cap)
    out = {"target": args.target, "cap": str(cap), "series": q.to_json()}
    return out, ["  ".join(f"q^{t['exp']}:{t['dim']}" for t in out["series"])
                 or "(empty)"], True


def cmd_verify_iso(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .modrep import check_tensor_character
    from .vertexops import check_phi_hom

    L = cfg.lattice
    alpha = _alpha(cfg, args)
    char_cap = parse_size(args.char_cap, "--char-cap", rational=True)
    hom = check_phi_hom(L, alpha, parse_size(args.cap, "--cap"), cfg.ctx())
    chars = check_tensor_character(L, alpha, char_cap)
    ok = not hom["failures"] and hom["omega_ok"] and hom["dims_ok"] and chars["equal"]
    out = {"hom": {k: hom[k] for k in ("check", "instances", "failures",
                                       "omega_ok", "dims_ok")},
           "characters": chars}
    return out, [f"mode instances: {hom['instances']}, "
                 f"failures: {len(hom['failures'])}",
                 f"omega image: {'ok' if hom['omega_ok'] else 'FAILED'}",
                 f"character identity to cap {char_cap}: "
                 f"{'ok' if chars['equal'] else 'FAILED'}"], ok


def cmd_verify_ideal(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .vertexops import check_ideal

    rep = check_ideal(cfg.lattice, cfg.descriptor(args.descriptor), cfg.ctx(),
                      sample_degree=parse_size(args.sample_degree,
                                               "--sample-degree"))
    return rep, [f"ideal stability: {rep['instances']} instances, "
                 f"{len(rep['failures'])} failures"], not rep["failures"]


def cmd_verify_commutators(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .fock import FULL_L, FockSpace, FockState, enumerate_basis
    from .vertexops import check_commutator

    L = cfg.lattice
    sp = FockSpace.full_lattice(L)
    rng = random.Random(cfg.seed)
    pool = [w for d in range(3) for w in enumerate_basis(L, FULL_L, d)
            if L.norm(w.label) <= 2]
    samples = parse_size(args.samples, "--samples")
    failures = []
    for k in range(samples):
        a, b, v = (FockState.of(rng.choice(pool)) for _ in range(3))
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        if check_commutator(sp, a, b, m, n, v):
            failures.append({"sample": k, "m": m, "n": n})
    out = {"check": "commutator", "samples": samples, "failures": failures}
    return out, [f"commutator residuals: {samples} samples, "
                 f"{len(failures)} failures"], not failures


def cmd_zhu_nil(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .zhu import nilpotency_certificate

    cert = nilpotency_certificate(cfg.lattice, cfg.descriptor(args.descriptor),
                                  parse_vec(args.beta), cfg.ctx())
    ok = cert["ok"]
    return cert, [f"beta={tuple(cert['beta'])}, N={cert['N']}, "
                  f"steps={len(cert['steps'])}: {'ok' if ok else 'FAILED'}"], ok


def cmd_fusion(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .modrep import fusion_key, irreducibles

    L = cfg.lattice
    P = cfg.descriptor(args.descriptor)
    kind = parabolic(L, P).type
    if kind == "TYPE_I":
        _inapplicable(args, ("ts",), f"{kind} descriptor {args.descriptor!r}")
        lams = ("0,0" if args.lams is None else args.lams).split(";")
        mods = irreducibles(L, P, {"lams": [parse_vec(s) for s in lams]})
    else:
        _inapplicable(args, ("lams",), f"{kind} descriptor {args.descriptor!r}")
        ts = ("0" if args.ts is None else args.ts).split(",")
        mods = irreducibles(L, P, {"ts": [parse_fraction(t, "--ts") for t in ts]})
    # the modules of each fusion key, in order, and one lookup per pair
    js = [m.to_json() for m in mods]
    by_key: dict = {}
    for m, j in zip(mods, js):
        by_key.setdefault(fusion_key(m), []).append(j)
    table = [[j1, j2, j3] for m1, j1 in zip(mods, js) for m2, j2 in zip(mods, js)
             for j3 in by_key.get(fusion_key(m1, m2), ())]
    out = {"modules": js, "nonzeroTriples": table}
    return out, [f"{len(mods)} modules, {len(table)} nonzero fusion triples"], True


def cmd_c1(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    rep = c1_decide(cfg.lattice, cfg.descriptor(args.descriptor))
    return rep.to_json(), [f"verdict: {rep.verdict}"], True


def cmd_c1_dims(cfg: SessionConfig, args) -> tuple[dict, list, bool]:
    from .modrep import c1_quotient_dims

    L = cfg.lattice
    cap = parse_size(args.cap, "--cap")
    if args.target in ("VH", "V_H"):
        dims = c1_quotient_dims(L, "V_H", cap, alpha=_alpha(cfg, args))
    else:
        P = cfg.descriptor(args.target)
        _inapplicable(args, ("alpha",), f"descriptor {args.target!r}")
        dims = c1_quotient_dims(L, "V_P", cap, P=P)
    out = {"target": args.target, "cap": cap, "dims": dims}
    return out, ["dims per degree: " + " ".join(map(str, dims))], True


def _arg(*flags, **kw):
    return flags, kw


# name: (help, handler, arguments as add_argument's flags and keywords)
COMMANDS = {
    "classify": ("classify a submonoid descriptor", cmd_classify,
                 [_arg("descriptor")]),
    "borel": ("Borel-type submonoid for a direction", cmd_borel, [
        _arg("gamma", help="'x,y'; components 'a' or 'a~b' = a+b*sqrt(D); "
                           "after '--' if it starts with '-' (borel -- -1,1)")]),
    "saturate": ("saturation witness pair", cmd_saturate, [
        _arg("gamma"),
        _arg("alpha", help="'x,y' primitive lattice vector")]),
    "character": ("graded-dimension series", cmd_character, [
        _arg("target", help="descriptor name, VL, VH, or M1"),
        _arg("--cap", default="6"),
        _arg("--alpha"),
        _arg("--t", help="module parameter t (with a descriptor target); "
                         "a negative t as --t=-1/2"),
        _arg("--i", help="module coset index")]),
    "verify-iso": ("tensor-factorization checks", cmd_verify_iso, [
        _arg("--alpha"),
        _arg("--cap", default="2"),
        _arg("--char-cap", default="12")]),
    "verify-ideal": ("ideal stability spot checks", cmd_verify_ideal, [
        _arg("descriptor"),
        _arg("--sample-degree", default="2")]),
    "verify-commutators": ("seeded commutator residuals", cmd_verify_commutators,
                           [_arg("--samples", default="20")]),
    "zhu-nil": ("nilpotency certificate", cmd_zhu_nil, [
        _arg("descriptor"),
        _arg("beta", help="'x,y' lattice vector")]),
    "fusion": ("fusion table over a module sample", cmd_fusion, [
        _arg("descriptor"),
        _arg("--ts", help="comma-separated t values (type II); "
                          "a list that starts with '-' as --ts=-1/2,0"),
        _arg("--lams", help="semicolon-separated 'x,y' (type I)")]),
    "c1": ("C1-cofiniteness decision", cmd_c1, [_arg("descriptor")]),
    "c1-dims": ("quotient dimensions per degree", cmd_c1_dims, [
        _arg("target", help="VH or a descriptor name"),
        _arg("--cap", default="4"),
        _arg("--alpha")]),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The paravoa parser with every subcommand, or with the one named."""
    p = argparse.ArgumentParser(
        prog="paravoa",
        description="Exact computations for parabolic-type subalgebras of "
                    "rank-two lattice vertex operator algebras.",
    )
    p.add_argument("--config", required=True,
                   help="config file path or bundled name (a2, diag22)")
    p.add_argument("--pretty", action="store_true",
                   help="print a human-readable summary to stderr")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS if only is None else [only]:
        help_, fn, arguments = COMMANDS[name]
        s = sub.add_parser(name, help=help_)
        # accepted both before and after the subcommand
        s.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
        for flags, kw in arguments:
            s.add_argument(*flags, **kw)
        s.set_defaults(fn=fn)
    return p


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse with a parser of only the first token that names a command,
    silenced; if that parse exits (help, a usage error, or the token was a
    --config value), parse again with the full parser, which prints."""
    only = next((a for a in argv if a in COMMANDS), None)
    if only is not None:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return build_parser(only).parse_args(argv)
        except SystemExit:
            pass
    return build_parser().parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize --help to 0
        return int(exc.code or 0)
    try:
        report, summary, ok = args.fn(load_config(args.config), args)
        out = json.dumps(report, sort_keys=True) + "\n"
    except ParavoaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # else a bug
            raise
        sys.stderr.write("error: the result has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, too long to print\n")
        return 2
    sys.stdout.write(out)
    if args.pretty:
        sys.stderr.write("".join(ln + "\n" for ln in summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
