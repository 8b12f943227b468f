import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paravoa.cli import (
    COMMANDS,
    SessionConfig,
    build_parser,
    load_config,
    main,
    parse_alpha,
    parse_fraction,
    parse_hvec,
    parse_scalar,
    parse_vec,
)
from paravoa import cli, lattice, modrep, monoid, vertexops, zhu
from paravoa.fock import FULL_L, FockSpace, FockState, enumerate_basis
from paravoa.lattice import GramLattice, ParavoaError
from paravoa.monoid import borel_in, member
from paravoa.vertexops import TruncationCtx
from paravoa.zhu import eq33_certificate

from forms import reduced_forms, type2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def digest_runs(capsys, tmp_path, runs):
    """The sha256 over exit code, stdout and stderr of main on each argv in
    runs, in order, with tmp_path cut from the text; and the exit codes."""
    h = hashlib.sha256()
    codes = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        h.update(f"{code}\n{out}{err}".replace(str(tmp_path), "").encode())
        codes.append(code)
    return h.hexdigest(), codes


def usage_error(capsys, *argv):
    """main's stderr on argv, which must exit 2 with no stdout and one line
    of stderr that starts with "error: "."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n"), err[:7]) == (2, "", 1, "error: "), (argv, err)
    return err


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# -- config loading ----------------------------------------------------------


def test_bundled_configs_load():
    for name in ("a2", "diag22"):
        cfg = load_config(name)
        assert set(cfg.descriptors) == {"P1", "P2"}
        assert cfg.max_degree == 6


def test_config_from_path(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.json", {
        "lattice": {"gram": [[2, 0], [0, 4]]},
        "descriptors": {"Q": {"kind": "type2", "gamma": ["0", "1"]}},
    }))
    assert cfg.lattice.gram == ((2, 0), (0, 4))
    assert "Q" in cfg.descriptors


def test_config_parse_error_has_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ParavoaError, match="line 2"):
        load_config(str(p))


def test_deeply_nested_config_is_usage_error(capsys, tmp_path):
    # json.loads ends in RecursionError past the interpreter's depth limit
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    err = usage_error(capsys, "--config", str(p), "classify", "P2")
    assert "nested too deeply" in err and "Traceback" not in err


# each of these printed the decoder's message alone, without the config
@pytest.mark.parametrize("text,want", [
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"seed": ' + b"7" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
], ids=["not utf-8", "5000-digit integer"])
def test_undecodable_config_names_its_source(capsys, tmp_path, text, want):
    p = tmp_path / "c.json"
    p.write_bytes(text)
    err = usage_error(capsys, "--config", str(p), "classify", "P2")
    assert err.startswith(f"error: {p}: {want}")


def test_config_rejects_odd_gram():
    with pytest.raises(ParavoaError, match="bad lattice spec: diagonal Gram entries"):
        SessionConfig({"lattice": {"gram": [[1, 0], [0, 2]]}}, "test")


def a2_with(tmp_path, keys, value):
    """Path of a copy of the bundled a2 config with obj[k1][k2]... = value,
    or with value for the whole document when keys is empty."""
    root = {"": json.loads(resources.files("paravoa").joinpath("configs/a2.json").read_text())}
    *outer, last = ("", *keys)
    d = root
    for k in outer:
        d = d[k]
    d[last] = value
    return write_config(tmp_path / "a2-edited.json", root[""])


@pytest.mark.parametrize("D", [4, 0])
def test_config_rejects_bad_field(capsys, tmp_path, D):
    err = usage_error(capsys, "--config", a2_with(tmp_path, ("lattice", "D"), D),
                      "classify", "P2")
    assert "bad lattice spec" in err and f"got {D}" in err


# each of these used to be cut to an integer by int(), or run as given
@pytest.mark.parametrize("keys,value", [
    (("lattice", "gram"), [[2.9, -1], [-1, 2]]),
    (("lattice", "gram"), [[2, -1], [-1, 2, 0]]),
    (("lattice", "D"), 2.5),
    (("lattice", "D"), True),
    (("truncation", "maxDegree"), 6.0),
    (("truncation", "maxDegree"), -1),
    (("boxRadius",), 3.7),
    (("boxRadius",), -1),
    (("boxRadius",), 0),
    (("seed",), 1.5),
    (("seed",), "7"),
], ids=json.dumps)
def test_config_numbers_are_json_integers(capsys, tmp_path, keys, value):
    err = usage_error(capsys, "--config", a2_with(tmp_path, keys, value), "borel", "1,1~1")
    field = keys[-1] if keys[0] == "lattice" else ".".join(keys)
    assert f"{field}: expected" in err


@pytest.mark.parametrize("desc", [
    {"kind": "generators", "generators": [[1, "a"]]},
    {"kind": "cone", "cone": [[1, 0], [0.5, 1]]},
    {"kind": "generators", "generators": [[1, 0, 3]]},
], ids=json.dumps)
def test_descriptor_vectors_are_integer_pairs(capsys, tmp_path, desc):
    path = a2_with(tmp_path, ("descriptors", "G"), desc)
    err = usage_error(capsys, "--config", path, "classify", "G")
    assert f"descriptor 'G': {desc['kind']}: expected" in err


# each of these gave a message that did not name the field, such as
# "'int' object is not subscriptable" or "cannot unpack non-iterable NoneType"
@pytest.mark.parametrize("desc,want", [
    (5, "expected a JSON object, got 5"),
    ({"gamma": ["1", "2"]}, "kind: expected one of type1, type2, cone, generators"),
    ({"kind": "cone"}, "cone: required by kind 'cone'"),
    ({"kind": "generators", "generators": 1.5}, "generators: expected a list, got 1.5"),
    ({"kind": "cone", "cone": [[1, 2], [2, 4]]}, "cone generators must be independent"),
], ids=json.dumps)
def test_descriptor_errors_name_the_field(capsys, tmp_path, desc, want):
    path = a2_with(tmp_path, ("descriptors", "X"), desc)
    assert f"descriptor 'X': {want}" in usage_error(capsys, "--config", path, "classify", "X")


# each of these gave a Python error text in place of the field: "list indices
# must be integers or slices, not str", "'gram'" and "'lattice'"
@pytest.mark.parametrize("obj,want", [
    ({"lattice": [1, 2]}, "expected a JSON object, got [1, 2]"),
    ({"lattice": {"D": 2}}, "gram: required"),
    ({"descriptors": {}}, "lattice: required"),
], ids=json.dumps)
def test_lattice_errors_name_the_field(capsys, tmp_path, obj, want):
    path = write_config(tmp_path / "c.json", obj)
    err = usage_error(capsys, "--config", path, "classify", "P")
    assert err == f"error: {path}: bad lattice spec: {want}\n"


# each of these loaded with exit 0; the names are accepted and unused
@pytest.mark.parametrize("names", ["ab", ["x"], [1, 2]], ids=json.dumps)
def test_lattice_names_are_a_pair_of_strings(capsys, tmp_path, names):
    path = a2_with(tmp_path, ("lattice", "names"), names)
    err = usage_error(capsys, "--config", path, "classify", "P2")
    assert "bad lattice spec: names: expected" in err


# each of these ended in an AttributeError traceback, or a top-level list in
# "bad lattice spec", before the sections were checked at load
@pytest.mark.parametrize("keys,value", [
    (("truncation",), 5),
    (("truncation",), None),
    (("descriptors",), []),
    (("descriptors",), None),
    ((), []),
], ids=json.dumps)
def test_config_sections_are_json_objects(capsys, tmp_path, keys, value):
    err = usage_error(capsys, "--config", a2_with(tmp_path, keys, value), "borel", "1,1~1")
    assert f"{keys[0] if keys else 'config'}: expected a JSON object" in err


# each of these loaded with exit 0: a string split into characters, a third
# component dropped, an unknown key ignored, a float taken as a fraction, and
# a zero gamma accepted for type I
@pytest.mark.parametrize("name,gamma,want", [
    ("P2", "21", "gamma: expected a pair"),
    ("P2", ["2", "1", "7"], "gamma: expected a pair"),
    ("P2", [{"a": "2", "c": "9"}, "1"], "gamma: expected an integer"),
    ("P2", [2.5, 1], "gamma: expected an integer"),
    ("P2", ["1/0", "1"], "gamma: expected an integer"),
    ("P1", ["0", {"a": "0", "b": "0"}], "gamma must be nonzero"),
], ids=json.dumps)
def test_descriptor_gamma_is_a_pair_of_scalars(capsys, tmp_path, name, gamma, want):
    path = a2_with(tmp_path, ("descriptors", name, "gamma"), gamma)
    err = usage_error(capsys, "--config", path, "classify", name)
    assert f"descriptor {name!r}: {want}" in err


def test_large_field_costs_what_it_should(capsys, tmp_path):
    # D is checked squarefree once; arithmetic never repeats the check
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "--config",
                       a2_with(tmp_path, ("lattice", "D"), 999999000001),
                       "borel", "1~1,1")
    assert time.perf_counter() - t0 < 10
    assert code == 0
    obj = json.loads(out)
    assert obj["unionCoversBox"] and obj["intersectionIsZero"]


def test_large_squarefree_field_loads_fast(capsys, tmp_path):
    # the squarefree test takes about D^(1/3) steps, not D^(1/2)
    path = a2_with(tmp_path, ("lattice", "D"), 1000000000000037)
    t0 = time.process_time()
    code, out, err = run(capsys, "--config", path, "classify", "P2")
    assert time.process_time() - t0 < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == "TYPE_II"


# 2**64 + 1 = 274177 * 67280421310721 is squarefree, but no exact test of
# that stays fast, so the range check rejects it first
@pytest.mark.parametrize("D", [2**63, 2**64 + 1])
def test_field_past_the_exact_test_is_usage_error(capsys, tmp_path, D):
    err = usage_error(capsys, "--config", a2_with(tmp_path, ("lattice", "D"), D),
                      "classify", "P2")
    assert "D must be" in err and f"got {D}" in err


def test_scalar_and_vector_parsing():
    s = parse_scalar("1/2~3", 2)
    assert str(s.a) == "1/2" and str(s.b) == "3"
    assert parse_vec("2,-1") == (2, -1)
    g = parse_hvec("0,1~1", 2)
    assert g[1].b == 1


# -- subcommands -------------------------------------------------------------


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "classify", "P2")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "TYPE_II"
    assert obj["alpha"] == [1, 0]


def test_classify_unknown_descriptor(capsys):
    assert "unknown descriptor" in usage_error(capsys, "--config", "diag22", "classify", "NOPE")


def test_character_unknown_target(capsys):
    assert usage_error(capsys, "--config", "diag22", "character", "FOO") == (
        "error: unknown character target 'FOO'\n")


def test_borel_irrational(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "borel", "1,1~1")
    assert code == 0
    obj = json.loads(out)
    assert obj["unionCoversBox"] and obj["intersectionIsZero"]
    assert obj["alpha"] is None  # irrational slope misses the lattice


def test_saturate(capsys):
    code, out, _ = run(capsys, "--config", "a2", "saturate", "1,1", "0,-1")
    assert code == 0 and all(json.loads(out)["checks"].values())


def test_saturate_beta_det_holds_for_every_direction(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "saturate", "--", "0,-1", "1,1")
    assert code == 0 and all(json.loads(out)["checks"].values())


def test_saturate_bad_alpha_is_usage_error(capsys):
    assert "negative side" in usage_error(capsys, "--config", "a2", "saturate", "2,1", "0,-1")


def test_character_vh(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "character", "VH",
                       "--cap", "3")
    assert code == 0
    series = json.loads(out)["series"]
    assert series[0] == {"exp": "0", "dim": 1}
    assert series[1] == {"exp": "1", "dim": 4}


@pytest.mark.parametrize("cap, want", [
    ("3", "3"), ("1/3", "1/3"), (None, "6"), ("03", "3"), ("6/2", "3"), ("0.5", "1/2"),
    ("+3", "3"), ("-0", "0")])
def test_character_reports_the_parsed_cap(capsys, cap, want):
    # the cap that was computed to, written canonically, as c1-dims does;
    # spellings of one cap give one report
    given = () if cap is None else ("--cap", cap)
    code, out, _ = run(capsys, "--config", "a2", "character", "VL", *given)
    _, same, _ = run(capsys, "--config", "a2", "character", "VL", "--cap", want)
    assert code == 0 and json.loads(out)["cap"] == want and out == same


def test_character_module(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "character", "P2",
                       "--cap", "2", "--t", "0", "--i", "1")
    assert code == 0
    series = json.loads(out)["series"]
    assert series[0] == {"exp": "1/4", "dim": 2}


def test_character_module_index_out_of_range(capsys):
    err = usage_error(capsys, "--config", "diag22", "character", "P2",
                      "--t", "0", "--i", "9")
    assert err == "error: no module with coset index 9\n"


def test_character_vh_needs_a_boundary_line(capsys, tmp_path):
    # a cone has no boundary line to default --alpha to
    config = a2_with(tmp_path, ("descriptors",),
                     {"C": {"kind": "cone", "cone": [[1, 0], [0, 1]]}})
    err = usage_error(capsys, "--config", config, "character", "VH")
    assert err == "error: no descriptor provides a boundary line; pass --alpha\n"


def test_c1_verdicts(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "c1", "P1")
    assert code == 0
    assert json.loads(out)["verdict"] == "NOT_COFINITE"
    code, out, _ = run(capsys, "--config", "a2", "c1", "P2")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "COFINITE"
    assert obj["condition"]["value"] <= 0


def test_c1_dims_vh(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "c1-dims", "VH",
                       "--cap", "4")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 4, 0, 0, 0]


def test_c1_dims_of_a_descriptor(capsys):
    code, out, _ = run(capsys, "--config", "a2", "c1-dims", "P1", "--cap", "5")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 5, 0, 1, 0, 0]


def test_zhu_nil(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "zhu-nil", "P2", "0,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["N"] == 1


def test_fusion_table(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "fusion", "P2",
                       "--ts", "0")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["modules"]) == 2
    # exactly one output per input pair
    assert len(obj["nonzeroTriples"]) == 4


def test_verify_commutators_deterministic(capsys):
    code1, out1, _ = run(capsys, "--config", "diag22", "verify-commutators",
                         "--samples", "5")
    code2, out2, _ = run(capsys, "--config", "diag22", "verify-commutators",
                         "--samples", "5")
    assert code1 == code2 == 0
    assert out1 == out2  # identical config+seed, identical bytes


def test_verify_ideal(capsys):
    code, out, _ = run(capsys, "--config", "diag22", "verify-ideal", "P2",
                       "--sample-degree", "1")
    assert code == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("ceiling", [6, 10**30])
def test_verify_ideal_counts_modes_past_a_machine_word(capsys, tmp_path, ceiling):
    # each of the 14 pairs of degree <= 1 has the ceiling + 1 modes whose
    # result degree lies in [0, ceiling]; at 10**30 that count ended in an
    # OverflowError traceback
    path = a2_with(tmp_path, ("truncation", "maxDegree"), ceiling)
    code, out, _ = run(capsys, "--config", path, "verify-ideal", "P2", "--sample-degree", "1")
    assert code == 0
    assert json.loads(out) == {"check": "ideal", "failures": [],
                               "instances": 14 * (ceiling + 1)}


@pytest.mark.parametrize("ceiling,cap,words", [(10**30, "0", 1), (10**30, "2", 14),
                                                (10**6, "0", 1), (40000, "1", 5)])
def test_verify_iso_past_its_bound_exits_2(capsys, tmp_path, ceiling, cap, words):
    # the check has words^2 * (ceiling + 1) mode instances, and past the bound
    # it is refused before either route starts; at 10**30 it ended in a
    # MemoryError traceback with exit 1
    from paravoa.vertexops import PHI_HOM_MAX_INSTANCES

    instances = words * words * (ceiling + 1)
    assert instances > PHI_HOM_MAX_INSTANCES
    path = a2_with(tmp_path, ("truncation", "maxDegree"), ceiling)
    err = usage_error(capsys, "--config", path, "verify-iso", "--cap", cap,
                      "--char-cap", "1")
    assert err == (f"error: the tensor-factorization check has {instances} mode "
                   f"instances, above the bound {PHI_HOM_MAX_INSTANCES}: lower the "
                   "ceiling or the cap\n")


def test_pretty_goes_to_stderr(capsys):
    code, out, err = run(capsys, "--config", "diag22", "classify", "P2",
                         "--pretty")
    assert code == 0
    json.loads(out)  # stdout stays pure JSON
    assert "TYPE_II" in err


@pytest.mark.parametrize("argv", [
    ("--config", "a2", "character", "VH", "--alpha", "0,0"),
    ("--config", "a2", "character", "VH", "--alpha", "2,-2"),
    ("--config", "diag22", "verify-iso", "--alpha", "2,0"),
    ("--config", "diag22", "verify-iso", "--alpha", "0,0"),
    ("--config", "diag22", "c1-dims", "VH", "--alpha", "0,0"),
    ("--config", "diag22", "c1-dims", "VH", "--alpha", "3,3"),
], ids=lambda a: " ".join(a[2:]))
def test_alpha_must_be_primitive(capsys, argv):
    assert usage_error(capsys, *argv).startswith("error: alpha must be a primitive")


@pytest.mark.parametrize("argv", [
    ("--config", "a2", "character", "VL", "--cap", "1/0"),
    ("--config", "a2", "character", "VL", "--cap", "x"),
    ("--config", "diag22", "character", "P2", "--t", "1/0"),
    ("--config", "diag22", "verify-iso", "--char-cap", "3/0"),
    ("--config", "diag22", "fusion", "P2", "--ts", "0,1/0"),
    ("--config", "diag22", "fusion", "P2", "--ts", "0,,1"),
    ("--config", "diag22", "borel", "1/0,1"),
    ("--config", "diag22", "borel", "1,1~1/0"),
    ("--config", "diag22", "verify-commutators", "--samples", "x"),
    ("--config", "diag22", "verify-iso", "--cap", "x"),
    ("--config", "diag22", "character", "P2", "--i", "x"),
    ("--config", "diag22", "saturate", "1,1", "1,x"),
    ("--config", "diag22", "zhu-nil", "P2", "1,x"),
    # an empty value is bad input, not the option's default
    ("--config", "diag22", "character", "P2", "--t=", "--i", "1"),
    ("--config", "diag22", "character", "P2", "--t", "0", "--i="),
    ("--config", "diag22", "fusion", "P2", "--ts="),
], ids=lambda a: " ".join(a[2:]))
def test_bad_fraction_is_usage_error(capsys, argv):
    assert usage_error(capsys, *argv).startswith("error: bad ")


# argparse takes a value after "--t" that starts with "-" for an option;
# "--t=" or a "--" before the positionals keeps it a value
@pytest.mark.parametrize("argv,pick,want", [
    (("character", "P2", "--cap", "2", "--t=-1/2", "--i", "1"),
     lambda o: o["series"][0], {"exp": "1/2", "dim": 2}),
    (("fusion", "P2", "--ts=-1/2,0"),
     lambda o: [m["t"] for m in o["modules"]], ["-1/2", "-1/2", "0", "0"]),
    (("borel", "--", "-1,1"),
     lambda o: [c["a"] for c in o["descriptor"]["gamma"]], ["-1", "1"]),
], ids=["character --t=", "fusion --ts=", "borel --"])
def test_values_starting_with_minus(capsys, argv, pick, want):
    code, out, _ = run(capsys, "--config", "diag22", *argv)
    assert code == 0
    assert pick(json.loads(out)) == want


def test_a_bug_is_a_traceback_not_a_usage_error(monkeypatch):
    # only ParavoaError means bad input; any other ValueError propagates
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr("paravoa.cli.classify", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["--config", "diag22", "classify", "P2"])


@pytest.mark.parametrize("argv", [
    ("diag22", "fusion", "P2", "--ts", "1e2200"),
    ("diag22", "borel", "1e4300,1"),
    ("diag22", "saturate", "--", "-1e5000,-1", "0,1"),
    (None, "classify", "P1"),
    (None, "classify", "P2"),
    (None, "--pretty", "classify", "P2"),
], ids=lambda a: " ".join(a[1:]))
def test_a_result_too_long_to_print_is_usage_error(capsys, tmp_path, argv):
    # str() of an int has a 4300-digit limit; with --pretty it is first hit
    # in the summary line, before the report is written
    gamma = ["1e5000", "1"]
    config = argv[0] or a2_with(tmp_path, ("descriptors",), {
        "P1": {"kind": "type1", "gamma": gamma}, "P2": {"kind": "type2", "gamma": gamma}})
    err = usage_error(capsys, "--config", config, *argv[1:])
    assert err == "error: the result has an integer of more than 4300 digits, too long to print\n"


@pytest.mark.parametrize("argv", [
    ("fusion", "P2", "--ts", "1e2100"), ("borel", "1e4299,1"),
], ids=lambda a: " ".join(a))
def test_a_long_result_below_the_limit_prints(capsys, argv):
    code, out, err = run(capsys, "--config", "diag22", *argv)
    assert (code, err) == (0, "") and len(out) > 4300


def test_fusion_lams_need_two_components(capsys):
    err = usage_error(capsys, "--config", "a2", "fusion", "P1", "--lams", "1")
    assert err.startswith("error: expected 'x,y'")
    code, out, _ = run(capsys, "--config", "a2", "fusion", "P1", "--lams", "1,0;0,0")
    assert code == 0 and len(json.loads(out)["modules"]) == 2


@pytest.mark.parametrize("argv", [
    ("--config", "diag22", "character", "VH", "--alpha="),
    ("--config", "diag22", "c1-dims", "VH", "--alpha="),
    ("--config", "diag22", "verify-iso", "--alpha=", "--cap", "1"),
    ("--config", "a2", "fusion", "P1", "--lams="),
], ids=lambda a: " ".join(a[2:]))
def test_empty_vector_is_usage_error(capsys, argv):
    # not the default alpha or lams
    assert usage_error(capsys, *argv) == "error: expected 'x,y' integer vector, got ''\n"


def test_parse_helpers():
    assert parse_alpha("1,-2") == (1, -2)
    for bad, want in (("0,0", "alpha must be a primitive"), ("2,4", "alpha must be a primitive"),
                      ("1", "expected 'x,y' integer vector")):
        with pytest.raises(ParavoaError, match=want):
            parse_alpha(bad)
    assert parse_fraction("3/6", "--cap") == Fraction(1, 2)
    with pytest.raises(ParavoaError, match="bad --cap '1/0'"):
        parse_fraction("1/0", "--cap")


@pytest.mark.parametrize("argv", [
    ("--config", "a2", "character", "VL", "--cap", "-1"),
    ("--config", "diag22", "c1-dims", "VH", "--cap", "-1"),
    ("--config", "diag22", "verify-iso", "--cap", "-1"),
    ("--config", "diag22", "verify-iso", "--char-cap=-1/2"),
    ("--config", "diag22", "verify-commutators", "--samples", "-3"),
    ("--config", "diag22", "verify-ideal", "P2", "--sample-degree", "-1"),
], ids=lambda a: " ".join(a[2:]))
def test_negative_size_is_usage_error(capsys, argv):
    err = usage_error(capsys, *argv)
    assert err.startswith("error: --") and "must be non-negative" in err


def classify_other(capsys, tmp_path, generators, **extra):
    """The path of a config over gram [[2,0],[0,2]] whose descriptor G has
    these generators, after checking that classify G prints OTHER."""
    path = write_config(tmp_path / "gens.json", {
        "lattice": {"gram": [[2, 0], [0, 2]]},
        "descriptors": {"G": {"kind": "generators", "generators": generators}}, **extra})
    code, out, err = run(capsys, "--config", path, "classify", "G")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"parabolic": False, "type": "OTHER"}
    return path


def test_quadrant_classification_is_other(capsys, tmp_path):
    classify_other(capsys, tmp_path, [[1, 0], [0, 1]])


def test_generators_that_span_the_lattice_name_why(capsys, tmp_path):
    path = write_config(tmp_path / "gens.json", {
        "lattice": {"gram": [[2, 0], [0, 2]]},
        "descriptors": {"G": {"kind": "generators",
                              "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]}}})
    assert run(capsys, "--config", path, "classify", "G") == (0, (
        '{"parabolic": false, "type": "OTHER", '
        '"witnesses": {"note": "closure fills the box"}}\n'), "")


def test_character_of_one_module_builds_no_family(capsys, tmp_path):
    # the boundary line has 2N = 10**30 coset indices; --i picks one of
    # them without building the others
    path = write_config(tmp_path / "wide.json", {
        "lattice": {"gram": [[10**30, 0], [0, 2]]},
        "descriptors": {"P": {"kind": "type2", "gamma": ["0", "1"]}}})
    t0 = time.process_time()
    code, out, err = run(capsys, "--config", path, "character", "P", "--t", "0", "--i", "1")
    assert time.process_time() - t0 < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["series"][0] == {"dim": 1, "exp": f"1/{2 * 10**30}"}
    for i in (-1, 10**30):
        err = usage_error(capsys, "--config", path, "character", "P", "--i", str(i))
        assert err == f"error: no module with coset index {i}\n"


def test_character_module_of_a_type1_descriptor_is_usage_error(capsys):
    err = usage_error(capsys, "--config", "diag22", "character", "P1", "--cap", "2", "--t", "0")
    assert err == "error: --t/--i select type-II modules; descriptor 'P1' is TYPE_I\n"


# options a target or descriptor kind does not use exit 2, not silently
INAPPLICABLE = [
    (("diag22", "character", "VL", "--cap", "2", "--t", "5"), "--t does not apply to target 'VL'"),
    (("diag22", "character", "VL", "--i", "1"), "--i does not apply to target 'VL'"),
    (("diag22", "character", "VL", "--alpha", "1,0"), "--alpha does not apply to target 'VL'"),
    (("diag22", "character", "M1", "--alpha", "1,0"), "--alpha does not apply to target 'M1'"),
    (("diag22", "character", "M1", "--t", "0"), "--t does not apply to target 'M1'"),
    (("diag22", "character", "VH", "--t=1/2"), "--t does not apply to target 'VH'"),
    (("diag22", "character", "VH", "--i", "0"), "--i does not apply to target 'VH'"),
    (("diag22", "character", "P2", "--alpha", "1,0"), "--alpha does not apply to descriptor 'P2'"),
    (("a2", "character", "P1", "--alpha", "1,0"), "--alpha does not apply to descriptor 'P1'"),
    (("diag22", "c1-dims", "P2", "--alpha", "1,0"), "--alpha does not apply to descriptor 'P2'"),
    (("diag22", "c1-dims", "P1", "--cap", "1", "--alpha", "0,1"),
     "--alpha does not apply to descriptor 'P1'"),
    (("diag22", "fusion", "P2", "--lams", "1,0"),
     "--lams does not apply to TYPE_II descriptor 'P2'"),
    (("a2", "fusion", "P1", "--ts", "0"), "--ts does not apply to TYPE_I descriptor 'P1'"),
]


@pytest.mark.parametrize("argv,want", INAPPLICABLE, ids=[" ".join(a) for a, _ in INAPPLICABLE])
def test_inapplicable_option_is_usage_error(capsys, argv, want):
    assert run(capsys, "--config", *argv) == (2, "", f"error: {want}\n")


def test_verify_ideal_builds_the_normal_pair_once_per_descriptor(monkeypatch, capsys):
    # config loading checks P1 and P2, and check_ideal builds its ideal test once
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return normal(*args)

    normal = lattice._normal
    monkeypatch.setattr(lattice, "_normal", counted)
    monkeypatch.setattr(monoid, "_normal", counted)
    assert main(["--config", "diag22", "verify-ideal", "P2"]) == 0
    capsys.readouterr()
    assert calls[0] <= 3


def test_ceiling_overflow_is_exit_2_before_any_work(capsys):
    t0 = time.perf_counter()
    err = usage_error(capsys, "--config", "diag22", "zhu-nil", "P2", "0,2")
    assert time.perf_counter() - t0 < 2
    assert err == "error: result degree 16 exceeds ceiling 6\n"


# -- the README's commands ----------------------------------------------------

# exit code and sha256 of stdout of each command the README shows; stdout
# is promised byte-stable, so a change to one of these needs a reason
README_DIGESTS = {
    ("--config", "diag22", "classify", "P2"):
        (0, "7916ea09114d8f97a749283b4d424274e296714dcd63bff040abec560c994c08"),
    ("--config", "diag22", "character", "VH", "--cap", "3"):
        (0, "635fe6e2f1c5a29725d6240eccc8c5b26724ad80ee49197f27b5e2915ac07422"),
    ("--config", "diag22", "character", "P2", "--cap", "2", "--t", "0", "--i", "1"):
        (0, "77132c245f8ce94e475387e743e24d9be6bbd732d6a59dee34ca76b775fa22c3"),
    ("--config", "a2", "saturate", "1,1", "0,-1"):
        (0, "d0483751943c1ab3b5c8b31da8d2e2f2d269f31827687cc8419cd22f48190081"),
    ("--config", "diag22", "borel", "1,1~1"):
        (0, "a2d2d423ff1e515cc433a82be1713ae1da7b34821b67618d34b498c8bb57e077"),
    ("--config", "diag22", "verify-iso", "--cap", "2", "--char-cap", "12"):
        (0, "33a65ed56d475e1ae8366024cbf4f612f9f67f5459ce10779461855b2b589fd1"),
    ("--config", "diag22", "verify-ideal", "P2"):
        (0, "6e0416ce9b25ef16431b5279d95dc5e892f0e90f551f68a2859a9435f3215a83"),
    ("--config", "diag22", "verify-commutators", "--samples", "20"):
        (0, "5bc14a7c2cc7eb77baf93d9543ef9785065e2dd76b91348c45c98e7fb2b2eb9c"),
    ("--config", "diag22", "zhu-nil", "P2", "0,1"):
        (0, "da245a82349095306e2433540dd412b3c169007cc2b1cadcd76d66d25ba4db93"),
    ("--config", "diag22", "fusion", "P2", "--ts", "0,1/2"):
        (0, "34ef854f340fdf64bf2e038b6a49f227e51a3c3a9f090b32287f8ac89d5e10c8"),
    ("--config", "a2", "c1", "P2"):
        (0, "1709901eff43e276ec3d12a169b3b37ea6563099947ce945a1102a11a3b740d9"),
    ("--config", "diag22", "c1-dims", "VH", "--cap", "4"):
        (0, "82c102e65ded41bbfa21aa0f20b477541e6c2a24fdd76548131d1c399370993e"),
}


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line, comments=True)[1:])
            for line in block.splitlines() if line.startswith("paravoa ")]


def test_readme_commands_are_byte_stable(capsys, monkeypatch):
    assert readme_commands() == list(README_DIGESTS)
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kw):
        parsers.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv, want in README_DIGESTS.items():
        parsers.clear()
        code = main(list(argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == want, argv
        # the top parser and the named subcommand's, not one per subcommand
        assert len(parsers) <= 2, argv


# sha256 over exit code, stdout and stderr of each README command with
# --pretty, in order: the summaries are pinned as well as the reports
README_PRETTY_DIGEST = "940d8c0821ed7ab6173bed7c3e2978009c636e222ecdb215fe0ace3a10ae0a3a"


def test_readme_summaries_are_byte_stable(capsys, tmp_path):
    runs = [(*argv, "--pretty") for argv in README_DIGESTS]
    assert digest_runs(capsys, tmp_path, runs) == (README_PRETTY_DIGEST, [0] * 12)


# each verifying command with the library check it reads made to report a
# failure: (argv, the module the handler reads the check from, the check's
# name there, the stand-in made from the real one, the summary line)
FAILING = (
    (("borel", "1,2"), cli, "member", lambda real: lambda *a: True,
     "Borel axioms in box R=8: FAILED"),
    (("saturate", "1,1", "0,-1"), cli, "side", lambda real: lambda *a: None,
     "witnesses beta=(1, 0), beta'=(-1, 2): FAILED"),
    (("verify-iso", "--cap", "1", "--char-cap", "4"), modrep,
     "check_tensor_character", lambda real: lambda *a: {**real(*a), "equal": False},
     "mode instances: 175, failures: 0\nomega image: ok\n"
     "character identity to cap 4: FAILED"),
    (("verify-ideal", "P2", "--sample-degree", "1"), vertexops, "check_ideal",
     lambda real: lambda *a, **kw: {**real(*a, **kw), "failures": ["planted"]},
     "ideal stability: 42 instances, 1 failures"),
    (("verify-commutators", "--samples", "3"), vertexops, "check_commutator",
     lambda real: lambda sp, a, *rest: a,
     "commutator residuals: 3 samples, 3 failures"),
    (("zhu-nil", "P2", "0,1"), zhu, "nilpotency_certificate",
     lambda real: lambda *a: {**real(*a), "ok": False},
     "beta=(0, 1), N=1, steps=11: FAILED"),
)
# sha256 over exit code, stdout and stderr of the FAILING runs, in order
FAILING_DIGEST = "f328c16cd71bf8278519e85342242d2586d4daef3ba4c567f2e4996fd44a3b6b"


def test_a_failed_check_exits_1_with_its_whole_report(capsys, monkeypatch, tmp_path):
    for _, owner, name, stand_in, _ in FAILING:
        monkeypatch.setattr(owner, name, stand_in(getattr(owner, name)))
    runs = []
    for argv, _, _, _, summary in FAILING:
        runs.append(("--config", "diag22", "--pretty", *argv))
        code, out, err = run(capsys, *runs[-1])
        assert (code, out.count("\n"), err) == (1, 1, summary + "\n"), argv
        json.loads(out)  # the whole report, on one line
    assert digest_runs(capsys, tmp_path, runs) == (FAILING_DIGEST, [1] * 6)


@pytest.mark.parametrize("argv, summary", [
    (("verify-commutators", "--samples", "002"),
     "commutator residuals: 2 samples, 0 failures\n"),
    (("verify-iso", "--cap", "0", "--char-cap", "08/2"),
     "mode instances: 7, failures: 0\nomega image: ok\n"
     "character identity to cap 4: ok\n"),
], ids=["verify-commutators", "verify-iso"])
def test_summaries_print_parsed_sizes(capsys, argv, summary):
    # the summary names the value the check ran with, not the option text
    code, _, err = run(capsys, "--config", "diag22", "--pretty", *argv)
    assert (code, err) == (0, summary)


# -- parsing: the named subcommand's parser first, the full parser on exit ------

PARSE_CORPUS = (
    *README_DIGESTS,
    *((*argv[:2], "--pretty", *argv[2:]) for argv in README_DIGESTS),
    *((*argv, "--pretty") for argv in README_DIGESTS),
    ("--config=diag22", "classify", "P2"),
    ("--conf", "diag22", "classify", "P2"),
    ("--config", "c1", "classify", "P2"),
    ("--config", "diag22", "borel", "--", "-1,1"),
    ("--config", "diag22", "character", "P2", "--t=-1/2"),
)


def quiet_parse(parser, argv):
    """parser's Namespace for argv, or None where the parse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


def test_one_subcommand_parse_matches_the_full_parser():
    assert {argv[2] for argv in README_DIGESTS} == set(COMMANDS)
    exits = []
    for argv in PARSE_CORPUS:
        only = next(a for a in argv if a in COMMANDS)
        fast = quiet_parse(build_parser(only), argv)
        full = build_parser().parse_args(argv)
        if fast is None:
            exits.append(argv)
        else:
            assert fast == full, argv
    # the config value "c1" names a command, so "classify" is no choice
    assert exits == [("--config", "c1", "classify", "P2")]


# each parse here exits, or reaches a config named like a command; the full
# parser must print its own help and usage text for every one
PARSE_EXIT_ARGVS = (
    (), ("--help",), ("-h",), ("--config",), ("classify", "P2"),
    ("--config", "diag22"), ("--config", "diag22", "nope"),
    ("--config", "diag22", "--help", "classify"),
    ("--config", "diag22", "-h", "zhu-nil"),
    ("--config", "diag22", "classify"),
    ("--config", "diag22", "classify", "--help"),
    ("--config", "diag22", "--pretty", "c1", "--help"),
    ("--config", "diag22", "fusion", "--help"),
    ("--config", "diag22", "character", "--help"),
    ("--config", "diag22", "classify", "P2", "--bogus"),
    ("--config", "diag22", "classify", "P2", "extra"),
    ("--config", "diag22", "zhu-nil", "P2"),
    ("--config", "diag22", "c1-dims"),
    ("--config", "diag22", "borel", "-1,1"),
    ("--config", "diag22", "character", "P2", "--t", "-1/2"),
    ("--config", "diag22", "verify-commutators", "--samples", "2", "extra"),
    ("--config", "c1", "classify", "P2"),
    ("--conf", "c1", "c1", "P2"),
    ("--config", "classify", "c1", "P2"),
)
# sha256 over exit code, stdout and stderr of every run, in order, with a
# copy of diag22 named c1 in the working directory and 80 columns
PARSE_EXIT_DIGEST = "7eb42bb6c223b3596ee9a6b2c45aaf99b130de2d2b6e3608554d86d118e96ba5"


def test_parse_exits_are_byte_stable(capsys, monkeypatch, tmp_path):
    (tmp_path / "c1").write_text(
        resources.files("paravoa").joinpath("configs/diag22.json").read_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert digest_runs(capsys, tmp_path, PARSE_EXIT_ARGVS) == (PARSE_EXIT_DIGEST, [
        2, 0, 0, 2, 2, 2, 2, 0, 0, 2, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2])


def test_module_entry_point_matches_main(capsys, monkeypatch):
    # python -m runs main() with no argv, so it parses sys.argv[1:]
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["--config", "diag22", "classify", "P2"], ["--help"]):
        p = subprocess.run([sys.executable, "-m", "paravoa.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
        code = main(argv)
        assert (p.returncode, p.stdout) == (code, capsys.readouterr().out), argv


GEOMETRY = ("exactnum", "lattice", "monoid")
ENGINE = ("fock", "vertexops", "linalg", "zhu", "modrep")


def fresh_process(*args):
    """stdout and stderr of python -X importtime *args, a new interpreter on
    this checkout's src, which must exit 0."""
    src = Path(__file__).resolve().parents[1] / "src"
    p = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout, p.stderr


def paravoa_imports(importtime: str) -> set:
    """The paravoa modules named in -X importtime's report."""
    names = {line.rsplit("|", 1)[1].strip() for line in importtime.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "paravoa"}


@pytest.mark.parametrize("argv", [("classify", "P2"), ("borel", "1,1~1"),
                                  ("saturate", "1,1", "0,-1"), ("c1", "P2")])
def test_geometry_commands_load_no_engine_layer(argv):
    _, err = fresh_process("-m", "paravoa.cli", "--config", "diag22", *argv)
    assert paravoa_imports(err) == {"paravoa", *(f"paravoa.{m}" for m in GEOMETRY)}


def test_verify_ideal_loads_the_engine():
    _, err = fresh_process("-m", "paravoa.cli", "--config", "diag22", "verify-ideal", "P2")
    assert {"paravoa.fock", "paravoa.vertexops"} <= paravoa_imports(err)


def test_an_engine_package_attribute_loads_every_engine_layer():
    out, _ = fresh_process("-c", (
        "import sys, paravoa\n"
        "print(sorted(m for m in sys.modules if m.startswith('paravoa.')))\n"
        "print(paravoa.zhu.__name__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('paravoa.')))\n"
        "try:\n"
        "    paravoa.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"))
    loaded = repr(sorted(f"paravoa.{m}" for m in ENGINE + GEOMETRY))
    assert out.splitlines() == ["[]", "paravoa.zhu", loaded,
                                "module 'paravoa' has no attribute 'nope'"]


# -- geometry commands over the reduced-form family ----------------------------

# (type-I gamma, type-II gamma) on every reduced form: rational twice, then
# an irrational type I, whose hyperplane meets no lattice point but 0
GEOMETRY_GAMMAS = ((["1", "2"], ["1", "2"]), (["-3/2", 1], ["-3/2", 1]),
                   ([{"a": "1", "b": "1"}, "-1"], ["2", "-1"]))
GEOMETRY_COMMANDS = (
    ("classify", "P1"), ("classify", "P2"), ("classify", "G"),
    ("borel", "1,1~1"), ("c1", "P1"), ("c1", "P2"),
    ("character", "P1", "--cap", "2"), ("character", "P2", "--cap", "2"),
    ("saturate", "1,2", "0,-1"), ("saturate", "--", "1~1,-1/2", "-1,0"),
    ("saturate", "--", "-2~1,1", "1,0"),
)
GEOMETRY_DIGEST = "f1a92d008e725753c2009ff068c90917848df7f3f274edb1a7eff328184cb617"


def test_geometry_commands_are_byte_stable(capsys, tmp_path):
    runs = []
    for i, gram in enumerate(reduced_forms()):
        for j, (gamma1, gamma2) in enumerate(GEOMETRY_GAMMAS):
            path = write_config(tmp_path / f"form{i}-gamma{j}.json", {
                "lattice": {"gram": gram, "D": (2, 3, 5)[i % 3]},
                "descriptors": {
                    "P1": {"kind": "type1", "gamma": gamma1},
                    "P2": {"kind": "type2", "gamma": gamma2},
                    "G": {"kind": "generators",
                          "generators": [[1, 0], [-1, 0], [1, 1]]},
                },
                "boxRadius": 3,
            })
            runs += [("--config", path, *argv) for argv in GEOMETRY_COMMANDS]
    assert digest_runs(capsys, tmp_path, runs)[0] == GEOMETRY_DIGEST


def family_configs(tmp_path, descriptors):
    """One config per reduced form i, with D = 2, 3 or 5 by i mod 3, and side
    s = 1, -1, holding descriptors(L, s); their paths, in that order."""
    forms = [GramLattice(gram=g, D=(2, 3, 5)[i % 3]) for i, g in enumerate(reduced_forms())]
    return [write_config(tmp_path / f"form{i}{s:+d}.json", {
        "lattice": {"gram": L.gram, "D": L.D}, "descriptors": descriptors(L, s)})
        for i, L in enumerate(forms) for s in (1, -1)]


# type-II descriptors on the lattice lines through (1,0), (0,1) and (1,2);
# fusion runs on the first two, whose boundary vectors are short, and c1 on
# all three: the (1,2) line fails the C1 condition on some forms
def fusion_c1_descriptors(L, s):
    return {name: type2(L, a0, s).to_json()
            for name, a0 in (("X", (1, 0)), ("Y", (0, 1)), ("Q", (1, 2)))}


FUSION_C1_COMMANDS = (
    ("fusion", "X", "--ts=-1/3,0,1/2"), ("fusion", "Y", "--ts=-1/3,0,1/2"),
    ("c1", "X"), ("c1", "Y"), ("c1", "Q"),
)
FUSION_C1_DIGEST = "f7f5bbab68296d8925ec118057f4d92961bb88f2cda76e59f80582341cbaddd5"


def test_fusion_and_c1_are_byte_stable(capsys, tmp_path):
    runs = [("--config", path, *argv)
            for path in family_configs(tmp_path, fusion_c1_descriptors)
            for argv in FUSION_C1_COMMANDS]
    assert digest_runs(capsys, tmp_path, runs)[0] == FUSION_C1_DIGEST


# the algebra characters, every type-II module of X at t = -1/3 (X's alpha
# is (1, 0), so its coset indices are 0 .. g00 - 1) and the tensor identity
CHARACTER_COMMANDS = (
    ("character", "VL", "--cap", "7/2"), ("character", "M1", "--cap", "3"),
    ("character", "VH", "--cap", "5/2"),
    ("verify-iso", "--cap", "1", "--char-cap", "9/2"),
)
CHARACTER_DIGEST = "42dd0b1500469610da9396b3270175534a088cac95be047a189f3863fcc46c3a"


def test_characters_are_byte_stable(capsys, tmp_path):
    runs = []
    for path in family_configs(tmp_path, fusion_c1_descriptors):
        runs += [("--config", path, *argv) for argv in CHARACTER_COMMANDS]
        twoN = json.loads(Path(path).read_text())["lattice"]["gram"][0][0]
        runs += [("--config", path, "character", "X", "--t=-1/3", "--i", str(k))
                 for k in range(twoN)]
    assert digest_runs(capsys, tmp_path, runs) == (CHARACTER_DIGEST, [0] * len(runs))


# type II on the Fibonacci lines F and E, and the generators [a, -a, s*b]
# G and H on them with det[a, b] = +-1: c1 finds alpha's basis partners,
# which lie far out, whatever boxRadius says
C1_FAR_LINES = {"F": ((21, 13), (13, 8)), "E": ((89, 55), (55, 34))}


def c1_far_descriptors(L, s):
    out = {}
    for (name, (a0, b)), gen in zip(C1_FAR_LINES.items(), "GH"):
        out[name] = type2(L, a0, s).to_json()
        out[gen] = {"kind": "generators", "generators": [
            list(a0), [-a0[0], -a0[1]], [s * b[0], s * b[1]]]}
    return out


C1_FAR_DIGEST = "0e9267b741b512ef6c99ac31924584f20972919f507ae77d0a5bfbc0c85a09d1"


def test_c1_far_witnesses_are_byte_stable(capsys, tmp_path):
    runs = [("--config", path, "c1", name)
            for path in family_configs(tmp_path, c1_far_descriptors)
            for name in "FGEH"]
    assert digest_runs(capsys, tmp_path, runs)[0] == C1_FAR_DIGEST


def test_only_borel_reads_the_box_radius(capsys, tmp_path):
    # classify, c1 and fusion print the same at boxRadius 1 and 30
    L = GramLattice(gram=((2, -1), (-1, 8)), D=3)
    descriptors = {**fusion_c1_descriptors(L, 1), **c1_far_descriptors(L, -1)}
    argvs = [*FUSION_C1_COMMANDS, *((cmd, name) for cmd in ("classify", "c1")
                                    for name in descriptors)]
    got = []
    for radius in (1, 30):
        path = write_config(tmp_path / "form.json", {
            "lattice": {"gram": L.gram, "D": L.D}, "descriptors": descriptors,
            "boxRadius": radius})
        got.append(digest_runs(capsys, tmp_path, [("--config", path, *a) for a in argvs]))
    assert got[0] == got[1] and set(got[0][1]) == {0}


# -- generators are classified exactly, whatever boxRadius says ------------------

# the monoid generated by (1,0) and (-4,1) is a pointed cone: (-5,1) and
# (5,-1) are both outside it, so it is not parabolic at any radius
@pytest.mark.parametrize("radius", [3, 8])
def test_commands_classify_at_the_config_box_radius(capsys, tmp_path, radius):
    path = classify_other(capsys, tmp_path, [[1, 0], [-4, 1]], boxRadius=radius)
    for argv in (("zhu-nil", "G", "0,1"), ("verify-ideal", "G", "--sample-degree", "1"),
                 ("fusion", "G"), ("c1", "G")):
        assert run(capsys, "--config", path, *argv) == (
            2, "", "error: P must be parabolic\n"), argv


# -- fuzzed argument vectors -----------------------------------------------------

# malformed or out-of-domain values; none is large, so every run stays quick
BAD = st.sampled_from(["", "x", "-1", "1/0", "1/2", "nan", "1,2,3", "1,x", "0,0", "-"])
SIZE = st.one_of(st.sampled_from(["0", "1", "2"]), BAD)
VEC = st.one_of(st.sampled_from(["0,1", "1,0", "1,1", "0,-1", "-1,1", "2,0"]), BAD)
FRACTION = st.one_of(st.sampled_from(["0", "1/2", "-1/3"]), BAD)
GAMMA = st.one_of(st.sampled_from(["1,1", "1,1~1", "1,2", "1~1,0", "-1,1/2"]), BAD)
DESC = st.sampled_from(["P1", "P2", "Q"])


def _opt(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, v)))


ARGV = st.tuples(
    st.sampled_from(["a2", "diag22", "a2", "diag22", "nope"]),
    st.one_of(
        st.tuples(st.just("classify"), DESC),
        st.tuples(st.just("borel"), GAMMA),
        st.tuples(st.just("saturate"), GAMMA, VEC),
        st.tuples(st.just("character"), st.sampled_from(["P1", "P2", "VH", "VL", "M1", "Q"]),
                  st.just("--cap"), SIZE, _opt("--alpha", VEC), _opt("--t", FRACTION),
                  _opt("--i", SIZE)),
        st.tuples(st.just("verify-iso"), st.just("--cap"), st.sampled_from(["0", "1", "x"]),
                  st.just("--char-cap"), SIZE, _opt("--alpha", VEC)),
        st.tuples(st.just("verify-ideal"), DESC, st.just("--sample-degree"),
                  st.sampled_from(["0", "1", "-1", "x"])),
        st.tuples(st.just("verify-commutators"), st.just("--samples"), SIZE),
        st.tuples(st.just("zhu-nil"), DESC, VEC),
        st.tuples(st.just("fusion"), DESC, _opt("--ts", FRACTION), _opt("--lams", VEC)),
        st.tuples(st.just("c1"), DESC),
        st.tuples(st.just("c1-dims"), st.sampled_from(["VH", "P1", "P2", "Q"]),
                  st.just("--cap"), SIZE, _opt("--alpha", VEC)),
        st.tuples(st.sampled_from(["nope", "--help", "--pretty", "classify"])),
    ),
)


def _flatten(parts):
    for p in parts:
        if isinstance(p, tuple):
            yield from _flatten(p)
        else:
            yield p


@settings(max_examples=60, deadline=None)
@given(ARGV)
def test_main_never_raises_on_fuzzed_arguments(parts):
    config, rest = parts
    argv = ["--config", config, *_flatten(rest)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# -- generated configs -------------------------------------------------------------

# a config is drawn valid field by field, then up to two of its fields, at
# any depth, are dropped or given a mistyped or huge value
HUGE = 10**30
MISSING = object()
NONZERO = st.sampled_from([1, -1, 2, -2, 3])
RATIONAL = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "2/3"]))
RATIONAL_GAMMA = st.one_of(st.tuples(NONZERO, RATIONAL), st.tuples(RATIONAL, NONZERO)).map(list)
IRRATIONAL = st.fixed_dictionaries({"a": RATIONAL, "b": NONZERO})
DESCRIPTOR = st.one_of(
    st.fixed_dictionaries({"kind": st.just("type1"), "gamma": st.one_of(
        RATIONAL_GAMMA, st.tuples(RATIONAL, IRRATIONAL).map(list),
        st.tuples(IRRATIONAL, RATIONAL).map(list))}),
    st.fixed_dictionaries({"kind": st.just("type2"), "gamma": RATIONAL_GAMMA}),
    st.fixed_dictionaries({"kind": st.just("cone"), "cone": st.sampled_from(
        [[[1, 0], [0, 1]], [[1, 0], [1, 1]], [[1, 1], [-1, 1]], [[2, 1], [1, 2]]])}),
    st.fixed_dictionaries({"kind": st.just("generators"), "generators": st.sampled_from(
        [[[1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]], [[1, 0], [-1, 0], [0, 1]], [[2, 1]],
         [[1, 1], [-1, -1], [1, 0]]])}))
CONFIG = st.fixed_dictionaries({
    "lattice": st.fixed_dictionaries({
        "gram": st.sampled_from(reduced_forms()).map(lambda g: [list(r) for r in g]),
        "D": st.sampled_from([1, 2, 3, 5, 6, 7, 10]), "names": st.just(["a1", "a2"])}),
    "descriptors": st.fixed_dictionaries({"P": DESCRIPTOR, "Q": DESCRIPTOR}),
    "truncation": st.fixed_dictionaries({"maxDegree": st.integers(0, 8)}),
    "boxRadius": st.integers(1, 10), "seed": st.integers(0, 2**32)})
FIELDS = [
    ("lattice",), ("lattice", "gram"), ("lattice", "gram", 0), ("lattice", "gram", 0, 0),
    ("lattice", "gram", 0, 1), ("lattice", "gram", 1, 1), ("lattice", "D"),
    ("lattice", "names"), ("lattice", "names", 1), ("descriptors",), ("descriptors", "P"),
    ("descriptors", "P", "kind"), ("descriptors", "P", "gamma"),
    ("descriptors", "P", "gamma", 0), ("descriptors", "P", "gamma", 1),
    ("descriptors", "P", "cone"), ("descriptors", "P", "cone", 0),
    ("descriptors", "P", "cone", 1, 0), ("descriptors", "P", "generators"),
    ("descriptors", "P", "generators", 0), ("descriptors", "P", "generators", 0, 1),
    ("descriptors", "Q", "kind"), ("truncation",), ("truncation", "maxDegree"),
    ("boxRadius",), ("seed",)]
BAD_VALUES = st.sampled_from([
    MISSING, None, True, 1.5, "2", "x", [], {}, [1, 2, 3], [[1, 2]], -1, 0, HUGE, -HUGE,
    2**61 - 1, [HUGE, HUGE], [[HUGE, 0], [0, HUGE]], {"a": HUGE, "b": 1}])
FAULTS = st.lists(st.tuples(st.sampled_from(FIELDS), BAD_VALUES), max_size=2)
CONFIG_COMMANDS = [
    ("classify", "P"), ("borel", "1,1~1"), ("saturate", "1,1~1", "1,0"),
    ("character", "P", "--cap", "2"), ("character", "VH", "--cap", "2"),
    ("character", "VL", "--cap", "1"),
    ("character", "P", "--cap", "1", "--t", "1/2", "--i", "1"),
    ("verify-iso", "--cap", "1", "--char-cap", "2"),
    ("verify-ideal", "P", "--sample-degree", "1"), ("verify-commutators", "--samples", "2"),
    ("zhu-nil", "P", "0,1"), ("zhu-nil", "P", "1,1"), ("fusion", "P"), ("c1", "P"),
    ("c1-dims", "VH", "--cap", "2"), ("c1-dims", "P", "--cap", "2")]


def _field(d, k):
    """d[k] if the dict or list d holds k, else None."""
    if isinstance(d, dict):
        return d.get(k)
    if isinstance(d, list) and isinstance(k, int) and k < len(d):
        return d[k]
    return None


def with_faults(config, faults):
    """config with each (path, value) of faults applied in turn: the field
    at path dropped (MISSING) or set to value.  A path that an earlier
    fault cut off is passed over."""
    for path, value in faults:
        parent = config
        for k in path[:-1]:
            parent = _field(parent, k)
        k = path[-1]
        if isinstance(parent, dict) or _field(parent, k) is not None:
            if value is not MISSING:
                parent[k] = json.loads(json.dumps(value))
            elif k in parent or isinstance(parent, list):
                del parent[k]
    return config


# derandomized, so tier-1 runs the same 300 examples, about 2 s, each time
@settings(max_examples=300, deadline=None, derandomize=True)
@given(CONFIG, FAULTS, st.sampled_from(CONFIG_COMMANDS))
def test_generated_configs_keep_the_cli_contract(tmp_path_factory, config, faults,
                                                 command):
    config = with_faults(config, faults)
    path = write_config(tmp_path_factory.getbasetemp() / "generated.json", config)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", path, *command])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, (config, command, err)
    if code == 2:
        assert (out, err.count("\n"), err[:7]) == ("", 1, "error: "), (config, command, err)
    else:
        assert (out.count("\n"), out[-1:], err) == (1, "\n", ""), (config, command, err)
        json.loads(out)


# -- the degree ceiling at its edges --------------------------------------------

CEILING_COMMANDS = (
    ("verify-ideal", "P1", "--sample-degree", "1"),
    ("verify-ideal", "P2", "--sample-degree", "1"),
    ("zhu-nil", "P2", "0,1"), ("zhu-nil", "P1", "0,1"),
    ("verify-iso", "--cap", "2"), ("c1-dims", "VH", "--cap", "3"),
)
# sha256 over exit code, stdout and stderr of every run, in order, on the
# bundled configs at truncation.maxDegree 0..8; zhu-nil exits 2 below 4
CEILING_CLI_DIGEST = "c4725f40bfd7357986adb6d3b158abf08854310ed6fdcae37fcc53bc7b6f2151"
# sha256 of the Eq. 3.3 certificates of every ordered pair of the diag22
# words of degree <= 1 and label norm <= 2, at ceilings 2..5 on one space
CEILING_EQ33_DIGEST = "ae1a38e16b6c5489f1e4b6219f9c4146170639dd7af219bfe58670c1b008217f"


def test_ceiling_edges_are_byte_stable(capsys, tmp_path):
    runs = []
    for name in ("diag22", "a2"):
        obj = json.loads(resources.files("paravoa").joinpath(
            f"configs/{name}.json").read_text())
        for ceiling in range(9):
            obj["truncation"] = {"maxDegree": ceiling}
            path = write_config(tmp_path / f"{name}-{ceiling}.json", obj)
            runs += [("--config", path, *argv) for argv in CEILING_COMMANDS]
    digest, exits = digest_runs(capsys, tmp_path, runs)
    assert exits.count(2) == 16 and exits.count(0) == 92
    assert digest == CEILING_CLI_DIGEST

    L = load_config("diag22").lattice
    sp = FockSpace.full_lattice(L)
    pool = [w for d in range(2) for w in enumerate_basis(L, FULL_L, d)
            if L.norm(w.label) <= 2]
    certs = [eq33_certificate(sp, FockState.of(a), FockState.of(b), pool,
                              TruncationCtx(ceiling), 2)
             for ceiling in range(2, 6) for a in pool for b in pool]
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert digest == CEILING_EQ33_DIGEST


# -- Borel axioms, decided on all of L, against the sweep of the box ---------------

BOREL_GAMMAS = ("1,2", "-3/2,1", "0,1", "1~1,-1", "2,-1~1")


def test_borel_matches_the_box_sweep(capsys, tmp_path):
    # rational gammas have a boundary line through L and irrational ones do
    # not; the sweep tests both v and -v at every point of the box
    neg = lambda v: (-v[0], -v[1])
    lines = set()
    for i, gram in enumerate(reduced_forms()):
        for radius in (1, 3, 8):
            path = write_config(tmp_path / "form.json", {
                "lattice": {"gram": gram, "D": (2, 3, 5)[i % 3]}, "boxRadius": radius})
            L = load_config(path).lattice
            box = list(L.box(radius))
            for gamma in BOREL_GAMMAS:
                desc = borel_in(L, parse_hvec(gamma, L.D))
                union = all(member(L, desc, v) or member(L, desc, neg(v)) for v in box)
                inter = [v for v in box if member(L, desc, v) and member(L, desc, neg(v))]
                alpha = desc.boundary_alpha(L)
                lines.add(alpha is not None)
                ok = union and inter == [(0, 0)]
                code, out, err = run(capsys, "--config", path, "borel", "--", gamma)
                assert (code, err) == (0 if ok else 1, "")
                assert json.loads(out) == {
                    "descriptor": desc.to_json(),
                    "alpha": list(alpha) if alpha else None,
                    "boxRadius": radius,
                    "unionCoversBox": union,
                    "intersectionIsZero": inter == [(0, 0)],
                }, (gram, radius, gamma)
    assert lines == {True, False}
