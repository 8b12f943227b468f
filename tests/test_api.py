"""The public surface other code looks up by name: every module's __all__,
the names perfbench/tracing.py wraps when it traces a benchmark run, and
everything one round of each benchmark workload calls."""

import ast
import importlib
import pathlib
import sys

import pytest

MODULES = ("exactnum", "lattice", "monoid", "fock", "vertexops", "linalg",
           "zhu", "modrep", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"paravoa.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_paravoa_defines_two_exception_classes():
    from paravoa.lattice import ParavoaError
    from paravoa.vertexops import TruncationOverflow

    defined = {obj for name in MODULES
               for obj in vars(importlib.import_module(f"paravoa.{name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__.startswith("paravoa.")}
    assert defined == {ParavoaError, TruncationOverflow}
    assert issubclass(TruncationOverflow, ParavoaError)
    assert issubclass(ParavoaError, ValueError)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _ceiling_reads(tree: ast.AST, cls: str = "") -> list:
    """(line, what) of each read of .max_degree and each except clause naming
    TruncationOverflow outside class TruncationCtx; SessionConfig may read
    its own config field."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _ceiling_reads(node, node.name)
            continue
        if cls != "TruncationCtx":
            if (isinstance(node, ast.Attribute) and node.attr == "max_degree"
                    and isinstance(node.ctx, ast.Load)
                    and not (cls == "SessionConfig" and isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.append((node.lineno, ".max_degree"))
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "TruncationOverflow" in ast.unparse(node.type)):
                found.append((node.lineno, "except TruncationOverflow"))
        found += _ceiling_reads(node, cls)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_only_truncation_ctx_compares_with_the_ceiling(name):
    # callers ask TruncationCtx (fits, check, lowest_mode) instead of
    # reading the ceiling or catching its overflow
    path = ROOT / "src" / "paravoa" / f"{name}.py"
    assert _ceiling_reads(ast.parse(path.read_text())) == []


def test_the_ceiling_check_sees_what_it_forbids():
    bad = ast.parse(
        "def f(ctx):\n"
        "    try:\n"
        "        return ctx.max_degree\n"
        "    except (KeyError, TruncationOverflow):\n"
        "        pass\n"
        "class SessionConfig:\n"
        "    def ctx(self, other):\n"
        "        return self.max_degree + other.max_degree\n")
    assert sorted(_ceiling_reads(bad)) == [
        (3, ".max_degree"), (4, "except TruncationOverflow"), (8, ".max_degree")]


def _unused_imports(tree: ast.Module) -> list:
    """Names a module-level import binds that the module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = [(a.asname or a.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for a in node.names]
    return [name for name in bound if name not in read]


def _references(tree: ast.Module) -> set:
    """Names read as a name, an attribute or an imported name, leaving out
    a module-level function's reads of its own name."""
    names: set = set()

    def walk(node, own=None):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else child.name if isinstance(child, ast.alias) else None)
            if name is not None and name != own:
                names.add(name)
            walk(child, own)

    for node in tree.body:
        walk(node, node.name if isinstance(node, ast.FunctionDef) else None)
    return names


def _private_functions(tree: ast.Module) -> list:
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")]


def _test_helpers(tree: ast.Module) -> list:
    return [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("test_")]


SRC = sorted((ROOT / "src" / "paravoa").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def test_no_dead_imports_or_private_functions():
    # leftovers of a deleted route: an import no one reads, in src or in
    # the tests, a private helper in src and a test helper no one calls
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    refs = set().union(*map(_references, trees.values()))
    tests = {f"tests/{path.stem}": ast.parse(path.read_text()) for path in TESTS}
    test_refs = set().union(*map(_references, tests.values()))
    assert {m: _unused_imports(t) for m, t in {**trees, **tests}.items()
            if _unused_imports(t)} == {}
    assert [(m, f) for m, t in trees.items() for f in _private_functions(t)
            if f not in refs] == []
    assert [(m, f) for m, t in tests.items() for f in _test_helpers(t)
            if f not in test_refs] == []


def test_the_dead_code_check_sees_what_it_forbids():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .lattice import _cramer, side\n"
        "def _used(x):\n"
        "    return side(x) + math.pi\n"
        "def _rebase(n):\n"
        "    return _rebase(n - 1) + _used(n)\n")
    assert _unused_imports(tree) == ["os", "_cramer"]
    assert [f for f in _private_functions(tree)
            if f not in _references(tree)] == ["_rebase"]
    tests = ast.parse(
        "def oracle(n):\n"
        "    return oracle(n - 1)\n"
        "def make(x):\n"
        "    return x\n"
        "def test_make():\n"
        "    assert make(1)\n")
    assert [f for f in _test_helpers(tests) if f not in _references(tests)] == ["oracle"]


def _label_enumerations(tree: ast.AST, where: str = "") -> list:
    """(line, where) of each call of _labels_up_to outside Selector.labels,
    where names the enclosing classes and functions."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{node.name}" if where else node.name
        elif (isinstance(node, ast.Call) and where != "Selector.labels"
              and "_labels_up_to" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))):
            found.append((node.lineno, where))
        found += _label_enumerations(node, inner)
    return found


def test_only_the_selector_enumerates_labels():
    # which labels an algebra has is decided in one place, Selector.labels
    assert [(path.stem, hit) for path in SRC
            for hit in _label_enumerations(ast.parse(path.read_text()))] == []


def test_the_label_check_sees_what_it_forbids():
    bad = ast.parse(
        "class Selector:\n"
        "    def labels(self, cap):\n"
        "        return _labels_up_to(self.L, 2 * cap)\n"
        "    def keep(self, v):\n"
        "        return v in _labels_up_to(self.L, 4)\n"
        "def character(L, cap):\n"
        "    return [v for v in fock._labels_up_to(L, cap)]\n")
    assert _label_enumerations(bad) == [(5, "Selector.keep"), (7, "character")]


def _output_uses(tree: ast.AST, where: str = "") -> list:
    """(line, where) of each use of print, stdout or stderr, where names the
    enclosing classes and functions."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{node.name}" if where else node.name
        elif (getattr(node, "attr", None) in ("stdout", "stderr")
              or getattr(node, "id", None) in ("print", "stdout", "stderr")):
            found.append((node.lineno, where))
        found += _output_uses(node, inner)
    return found


def test_only_main_writes_output():
    # handlers return their report and summary; cli.main alone writes them
    assert [(path.stem, hit) for path in SRC
            for hit in _output_uses(ast.parse(path.read_text()))
            if (path.stem, hit[1]) != ("cli", "main")] == []


def test_the_output_check_sees_what_it_forbids():
    bad = ast.parse(
        "import sys\n"
        "from sys import stderr\n"
        "def emit(obj):\n"
        "    sys.stdout.write(obj)\n"
        "class Report:\n"
        "    def show(self):\n"
        "        print(self, file=stderr)\n"
        "def main():\n"
        "    sys.stderr.write('error')\n")
    assert _output_uses(bad) == [(4, "emit"), (7, "Report.show"), (7, "Report.show"),
                                 (9, "main")]


TERMS_MUTATORS = ("pop", "update", "setdefault", "clear", "popitem")


def _terms_writes(tree: ast.AST) -> list:
    """(line, what) of each in-place write to a state's terms: an assignment
    to, or del of, X.terms[...]; a pop, update, setdefault, clear or popitem
    on X.terms; and an _add_into or _reduce call whose first argument is an
    attribute."""
    is_terms = lambda node: isinstance(node, ast.Attribute) and node.attr == "terms"
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and is_terms(node.value)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append((node.lineno, "terms[...]"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in TERMS_MUTATORS and is_terms(node.func.value):
                found.append((node.lineno, f"terms.{node.func.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("_add_into", "_reduce") and node.args
              and isinstance(node.args[0], ast.Attribute)):
            found.append((node.lineno, node.func.id))
    return found


def test_no_state_is_written_in_place():
    # the mode engine hands its cached states out as they are, so a state's
    # terms are never written once it is made
    assert [(path.stem, hit) for path in SRC
            for hit in _terms_writes(ast.parse(path.read_text()))] == []


def test_the_terms_check_sees_what_it_forbids():
    bad = ast.parse(
        "def f(st, w, c, sp):\n"
        "    st.terms[w] = c\n"
        "    st.terms[w] += c\n"
        "    del sp.cache.terms[w]\n"
        "    st.terms.pop(w)\n"
        "    st.terms.update({w: c})\n"
        "    st.terms.setdefault(w, c)\n"
        "    st.terms.clear()\n"
        "    st.terms.popitem()\n"
        "    _add_into(st.terms, [(w, c)])\n"
        "    _reduce(sp.row, st, 1, c)\n"
        "    out = dict(st.terms)\n"
        "    out[w] = st.terms[w]\n"
        "    _add_into(out, st.terms.items(), c)\n"
        "    return st.terms.get(w)\n")
    assert sorted(_terms_writes(bad)) == [
        (2, "terms[...]"), (3, "terms[...]"), (4, "terms[...]"), (5, "terms.pop"),
        (6, "terms.update"), (7, "terms.setdefault"), (8, "terms.clear"),
        (9, "terms.popitem"), (10, "_add_into"), (11, "_reduce")]


SHARED = ("__init__", "__iter__", "__bool__", "__add__", "__sub__", "scale", "__eq__")


def test_tensor_state_is_fock_states_implementation():
    # one sparse-state implementation: TensorState holds FockState's own
    # functions, assigned and not inherited, so every method perfbench
    # traces is in its own __dict__ and a TensorState is no FockState
    from paravoa.fock import FockState
    from paravoa.vertexops import TensorState

    fock, tensor = vars(FockState), vars(TensorState)
    assert [k for k in SHARED if tensor[k] is not fock[k]] == []
    own = {k for k, v in tensor.items()
           if callable(v) or isinstance(v, classmethod)} - set(SHARED)
    assert own == {"of", "__repr__"}
    assert not isinstance(TensorState(), FockState)
    assert TensorState() != FockState() and FockState() == FockState()


def _state_decisions(tree: ast.AST, where: str = "") -> list:
    """(line, where, what) of each place that decides a sparse state's order
    or drops a cancelled entry: a definition of _merge or _add_into ("def",
    where is its own name), a `del d[k]` ("del") and a call of sorted or
    .sort ("sort"); where names the enclosing classes and functions."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{node.name}" if where else node.name
            if node.name in ("_merge", "_add_into"):
                found.append((node.lineno, inner, "def"))
        elif isinstance(node, ast.Delete) and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            found.append((node.lineno, where, "del"))
        elif isinstance(node, ast.Call) and {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
        } & {"sorted", "sort"}:
            found.append((node.lineno, where, "sort"))
        found += _state_decisions(node, inner)
    return found


def test_fock_alone_orders_words_and_updates_rows():
    # the canonical mode order (_merge, and make_word's sort) and the
    # order-keeping, cancel-dropping sparse update (_add_into) each have
    # one body, in fock; the mode engine sorts nothing itself
    found = [(path.stem, where, what) for path in SRC
             for _, where, what in _state_decisions(ast.parse(path.read_text()))]
    assert sorted(hit for hit in found if hit[2] != "sort") == [
        ("fock", "_add_into", "def"), ("fock", "_add_into", "del"),
        ("fock", "_merge", "def")]
    assert [hit for hit in found if hit[0] == "vertexops"] == []


def test_the_state_check_sees_what_it_forbids():
    bad = ast.parse(
        "class TensorState:\n"
        "    def __add__(self, other):\n"
        "        t = dict(self.terms)\n"
        "        del t[next(iter(t))]\n"
        "        return sorted(t, key=lambda w: -w[0])\n"
        "def heis_mode(modes):\n"
        "    def _merge(x, y):\n"
        "        return x + y\n"
        "    modes.sort()\n"
        "    del modes\n")
    assert _state_decisions(bad) == [
        (4, "TensorState.__add__", "del"), (5, "TensorState.__add__", "sort"),
        (7, "heis_mode._merge", "def"), (9, "heis_mode", "sort")]



def _exactnum_imports(tree: ast.AST) -> list:
    """(line, name) of each name imported from exactnum and each import of
    exactnum itself, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exactnum"):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[-1] == "exactnum"]
    return found


def test_only_fock_knows_the_coefficient_type():
    # fock builds (_coefficient) and reads (_rational) every coefficient the
    # mode engine, the elimination and the certificates make, so in src a
    # change of coefficient type touches fock and a coefficient's JSON alone
    found = [(name, hit) for name in ("vertexops", "linalg", "zhu")
             for hit in _exactnum_imports(ast.parse(
                 (ROOT / "src" / "paravoa" / f"{name}.py").read_text()))]
    assert found == []


def test_the_coefficient_check_sees_what_it_forbids():
    bad = ast.parse(
        "from .exactnum import ONE, _make\n"
        "from . import exactnum, fock\n"
        "import paravoa.exactnum as ex\n"
        "def f():\n"
        "    from paravoa.exactnum import QuadScalar\n"
        "    return QuadScalar\n")
    assert sorted(_exactnum_imports(bad)) == [
        (1, "ONE"), (1, "_make"), (2, "exactnum"), (3, "paravoa.exactnum"),
        (5, "QuadScalar")]


def _fraction_degree_paths(tree: ast.AST) -> list:
    """(line, name) of each attribute, name, definition or import called
    denominator, _den or _weight_of: the marks of a degree, pairing or
    weight that might not be an integer."""
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else getattr(node, "name", None))
        if name in ("denominator", "_den", "_weight_of"):
            found.append((node.lineno, name))
    return found


def test_degrees_are_integers_by_construction():
    # FockSpace takes integer Gram data and even label norms, so no degree
    # or weight needs a denominator test; vertexops still reads those of
    # its vacuum series, and linalg those of the rationals fock reads out
    found = [(path.stem, name) for path in SRC
             for _, name in _fraction_degree_paths(ast.parse(path.read_text()))]
    assert [hit for hit in found
            if hit[0] in ("fock", "zhu") or hit[1] != "denominator"] == []


def test_the_degree_check_sees_what_it_forbids():
    bad = ast.parse(
        "from .zhu import _weight_of\n"
        "class FockSpace:\n"
        "    def degree(self, w):\n"
        "        d = w.mode_degree() + self._den\n"
        "        if d.denominator != 1:\n"
        "            raise ValueError\n")
    assert sorted(_fraction_degree_paths(bad)) == [
        (1, "_weight_of"), (4, "_den"), (5, "denominator")]


# the integer hot paths of the characters and fusion, and what each may not
# hold: a Fraction name, or a call of .norm
INTEGER_PATHS = {"_dress": "Fraction", "fusion": "Fraction", "_labels_up_to": ".norm("}


def _integer_path_breaks(tree: ast.AST) -> list:
    """(line, function, what) of each Fraction name or attribute inside
    _dress or fusion, and each .norm call inside _labels_up_to."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_PATHS):
            continue
        for node in ast.walk(fn):
            if INTEGER_PATHS[fn.name] == "Fraction":
                hit = "Fraction" in (getattr(node, "id", None), getattr(node, "attr", None))
            else:
                hit = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "norm")
            if hit:
                found.append((node.lineno, fn.name, INTEGER_PATHS[fn.name]))
    return found


def test_characters_and_fusion_stay_in_integers():
    # algebra weights are ints on an even lattice and fusion decides
    # t1 + t2 = t3 by cross-multiplication: Fraction enters in QSeries.build
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC}
    defined = sorted(fn.name for stem in ("fock", "modrep") for fn in ast.walk(trees[stem])
                     if isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_PATHS)
    assert defined == sorted(INTEGER_PATHS)
    assert [(stem, hit) for stem, tree in trees.items()
            for hit in _integer_path_breaks(tree)] == []


def test_the_integer_check_sees_what_it_forbids():
    bad = ast.parse(
        "def _dress(bottoms, cap):\n"
        "    return {Fraction(e): c for e, c in bottoms.items()}\n"
        "def fusion(m1, m2, m3):\n"
        "    return fractions.Fraction(m1.t) + m2.t == m3.t\n"
        "def _labels_up_to(L, top):\n"
        "    return [v for v in L.box(3) if L.norm(v) <= top]\n"
        "def character(obj, cap):\n"
        "    return Fraction(cap), obj.L.norm((0, 0))\n")
    assert _integer_path_breaks(bad) == [
        (2, "_dress", "Fraction"), (4, "fusion", "Fraction"), (6, "_labels_up_to", ".norm(")]

def load_perfbench(name):
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(path)


def test_tracer_installs_and_restores_every_attribute():
    tracing = load_perfbench("tracing")
    mods = {layer: importlib.import_module(f"paravoa.{layer}")
            for layer in tracing.LAYERS}
    owners = list(mods.values()) + [getattr(mods[layer], cname)
                                    for layer, classes in tracing.METHODS.items()
                                    for cname in classes]
    before = [dict(vars(o)) for o in owners]
    tr = tracing.Tracer()
    try:
        tr.install()  # a KeyError here means a method it names is gone
        swapped = sum(vars(o)[k] is not v
                      for o, old in zip(owners, before) for k, v in old.items())
        assert swapped > 0
    finally:
        tr.uninstall()
    for o, old in zip(owners, before):
        now = vars(o)
        assert [k for k, v in old.items() if now.get(k) is not v] == [], o


@pytest.mark.parametrize("workload", ("geometry", "modes", "quotient", "cli"))
def test_benchmark_round_passes_its_checks(workload, tmp_path, monkeypatch):
    # one set-up and every operation once, checked as the benchmark's worker
    # checks its first round: an error is allowed only on an operation the
    # benchmark keeps as failing
    inputs, workloads = load_perfbench("inputs"), load_perfbench("workloads")
    checks = load_perfbench("checks")
    import paravoa
    import paravoa.cli  # noqa: F401  (the workloads read paravoa.cli)

    monkeypatch.chdir(ROOT)  # the cli workload runs `python -m` on ROOT/src
    cls = workloads.WORKLOADS[workload]
    inp = inputs.generate(workload, 1)
    wl = cls(inp, paravoa, str(tmp_path)) if workload == "cli" else cls(inp, paravoa)
    problems = []
    try:
        for op in wl.setup().ops:
            try:
                res = op.run()
            except Exception as exc:
                if not op.kept_failing:
                    problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            try:
                op.check(res)
            except checks.CheckError as exc:
                problems.append(f"{op.label}: check failed: {exc}")
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    assert problems == []
