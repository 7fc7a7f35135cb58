"""Every name a library module imports is used there or re-exported,
every option a library function offers is set by some library or
benchmark caller, every public name of a library module is read by the
library, the benchmark or the acceptance criteria (or is exempt, with its
reason, in UNREAD_PUBLIC), and the frame threshold and the CLI defaults
and option types are each decided in one place."""

import ast
from pathlib import Path

import pytest

import ckfield

MODULES = sorted(p for p in Path(ckfield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(_imported(tree)) - used - _exported(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def _options(tree):
    """(function, parameter, positional parameters) of every defaulted
    parameter; keyword-only ones carry no positional list."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            pos = [a.arg for a in args.posonlyargs + args.args]
            for name in pos[len(pos) - len(args.defaults):]:
                yield node.name, name, pos
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield node.name, a.arg, None


def _calls(trees, classes):
    """Callee name -> [(call, bound)]; a class call is a call of its
    __init__, bound like a method call."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name, bound = f.id, False
            elif isinstance(f, ast.Attribute):
                name, bound = f.attr, True
            else:
                continue
            if name in classes:
                name = "__init__"
            calls.setdefault(name, []).append((node, bound))
    return calls


def _sets(call, bound, name, pos):
    if any(k.arg in (None, name) for k in call.keywords):   # name= or **
        return True
    if pos is None:
        return False
    i = pos.index(name) - (bound and pos[0] in ("self", "cls"))
    return (len(call.args) > i
            or any(isinstance(a, ast.Starred) for a in call.args))


# the entry point's argv is set by the console script, not by a call
ENTRY_POINT = ("cli", "main", "argv")

# defaulted parameters in the library: a ceiling, so an option added later
# must come with one removed
MAX_OPTIONS = 24


def test_every_option_is_set():
    # only library and benchmark calls count: an option that only a test
    # sets is one no user of the library needs
    files = [f for d in ("src", "perfbench")
             for f in sorted((ROOT / d).rglob("*.py"))]
    trees = [ast.parse(f.read_text()) for f in files]
    lib = {path: ast.parse(path.read_text()) for path in MODULES}
    classes = {n.name for t in lib.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    calls = _calls(trees, classes)
    options = [(path.stem, fn, name, pos) for path, tree in lib.items()
               for fn, name, pos in _options(tree)]
    unset = [f"{mod}.{fn}({name})" for mod, fn, name, pos in options
             if (mod, fn, name) != ENTRY_POINT
             and not any(_sets(c, b, name, pos) for c, b in calls.get(fn, ()))]
    assert not unset, f"options no library or benchmark call sets: {unset}"
    assert len(options) <= MAX_OPTIONS, f"{len(options)} defaulted parameters"


def _readers(tree, name):
    """The function enclosing each read of `name` (None at module level)."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == name
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute)
                        and child.attr == name)):
                yield fn
            yield from visit(child, fn)
    return visit(tree, None)


def test_one_frame_rule():
    # every unbatched consumer reads the scaled ckf.frame_threshold(p);
    # only identities, whose CkfParams may be batched, reads EPS_FRAME
    reads = {(path.stem, fn) for path in MODULES
             for fn in _readers(ast.parse(path.read_text()), "EPS_FRAME")}
    assert ("ckf", "frame_threshold") in reads
    stray = sorted(f"{mod}.{fn}" for mod, fn in reads
                   if mod != "identities"
                   and (mod, fn) != ("ckf", "frame_threshold"))
    assert not stray, f"EPS_FRAME read outside frame_threshold: {stray}"


def test_one_home_for_cli_defaults():
    # a CLI default lives in cli._SUBCOMMANDS, which _resolve_config applies:
    # no cfg.get(key, default) may set a second one
    tree = ast.parse((Path(ckfield.__file__).parent / "cli.py").read_text())
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "get"
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "cfg"
             and (len(node.args) > 1 or node.keywords)]
    assert not stray, f"cfg.get with a default in cli.py, lines {stray}"


def test_cli_handlers_read_typed_options():
    # each option's parser in cli._SUBCOMMANDS returns its typed value once,
    # in _resolve_config: no int(cfg[...]) or float(cfg[...]) coerces it again
    tree = ast.parse((Path(ckfield.__file__).parent / "cli.py").read_text())
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("int", "float")
             and any(isinstance(a, ast.Subscript)
                     and isinstance(a.value, ast.Name) and a.value.id == "cfg"
                     for a in node.args)]
    assert not stray, f"int/float of a cfg value in cli.py, lines {stray}"


# public names the system keeps though nothing in it reads them, each with
# its reason; a name that gains a reader or goes must leave the tuple
UNREAD_PUBLIC = (
    ("flows", "cr_orbit_closed_form",
     "the exact orbit nodes of the ROADMAP orbit item are built from it"),
    ("spinops", "apply_Q",
     "pointwise form of _Q_core; its test is the core's only pointwise check"),
    ("spinops", "apply_S",
     "pointwise form of _S_core; its test is the core's only pointwise check"),
    ("holonomy", "frame_spinor",
     "pointwise form of _e0_from_normal and _P_pair, checked only through it"),
    ("potentials", "parallelism_residual",
     "pointwise form of _parallel_residual, checked only through it"),
)

# what the system is: the library, the benchmark and the acceptance criteria
SYSTEM = (MODULES + sorted((ROOT / "perfbench").rglob("*.py"))
          + [ROOT / "tests" / "test_acceptance.py"])


def _public(tree):
    """Top-level functions, classes and constants not named with _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


def _reads(tree):
    """Names a module reads, each outside the top-level statement that
    defines it (a recursive call is no reader)."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_public_names_are_read():
    # __init__'s re-export reads nothing; a test reading a name makes it no
    # part of the system, so the name belongs in the tests as their oracle
    read = set().union(*(_reads(ast.parse(f.read_text())) for f in SYSTEM))
    tests = {f: _reads(ast.parse(f.read_text()))
             for f in sorted((ROOT / "tests").glob("test_*.py"))}
    public = {(path.stem, name) for path in MODULES
              for name in _public(ast.parse(path.read_text()))}
    exempt = {(mod, name) for mod, name, _ in UNREAD_PUBLIC}
    unread = [f"{mod}.{name} (read only by "
              f"{[f.name for f, r in tests.items() if name in r]})"
              for mod, name in sorted(public - exempt) if name not in read]
    assert not unread, f"public names only tests read: {unread}"
    stale = sorted(f"{mod}.{name}" for mod, name in exempt
                   if (mod, name) not in public or name in read)
    assert not stale, f"exempt names that are read or gone: {stale}"
