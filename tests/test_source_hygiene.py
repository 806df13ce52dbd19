"""Static checks on the package source: no unused import, no unreferenced
private helper, no public name only the tests reach, no module constant
spelled twice, one random generator constructor, one int rule, one access
check, one choice error, one type error, one fault wording, one outcome
vocabulary.  A helper whose last caller goes must go with it, and so must
a public function, method or class that nothing in the package, the demos
or the benchmark names; a constant has one module that defines it; a
VM's randomness comes from `MiniVm.rng`; "an int, not a bool" is spelled
only in `check_int`; an access's operands are checked only by
`check_access`, at an address its caller names; the error for a value
outside a fixed set is worded only in `not_one_of`, and for a value not
of a type only in `not_a`; a fault is raised with its check and
operands, never its kind, and only `capability.FAULTS` pairs a check
with its kind and wording; an outcome is an `OutcomeKind`, never a
string tag; only the memory and the allocator's sweep know the tag side
table's key format; a scenario runs on its one built-in input, so every
runner takes `(vm, mode, cfg)` and `run_scenario` `(sid, mode, config)`."""
import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "capsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}


def _loaded_names(tree):
    """Every name read in `tree`, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Private module-level functions, classes and constants, and private
    methods, except functions a decorator registers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _is_private(node.name) and not node.decorator_list:
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, ast.FunctionDef) and _is_private(item.name)
                            and not item.decorator_list)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        yield name.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path.name]
    unused = sorted(set(_imported_names(tree)) - _loaded_names(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    referenced = set().union(*map(_loaded_names, TREES.values()))
    unreferenced = sorted(set(_private_definitions(TREES[path.name])) - referenced)
    assert not unreferenced, f"{path.name} defines but never uses {unreferenced}"


def _module_bindings(tree):
    """(name, dumped expression) of each module-level assignment to a name."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, ast.dump(value)


def test_no_two_modules_bind_a_name_to_the_same_expression():
    modules = defaultdict(set)
    for module, tree in TREES.items():
        for binding in _module_bindings(tree):
            modules[binding].add(module)
    twice = sorted(f"{name} in {sorted(where)}" for (name, _), where in modules.items()
                   if len(where) > 1)
    assert not twice, f"define each constant once and import it: {twice}"


def _random_generator_calls(tree, scope=()):
    """The enclosing qualified name of each `random.Random(...)` or
    `Random(...)` call in `tree`."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Random":
                yield ".".join(scope)
        yield from _random_generator_calls(node, inner)


def test_each_vm_has_one_source_of_randomness():
    calls = [f"{module}:{where}" for module, tree in sorted(TREES.items())
             for where in _random_generator_calls(tree)]
    assert calls == ["vm.py:MiniVm.rng"]


def _bool_tests(tree, scope=()):
    """The enclosing qualified name of each `isinstance(..., bool)` call in
    `tree`, `bool` alone or in a tuple of types."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(getattr(name, "id", None) == "bool" for name in names):
                yield ".".join(scope)
        yield from _bool_tests(node, inner)


def test_the_int_rule_is_spelled_once():
    tests = [f"{module}:{where}" for module, tree in sorted(TREES.items())
             for where in _bool_tests(tree)]
    assert tests == ["capability.py:check_int"]


def _calls(node, name):
    """Whether the tree under `node` calls the bare name `name`."""
    return any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name
               for sub in ast.walk(node))


ACCESSORS = ("store_cap", "load_cap", "store_bytes", "load_bytes")


def test_check_access_is_the_one_check_of_an_access():
    # every access names its address, and check_access tests it and the
    # size with the int rule, so no accessor calls check_int itself
    check_access = next(node for node in TREES["capability.py"].body
                        if isinstance(node, ast.FunctionDef) and node.name == "check_access")
    assert [arg.arg for arg in check_access.args.args] == ["cap", "kind", "size", "address"]
    assert not check_access.args.defaults
    memory = next(node for node in TREES["memory.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "TaggedMemory")
    accessors = {item.name: item for item in memory.body
                 if isinstance(item, ast.FunctionDef) and item.name in ACCESSORS}
    assert sorted(accessors) == sorted(ACCESSORS)
    assert [name for name, item in accessors.items() if not _calls(item, "check_access")] == []
    assert [name for name, item in accessors.items() if _calls(item, "check_int")] == []


# the choice error's wording and the old wordings it replaced: only `not_one_of` holds one
CHOICE_ERROR_WORDINGS = ("must be one of", "must be a SealMode", "bad ", "unknown scenario",
                         "unknown operation", "unknown stack entry")
# the type error's wording, with `{}` for its type names, and the old wordings it replaced
TYPE_ERROR_WORDINGS = ("must be a {}", "must be a Perm", "must be a tuple", "must be a list",
                       "must be a ScenarioConfig", "needs a Capability", "needs a TaggedMemory",
                       "stores a ", "stores bytes", "reads bytes", "scans through", "tests a ",
                       "marks a ")


def _error_wordings(tree, wordings, scope=()):
    """The enclosing qualified name of each string literal in `tree`,
    docstrings included, that holds one of `wordings`.  An f-string is read
    whole, with `{}` for each value it formats."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        if isinstance(node, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                           for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            text = ""
        # an f-string's own parts were read with it
        if not isinstance(tree, ast.JoinedStr) and any(wording in text for wording in wordings):
            yield ".".join(scope)
        yield from _error_wordings(node, wordings, inner)


def _worded_by(wordings):
    """`module:qualified name` of each literal in the package that holds one of `wordings`."""
    return [f"{module}:{where}" for module, tree in sorted(TREES.items())
            for where in _error_wordings(tree, wordings)]


def test_the_choice_error_is_worded_once():
    assert _worded_by(CHOICE_ERROR_WORDINGS) == ["capability.py:not_one_of"]


def test_the_type_error_is_worded_once():
    assert _worded_by(TYPE_ERROR_WORDINGS) == ["capability.py:not_a"]


def _worded_faults(tree):
    """The line of each `CapFault(...)` call in `tree` that takes an
    f-string anywhere or a string literal as its detail."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapFault":
            values = node.args + [keyword.value for keyword in node.keywords]
            details = node.args[1:] + [k.value for k in node.keywords if k.arg == "detail"]
            if any(isinstance(value, ast.JoinedStr) for value in values) or any(
                    isinstance(value, ast.Constant) and isinstance(value.value, str)
                    for value in details):
                yield node.lineno


def test_fault_text_is_worded_once():
    worded = [f"{module}:{line}" for module, tree in sorted(TREES.items())
              for line in _worded_faults(tree)]
    assert not worded, f"raise CapFault with its check and operands, not text: {worded}"


def _names_a_fault_kind(node):
    """Whether the expression `node` reads `FaultKind` or one of its members."""
    return any(isinstance(sub, ast.Name) and sub.id == "FaultKind" for sub in ast.walk(node))


def test_no_fault_is_raised_with_its_kind():
    named = [f"{module}:{node.lineno}" for module, tree in sorted(TREES.items())
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapFault"
             and any(_names_a_fault_kind(arg) for arg in
                     node.args + [keyword.value for keyword in node.keywords])]
    assert not named, f"raise CapFault with its check; FAULTS gives the kind: {named}"


def _check_kind_pairs(tree, checks):
    """The line of each dict entry or tuple in `tree` that puts one of the
    `checks` beside an expression naming a `FaultKind`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            pairs = [(key, [value]) for key, value in zip(node.keys, node.values)]
        elif isinstance(node, ast.Tuple):
            pairs = [(item, node.elts) for item in node.elts]
        else:
            continue
        for key, beside in pairs:
            if (isinstance(key, ast.Constant) and key.value in checks
                    and any(_names_a_fault_kind(other) for other in beside if other is not key)):
                yield key.lineno


def test_faults_is_the_one_place_a_check_meets_its_kind():
    table = next(node for node in TREES["capability.py"].body if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["FAULTS"])
    checks = {key.value for key in table.value.keys}
    inside = range(table.lineno, table.end_lineno + 1)
    pairs = [(module, line) for module, tree in sorted(TREES.items())
             for line in _check_kind_pairs(tree, checks)]
    assert len([line for module, line in pairs
                if module == "capability.py" and line in inside]) == len(checks)
    elsewhere = [f"{module}:{line}" for module, line in pairs
                 if not (module == "capability.py" and line in inside)]
    assert not elsewhere, f"pair a check with its kind only in FAULTS: {elsewhere}"


STRING_OUTCOME_TAGS = {"ok", "fault", "corrupt"}


def _string_tagged_tuples(tree):
    """The line of each tuple literal in `tree` whose first item is one of
    the string outcome tags."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and isinstance(node.elts[0].value, str)
                and node.elts[0].value in STRING_OUTCOME_TAGS):
            yield node.lineno


def test_outcomes_are_spelled_with_outcome_kind():
    tagged = [f"{module}:{line}" for module, tree in sorted(TREES.items())
              for line in _string_tagged_tuples(tree)]
    assert not tagged, f"use (OutcomeKind, FaultKind | None), not a string tag: {tagged}"


def _names_granule_caps(tree):
    """Whether `tree` names the tag side table, as a name, an attribute or
    a string (a `getattr` of it)."""
    return any(getattr(node, "attr", None) == "granule_caps"
               or getattr(node, "id", None) == "granule_caps"
               or (isinstance(node, ast.Constant) and node.value == "granule_caps")
               for node in ast.walk(tree))


def test_only_the_memory_and_the_allocator_name_the_tag_side_table():
    # its keys are granule base addresses; every other module goes through
    # the memory's accessors and `iter_tagged`
    naming = [module for module, tree in sorted(TREES.items()) if _names_granule_caps(tree)]
    assert naming == ["allocator.py", "memory.py"]


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function and
    class in `tree`, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _referenced_names(tree):
    """Every name `tree` reads, bare or as an attribute, and every string
    literal in it (the benchmark's tracer patches methods by name)."""
    return _loaded_names(tree) | {node.value for node in ast.walk(tree)
                                  if isinstance(node, ast.Constant)
                                  and isinstance(node.value, str)}


# public names that only the tests reach, each kept for its reason
REACHED_ONLY_BY_TESTS = {
    "MarkBitmap.test": "the per-bit reference that the tests compare `bits()` against",
}


def test_every_public_name_is_reached_outside_the_tests():
    # `__init__.py` re-exports through imports, which read no name
    users = [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    trees = [*TREES.values(), *(ast.parse(p.read_text(), filename=str(p)) for p in users)]
    referenced = set().union(*map(_referenced_names, trees))
    unreached = sorted(qualified for tree in TREES.values()
                       for qualified, name in _public_definitions(tree)
                       if name not in referenced)
    assert unreached == sorted(REACHED_ONLY_BY_TESTS), \
        "delete what only the tests reach, or say in REACHED_ONLY_BY_TESTS why it stays"


def _parameters(function):
    """The name of each parameter of the `ast.FunctionDef` `function`, in order."""
    args = function.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                *args.kwonlyargs, args.kwarg) if arg is not None]


def test_every_scenario_runs_on_its_one_built_in_input():
    # an input of one scenario's own would be a second path that only a
    # caller passing it reaches
    functions = {node.name: node for node in TREES["scenarios.py"].body
                 if isinstance(node, ast.FunctionDef)}
    runners = [name for name, function in functions.items()
               if any(isinstance(decorator, ast.Call)
                      and getattr(decorator.func, "id", None) == "scenario"
                      for decorator in function.decorator_list)]
    assert len(runners) == 12
    wanted = {**dict.fromkeys(runners, ["vm", "mode", "cfg"]),
              "run_scenario": ["sid", "mode", "config"]}
    assert {name: _parameters(functions[name]) for name in wanted} == wanted
