"""Every public function of the package is reached from the CLI, or is kept on
purpose with a stated reason.

Read with the standard library's ``ast`` only.  A function in a module's
``__all__`` counts as reached when its name occurs, as a name or as an
attribute, in code the CLI reaches: the whole of ``cli`` and, in turn, the
body of every function or class of the package that reached code names.
Names are matched without their module, so two definitions that share a
name are reached together: the check can count a function as reached that
is not, but never misses a use.
"""

import ast
from pathlib import Path

import selfhomodyne

SRC = Path(selfhomodyne.__file__).parent

# public functions no command reaches, each with the reason it is kept
KEEP = {
    "calibration_deviation": "the paper's delta_chi(NA), checked by acceptance criteria 1 and 10",
    "dipole_density": "the integrand that scipy's dblquad integrates to check the cap weights",
    "interference_intensity": "the intensity whose mid-fringe slope is particle_sensitivity "
                              "(the Taylor test)",
    "synthesize_detector": "the stand-alone entry to the one detector model simulate uses",
    "phonon_occupation": "the paper's quoted phonon occupation of the mode at 1 mK",
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(node) -> set:
    """Every name and attribute used under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _reached(trees: dict) -> set:
    """The names reached from the CLI, by following each name into the
    functions and classes of that name."""
    bodies = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_names(node))
    todo, seen = list(_names(trees["cli"])), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(bodies.get(name, ()))
    return seen


def _public_functions(trees: dict) -> dict:
    """Module-qualified name -> bare name of every function in an ``__all__``."""
    out = {}
    for module, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                out[f"{module}.{node.name}"] = node.name
    return out


def test_every_public_function_is_reached_or_kept():
    trees = _modules()
    reached = _reached(trees)
    unreached = sorted(
        qual for qual, name in _public_functions(trees).items() if name not in reached and name not in KEEP
    )
    assert unreached == [], "no command reaches these public functions; delete them or keep them with a reason"


def test_keep_list_names_only_unreached_public_functions():
    trees = _modules()
    public = set(_public_functions(trees).values())
    reached = _reached(trees)
    assert all(reason for reason in KEEP.values())
    assert sorted(set(KEEP) - public) == []
    assert sorted(set(KEEP) & reached) == [], "a command reaches these: drop them from KEEP"
