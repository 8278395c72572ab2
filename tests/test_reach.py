"""Everything public in the package is used by a command, or is kept on
purpose with a stated reason: each public function and each public member
(field, method or property) of a public class.  Each keyword option of a
public function that is not kept is set two ways by the commands.

Read with the standard library's ``ast`` only.  Reach starts from the whole
of ``cli`` and from the body of everything on KEEP, and follows names:

* A module-level function or class counts as reached when reached code uses
  its name, as a name or as an attribute.  Two definitions that share a name
  are reached together.
* A reached class brings in its body except its methods, properties and
  fields: their declarations, decorators and the dunder methods that Python
  calls implicitly.
* A member counts as reached only when reached code reads it as an
  attribute, ``obj.member``.  Where the class of ``obj`` is known, only that
  class's member is reached.  It is known for ``self`` in a method, a class
  name, a parameter annotated with a class, a variable whose every
  assignment is a call of a class or of a function annotated to return one,
  and a field or property annotated with a class.  Otherwise every class's
  member of that name is reached.
* A keyword option (a parameter with a default) of a public function must
  take at least two distinct values across the reached calls of the
  function.  An omitted option counts as its default, a literal by its
  value, and any other expression by its ``ast.dump``; a call that unpacks
  ``*args`` or ``**kwargs`` counts as a value of its own.

The check can count something reached that is not, but never misses a use.
"""

import ast
from pathlib import Path

import selfhomodyne

SRC = Path(selfhomodyne.__file__).parent

# public functions and members no command reaches, each with the reason it
# is kept; the options of a kept function are not checked
KEEP = {
    "calibration_deviation": "the paper's delta_chi(NA), checked by acceptance criteria 1 and 10",
    "phonon_occupation": "the paper's quoted phonon occupation of the mode at 1 mK",
    "LorentzianFit.std_errors": "the fit's standard errors, which the tests compare with "
                                "curve_fit's and use to bound the fitted floor",
    "LorentzianFit.floor": "the fitted noise floor, a parameter of the fit model that the "
                           "tests check",
    "Trajectory.x": "the simulated motion, which the README's library example and the "
                    "tests read (equipartition, the mode peaks, the loop delay)",
    "Trajectory.y": "the simulated motion, read as x is",
    "Trajectory.q": "the detection-axis motion of the README's library example and the tests",
    "Trajectory.volts_fwd": "the forward detector channel, whose 38 dB floor the tests check",
}


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _is_member(stmt) -> bool:
    """A method, property or field of a class body; dunder methods are not
    members, as Python calls them implicitly."""
    if isinstance(stmt, ast.FunctionDef):
        return not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    return isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)


class _Package:
    """The definitions of the package, and reach through them."""

    def __init__(self, trees: dict):
        self.trees = trees
        self.functions, self.classes, self.members = {}, {}, {}
        for tree in trees.values():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(node.name, []).append(node)
                elif isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                    for stmt in filter(_is_member, node.body):
                        name = stmt.name if isinstance(stmt, ast.FunctionDef) else stmt.target.id
                        self.members[(node.name, name)] = stmt
        # the class a function returns, a field holds or a method returns
        self.returns = {
            name: self._class_of(nodes[0].returns)
            for name, nodes in self.functions.items()
            if len(nodes) == 1
        }
        self.member_types = {
            key: self._class_of(stmt.returns if isinstance(stmt, ast.FunctionDef) else stmt.annotation)
            for key, stmt in self.members.items()
        }

    def _class_of(self, annotation):
        """The package class an annotation names, if any: ``C``, ``"C"`` or
        ``module.C``."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        name = getattr(annotation, "id", getattr(annotation, "attr", None))
        return name if name in self.classes else None

    def _env(self, func, owner):
        """Variable -> class (None when unknown) inside ``func``, a method of
        class ``owner`` or a function (``owner`` None).  A variable bound
        more than once has a class only when every binding gives it."""
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        env = {a.arg: owner if i == 0 and owner else self._class_of(a.annotation) for i, a in enumerate(params)}
        bound = {name: [cls] for name, cls in env.items()}
        targets = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                targets.add(id(node.targets[0]))
                bound.setdefault(node.targets[0].id, []).append(self._type(node.value, env))
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and id(node) not in targets:
                bound.setdefault(node.id, []).append(None)
            elif isinstance(node, ast.arg) and all(node is not a for a in params):
                bound.setdefault(node.arg, []).append(None)  # a nested function's parameter
        return {name: classes[0] if len(set(classes)) == 1 else None for name, classes in bound.items()}

    def _type(self, expr, env):
        """The package class of the value of ``expr``, or None."""
        if isinstance(expr, ast.Name):
            return env[expr.id] if expr.id in env else self._class_of(expr)
        if isinstance(expr, ast.Attribute):
            owner = self._type(expr.value, env)
            return self.member_types.get((owner, expr.attr)) if owner else None
        if isinstance(expr, ast.Call):
            func = expr.func
            owner = self._type(func.value, env) if isinstance(func, ast.Attribute) else None
            if owner:
                return self.member_types.get((owner, func.attr))
            name = getattr(func, "id", getattr(func, "attr", None))
            return name if name in self.classes and name not in env else self.returns.get(name)
        return None

    def reach(self, starts):
        """Walk from ``starts``, a list of (node, owning class or None).
        Returns the reached module-level names, the reached (class, member)
        pairs and the reached calls."""
        names, members, calls = set(), set(), []
        todo, walked = list(starts), set()
        while todo:
            node, owner = todo.pop()
            if id(node) in walked:
                continue
            walked.add(id(node))
            env = self._env(node, owner) if isinstance(node, ast.FunctionDef) else {}
            for n in ast.walk(node):
                if isinstance(n, ast.Call):
                    calls.append(n)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                    used = n.id
                elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
                    used = n.attr
                    cls = self._type(n.value, env)
                    hits = [(cls, used)] if cls else [k for k in self.members if k[1] == used]
                    for key in hits:
                        if key in self.members and key not in members:
                            members.add(key)
                            todo.append((self.members[key], key[0]))
                else:
                    continue
                if used in names:
                    continue
                if used in self.functions:
                    names.add(used)
                    todo.extend((f, None) for f in self.functions[used])
                elif used in self.classes:
                    names.add(used)
                    todo.extend(
                        (stmt, used) for stmt in self.classes[used].body if not _is_member(stmt)
                    )
                    todo.extend((d, None) for d in self.classes[used].decorator_list)
        return names, members, calls

    def starts(self, keep=()):
        """The whole of ``cli``, and the bodies of the ``keep`` names."""
        out = [(node, None) for node in self.trees["cli"].body]
        for name in keep:
            cls, _, member = name.rpartition(".")
            if (cls, member) in self.members:
                out.append((self.members[(cls, member)], cls))
            out.extend((f, None) for f in self.functions.get(name, ()))
        return out

    def public_functions(self) -> dict:
        """Module-qualified name -> node of every function in an ``__all__``."""
        return {
            f"{module}.{node.name}": node
            for module, tree in self.trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in _exported(tree)
        }

    def public_members(self) -> set:
        """``Class.member`` of every public member of a class in an ``__all__``."""
        exported = set().union(*map(_exported, self.trees.values()))
        return {
            f"{cls}.{member}"
            for cls, member in self.members
            if cls in exported and not member.startswith("_")
        }


def _options(func) -> dict:
    """Keyword option -> (position or None, default expression)."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {positional[first + i].arg: (first + i, d) for i, d in enumerate(args.defaults)}
    out.update({a.arg: (None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _value(expr):
    """A literal's value, or the ``ast.dump`` of any other expression."""
    try:
        return ast.literal_eval(expr)
    except ValueError:
        return ast.dump(expr)


def _argument(call, option, position, default):
    """The value ``call`` passes ``option``: its default when omitted."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return ast.dump(call)
    for k in call.keywords:
        if k.arg == option:
            return _value(k.value)
    if position is not None and position < len(call.args):
        return _value(call.args[position])
    return _value(default)


def _distinct(values) -> list:
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def _called_name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _package():
    return _Package({p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))})


def test_every_public_function_is_reached_or_kept():
    pkg = _package()
    names, _, _ = pkg.reach(pkg.starts(KEEP))
    unreached = sorted(
        qual for qual, node in pkg.public_functions().items()
        if node.name not in names and node.name not in KEEP
    )
    assert unreached == [], f"no command reaches {unreached}; delete them or keep them with a reason"


def test_every_public_member_is_reached_or_kept():
    pkg = _package()
    _, members, _ = pkg.reach(pkg.starts(KEEP))
    unreached = sorted(
        name for name in pkg.public_members()
        if tuple(name.split(".")) not in members and name not in KEEP
    )
    assert unreached == [], f"no command reads {unreached}; delete them or keep them with a reason"


def test_every_keyword_option_takes_two_values():
    pkg = _package()
    _, _, calls = pkg.reach(pkg.starts(KEEP))
    fixed = sorted(
        f"{qual}({option}=)"
        for qual, func in pkg.public_functions().items()
        if func.name not in KEEP
        for option, (position, default) in _options(func).items()
        if len(_distinct(
            _argument(c, option, position, default) for c in calls if _called_name(c) == func.name
        )) < 2
    )
    assert fixed == [], f"the commands set {fixed} one way only; make each a constant or a required parameter"


def test_keep_list_names_only_unreached_public_functions():
    """Every KEEP entry has a reason and is a public function or member that
    ``cli`` alone does not reach."""
    pkg = _package()
    names, members, _ = pkg.reach(pkg.starts())
    public = {node.name for node in pkg.public_functions().values()} | pkg.public_members()
    assert all(reason for reason in KEEP.values())
    assert sorted(set(KEEP) - public) == []
    reached = names | {f"{cls}.{member}" for cls, member in members}
    assert sorted(set(KEEP) & reached) == [], "a command reaches these: drop them from KEEP"
