"""Every write of a node's energy in the program moves the energy counter.

The router's memo and the beacon cycles' quiet key hold while
``NetworkState.energy_version`` holds, so a write to an ``energy``
attribute that does not move the counter would leave them stale without
a sound.  This walks the source of ``antmanet`` and allows an energy write
only in ``NodeAttributes.__post_init__``, which writes the starting
value, and in a function that itself increments ``energy_version``.
"""

import ast
from pathlib import Path

import antmanet

SOURCE = Path(antmanet.__file__).resolve().parent


def _targets(node):
    """The assignment targets of `node`, or () if it assigns nothing."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return (node.target,)
    return ()


def _writes(node, attr):
    """Whether `node` assigns to an attribute named `attr`, directly or
    through ``setattr(obj, "attr", value)``."""
    if any(isinstance(t, ast.Attribute) and t.attr == attr
           for t in _targets(node)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == attr)


def energy_writers():
    """({function: [lines of its energy writes]}, {functions that move
    energy_version}) over the package, each function by its module and
    qualified name.  A write belongs to its innermost function."""
    writes, counted = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{scope}.{child.name}"
                if _writes(child, "energy"):
                    writes.setdefault(name, []).append(child.lineno)
                if _writes(child, "energy_version"):
                    counted.add(name)
                visit(child, name)

        visit(tree, path.stem)
    return writes, counted


def test_every_energy_write_moves_the_counter():
    writes, counted = energy_writers()
    unchecked = {name: lines for name, lines in writes.items()
                 if name not in counted
                 and name != "model.NodeAttributes.__post_init__"}
    assert not unchecked, f"energy written without energy_version: {unchecked}"
    # The guard sees the engine's two debit sites, so it would see a third.
    assert set(writes) == {"model.NodeAttributes.__post_init__",
                           "engine.Simulator._apply_energy",
                           "engine.Simulator.run.debit"}
