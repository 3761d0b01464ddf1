"""Every write of a node's energy moves the energy counter, and every write
of a node's position or velocity is a mobility tick that the neighbor
lists hear of.

The router's memo and the beacon cycles' quiet key hold while
``NetworkState.energy_version`` holds, so a write to an ``energy``
attribute that does not move the counter would leave them stale without
a sound.  This walks the source of ``antmanet`` and allows an energy write
only in ``NodeAttributes.__post_init__``, which writes the starting
value, and in a function that itself increments ``energy_version``.

A level's neighbor list is refreshed from the travel that
``NetworkState.moved`` reports, so a position written anywhere else would
leave the lists stale just as silently.  Positions and velocities are
written only in ``NodeAttributes.__post_init__`` and in
``RandomWaypoint.step``, whose one caller reports the tick through
``moved``.
"""

import ast
import functools
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


def _calls(node, attr):
    """Whether `node` calls a method named `attr`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


@functools.cache
def _trees():
    """[(module name, syntax tree)] of the package's modules."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SOURCE.glob("*.py"))]


def package_sites(test):
    """{function: [lines of the nodes that `test` accepts]} over the
    package, each function by its module and qualified name.  A node
    belongs to its innermost function."""
    sites = {}
    for module, tree in _trees():

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{scope}.{child.name}"
                if test(child):
                    sites.setdefault(name, []).append(child.lineno)
                visit(child, name)

        visit(tree, module)
    return sites


def energy_writers():
    """({function: [lines of its energy writes]}, {functions that move
    energy_version}) over the package."""
    return (package_sites(lambda node: _writes(node, "energy")),
            set(package_sites(lambda node: _writes(node, "energy_version"))))


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


def test_every_move_is_reported():
    for attr in ("position", "velocity"):
        writes = package_sites(lambda node: _writes(node, attr))
        assert set(writes) == {"model.NodeAttributes.__post_init__",
                               "engine.RandomWaypoint.step"}, attr
    # The step's one caller reports the tick's bound to the model.
    assert set(package_sites(lambda node: _calls(node, "step"))) == {
        "engine.Simulator._handle_mobility"}
    assert "engine.Simulator._handle_mobility" in package_sites(
        lambda node: _calls(node, "moved"))
