"""Every exported name resolves: each module's ``__all__`` entry, and each
name the package resolves on first access into ``gibbsmix`` itself. A deletion that leaves an
export behind fails here rather than at a user's import."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbsmix
from gibbsmix.seeding import LambdaStream

_MODULES = sorted(info.name for info in pkgutil.iter_modules(gibbsmix.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"gibbsmix.{name}")
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_are_their_modules_objects():
    # the package resolves each public name on first access from the module
    # that defines it, so gibbsmix.X is that module's X
    assert len(gibbsmix.__all__) > 50 and len(set(gibbsmix.__all__)) == len(gibbsmix.__all__)
    for name in gibbsmix.__all__:
        value = getattr(gibbsmix, name)
        assert value.__module__.startswith("gibbsmix."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(gibbsmix.__all__) <= set(dir(gibbsmix))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gibbsmix import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gibbsmix.__all__)
    assert namespace["step_batch"] is importlib.import_module("gibbsmix.simplex").step_batch


def test_a_submodule_resolves_without_an_import_and_an_unknown_name_raises():
    # run in a fresh interpreter, where nothing has imported gibbsmix.kernels
    code = ("import sys, gibbsmix; assert 'gibbsmix.kernels' not in sys.modules; "
            "assert gibbsmix.kernels is sys.modules['gibbsmix.kernels']; "
            "assert gibbsmix.kernels.base_walk_kernel is gibbsmix.base_walk_kernel")
    env = dict(os.environ, PYTHONPATH=str(Path(gibbsmix.__file__).parents[1]))
    subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        gibbsmix.nosuch  # noqa: B018
    assert not hasattr(gibbsmix, "_run_gap")


def test_the_scalar_subset_step_name_stays_retired():
    # perfbench/child.py wraps a function named subset_couple_arrays where it
    # exists and reads its result as one (succeeded, lam_x, lam_y) tuple; the
    # batched step returns arrays, so it must not take that name
    assert hasattr(gibbsmix, "subset_couple_batch")
    for name in _MODULES:
        assert not hasattr(importlib.import_module(f"gibbsmix.{name}"), "subset_couple_arrays")


def test_the_scalar_move_twins_and_the_second_levelling_entry_stay_retired():
    # every pair move runs through the batch kernels, and pairops.pair_levels
    # is the one levelling entry and the one tile walk, on the one grid of
    # pairops._LEVEL_TILE; the scalar twins live in tests/pair_oracle.py.
    # Two chains that share draws are two batches, not one stacked [X; Y]
    retired = {"split_pair_float", "pair_alpha_beta_float", "barrier_levels", "_MONOTONE_CHUNK",
               "stacked_moves", "_tile_levels", "_LAMBDA_CHUNK"}
    assert sorted(
        (name, attr) for name in _MODULES for attr in retired
        if hasattr(importlib.import_module(f"gibbsmix.{name}"), attr)
    ) == []


def test_the_coupled_runner_has_one_path_and_no_trace():
    # the stepped trace of phase 2 lives in tests/test_coupling.py as the
    # replay the runner is compared with, not as a runner option
    from gibbsmix import coupling

    params = inspect.signature(coupling.run_nonmarkovian_coupling).parameters
    assert list(params) == ["chain", "T1", "T2", "replicas", "seed"]
    retired = {"CouplingTrace", "CouplingRunResult", "ClosenessReport", "closeness_check"}
    assert sorted(name for name in retired if hasattr(coupling, name)) == []


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_leaf_exception_class_is_raised_or_caught():
    # a leaf class in errors.py that no module raises or catches is dead
    # surface; perfbench/child.py reads DegeneratePairMass off the exceptions
    # it is handed, so what it imports from errors.py counts as used
    package = Path(gibbsmix.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    bases = set().union(*(_names(base) for node in classes for base in node.bases))
    leaves = {node.name for node in classes} - bases
    used = set()
    for path in package.glob("*.py"):
        if path.name in ("errors.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    child = package.parents[1] / "perfbench" / "child.py"
    used |= {
        alias.name
        for node in ast.walk(ast.parse(child.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "gibbsmix.errors"
        for alias in node.names
    }
    assert len(leaves) > 10
    assert sorted(leaves - used) == []


def test_only_the_predraw_and_the_runner_fill_a_draw_store():
    # a (B, T) draw store is guarded in one place: seeding.predraw, for the
    # pair stores of the lockstep experiments and of both coupling phases,
    # so a new copy of the pre-draw that skips the memory guard fails here.
    # The lambda stream holds at most one chunk and checks nothing.
    # identity-matrix guards its two stacks of stationary rows, gap and
    # compare their dense (n, n) arrays, and check_s_recursion its chunk of
    # difference vectors. The old
    # move-store helpers, which held the lambdas whole, exist nowhere, and
    # the stream keeps no protocol that its callers must finish
    package = Path(gibbsmix.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in functions:
            called = {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(func) if isinstance(call, ast.Call)
                and isinstance(call.func, (ast.Name, ast.Attribute))
            }
            if "check_draw_memory" in called:
                callers.add((path.stem, func.name))
        names = {node.name for node in functions} | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"empty_moves", "move_bytes"}, path.stem
    assert callers == {("seeding", "predraw"), ("harness", "_run_identity_matrix"),
                       ("harness", "_run_gap"), ("harness", "_run_compare"),
                       ("simplex", "check_s_recursion")}
    stream = LambdaStream([np.random.default_rng(0)], 3)
    assert not hasattr(stream, "finish") and not hasattr(stream, "drawn")


def test_only_seeding_touches_a_bit_generator():
    # stream arithmetic (jumping a PCG64 stream over draws, its kept 32-bit
    # half) lives in seeding.skip_draws; a module that reads or moves a
    # generator's bit generator itself fails here
    package = Path(gibbsmix.__file__).parent
    touching = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "bit_generator"
                    or isinstance(node, ast.Constant) and node.value == "bit_generator"):
                touching.add(path.stem)
    assert touching == {"seeding"}


_GENERATOR_MAKERS = {"default_rng", "Generator", "RandomState", "SeedSequence", "seed",
                     "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}


def test_every_generator_of_a_run_comes_from_replica_rng():
    # one documented draw order per replica: every stream a run draws from is
    # seeding.replica_rng(seed, r), so no other module builds a generator,
    # a bit generator or a seed sequence. default_rng(seed) would be an
    # unnamed alias of replica 0's stream (SeedSequence(s) and
    # SeedSequence([s, 0]) give one state), and two such aliases once made
    # the s-recursion's moves re-read the draws that made X and Y. The one
    # exception is the fixed associativity sample of
    # groups.verify_group_axioms, which is seeded by its own constant
    package = Path(gibbsmix.__file__).parent
    assoc = [ast.dump(ast.Name("_ASSOC_SEED", ast.Load()))]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    builders = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "seeding":
            continue
        tree = ast.parse(path.read_text())
        # each function, and the module's own statements outside them
        scopes = [(node.name, node) for node in ast.walk(tree) if isinstance(node, functions)]
        scopes += [("<module>", node) for node in tree.body
                   if not isinstance(node, (*functions, ast.ClassDef))]
        for name, scope in scopes:
            for call in ast.walk(scope):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "attr", getattr(call.func, "id", None))
                        in _GENERATOR_MAKERS
                        and not (path.stem == "groups"
                                 and [ast.dump(a) for a in call.args] == assoc)):
                    builders.add(f"{path.stem}.{name}")
    assert sorted(builders) == []


def test_advance_and_the_coupled_runner_are_the_only_tile_walkers():
    # a caller that observes nothing, or folds the entries each call moves
    # in its kernel (largeness, the monotone run), walks the levels through
    # pairops.advance; only the coupled runner's phase 2, which applies its
    # marked steps between levels, walks the level tiles itself, and it
    # reads each tile's lambdas from what pair_levels yields, with no
    # closure around the stream. One levelling rule: a barrier raises its
    # lane's whole row, so the scan keeps no per-lane floor or top
    package = Path(gibbsmix.__file__).parent
    walkers, importers = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "pair_levels" in _names(func)):
                walkers.add((path.stem, func.name))
        importers |= {path.stem for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name == "pair_levels"}
    assert {w for w in walkers if w[0] != "pairops"} == {("coupling", "run_nonmarkovian_coupling")}
    assert importers == {"coupling"}
    runner = next(node for node in ast.walk(ast.parse((package / "coupling.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "run_nonmarkovian_coupling")
    assert not [node for node in ast.walk(runner) if node is not runner and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Nonlocal))]
    levels = next(node for node in ast.walk(ast.parse((package / "pairops.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == "_move_levels")
    bound = {node.id for node in ast.walk(levels)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not bound & {"floor", "top"}
