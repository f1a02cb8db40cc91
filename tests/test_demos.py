"""The fast narrative demos run end to end as scripts, and every demo calls
only library names that exist, with arguments their signatures accept.

Demos 02 (about 6 s), 03 (about 31 s) and 04 (4 to 16 s) are left to be
run by hand, so the static checks below are what keep them in step with the
library's API.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script, last_line", [
    ("01_posterior_prior_and_mi.py", "which is what keeps every latent state alive during training"),
    ("05_accumulation_schedules.py", "MBS = 8 with constant prior: gap"),
])
def test_demo_runs(tmp_path, script, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert last_line in done.stdout.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []  # a demo writes nothing into its working directory


def _library_member(module, name: str):
    """``module.name``, importing it when it is a submodule; None if absent."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def library_bindings(tree: ast.AST) -> tuple[dict, dict, list[str]]:
    """What a script imports from ``neuralbayes`` or its modules: the local
    names bound to library modules, those bound to other members, and the
    imported names that do not exist."""
    modules, members, missing = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "neuralbayes":
            source = importlib.import_module(node.module)
            for alias in node.names:
                member = _library_member(source, alias.name)
                local = alias.asname or alias.name
                if member is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(member, types.ModuleType):
                    modules[local] = member
                else:
                    members[local] = member
    return modules, members, missing


def missing_library_names(tree: ast.AST) -> list[str]:
    """Names a script imports from ``neuralbayes`` or its modules, and
    ``module.attr`` reads on a library module imported that way, that do not
    exist."""
    modules, _, missing = library_bindings(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def unbindable_library_calls(tree: ast.AST) -> list[str]:
    """Calls of a library callable, named as ``missing_library_names`` sees
    it, whose keywords or number of positional arguments its signature does
    not accept, as "line: message".  Calls that unpack ``*`` or ``**`` are
    not checked."""
    modules, members, _ = library_bindings(tree)
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            target = members.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = getattr(modules.get(func.value.id), func.attr, None)
        else:
            target = None
        if (not callable(target) or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(target).bind_partial(*node.args,
                                                   **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            bad.append(f"{node.lineno}: {ast.unparse(func)}: {exc}")
    return bad


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_uses_existing_library_names(script):
    assert missing_library_names(ast.parse(script.read_text())) == []


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_library_signatures(script):
    assert unbindable_library_calls(ast.parse(script.read_text())) == []


def test_api_check_sees_each_way_of_naming_the_library():
    source = '''
from neuralbayes import Tensor, no_such_name, dml
from neuralbayes.tensor import softmax, gone
dml.dml_loss(), dml.no_such_loss(), Tensor.shape
'''
    assert set(missing_library_names(ast.parse(source))) == {
        "neuralbayes.no_such_name", "neuralbayes.tensor.gone", "neuralbayes.dml.no_such_loss"}


def test_call_check_sees_wrong_keywords_and_extra_arguments():
    source = '''
from neuralbayes import DmlConfig, dml
from neuralbayes.train import linear_probe as probe
DmlConfig(partitions=2, noise_sigma=0.1)
dml.dml_loss(p, cfg)
probe(features, labels, holdout=0.5)
dml.smoothness_penalty(net, x, y0, rng, zeta=0.1)
probe(*args, **kwargs)
p.values.sum(axis=1)
'''
    bad = unbindable_library_calls(ast.parse(source))
    assert [b.split(":")[0] for b in bad] == ["4", "5", "6"], bad
