"""Rules on the library's source that its behaviour alone cannot show."""

import argparse
import ast
from collections import Counter
from pathlib import Path

import neuralbayes
from neuralbayes import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "neuralbayes"

# The only places a network runs inside ``no_tape()``: the bounded-chunk
# read-only forward loop, and the stopping split's holdout objective (one
# batch-mode forward per MBS-sized group of the held-out rows, whose
# statistics are the point, as in a training step).
READ_ONLY_FORWARDS = {"train.extract_features", "cli._stopping_split.evaluate"}


def _is_no_tape(item: ast.withitem) -> bool:
    call = item.context_expr
    if not isinstance(call, ast.Call):
        return False
    f = call.func
    return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "no_tape"


def _runs_network(call: ast.Call) -> bool:
    """A ``forward``/``forward_with_states`` call, a call of ``net`` itself,
    or any call handed ``net`` (an objective)."""
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr in ("forward", "forward_with_states"):
        return True
    if isinstance(f, ast.Name) and f.id == "net":
        return True
    return any(isinstance(a, ast.Name) and a.id == "net" for a in call.args)


def forwards_without_tape(tree: ast.AST, module: str) -> set[str]:
    """Dotted names of the functions whose ``no_tape()`` blocks run a network."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.With) and any(_is_no_tape(i) for i in node.items):
            if any(isinstance(n, ast.Call) and _runs_network(n)
                   for stmt in node.body for n in ast.walk(stmt)):
                found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_read_only_forwards_only_in_the_chunked_loop():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= forwards_without_tape(ast.parse(path.read_text()), path.stem)
    assert found == READ_ONLY_FORWARDS


def test_rule_sees_each_way_of_running_a_network():
    source = '''
def score(probe, x):
    with T.no_tape():
        return probe.forward(Tensor(x), "eval").data

class Report:
    def head(self, net, x):
        with no_tape():
            return net(x)

def holdout(objective, net, x):
    with no_tape(), open("f") as fh:
        return objective(net, x)

def taped(net, x):
    return net.forward_with_states(x, "train")
'''
    assert forwards_without_tape(ast.parse(source), "m") == {"m.score", "m.Report.head",
                                                            "m.holdout"}


RUNNING_STATISTICS = {"running_mean", "running_var"}


def running_statistic_uses(tree: ast.AST, module: str) -> set[str]:
    """Dotted names of the scopes that read or set a ``running_mean`` or
    ``running_var`` attribute outside ``nn.BatchNormLayer``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if (isinstance(node, ast.Attribute) and node.attr in RUNNING_STATISTICS
                and [module, *scope[:1]] != ["nn", "BatchNormLayer"]):
            found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_running_statistics_stay_inside_batch_norm():
    """Only ``BatchNormLayer`` reads its running statistics, so its eval map
    is the one copy of the eval-mode formula."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= running_statistic_uses(ast.parse(path.read_text()), path.stem)
    assert found == set()


def test_running_statistics_rule_sees_reads_and_writes():
    source = '''
class BatchNormLayer:
    def eval_map(self):
        return self.running_mean, self.running_var

def fold(norm):
    return norm.running_var

class Probe:
    def reset(self, layer):
        layer.running_mean = None
'''
    assert running_statistic_uses(ast.parse(source), "nn") == {"nn.fold", "nn.Probe.reset"}
    assert running_statistic_uses(ast.parse(source), "train") == {
        "train.BatchNormLayer.eval_map", "train.fold", "train.Probe.reset"}


# The training flags that are not settings: inputs, outputs, where settings
# come from, the seed (recorded apart, with its NB_SEED fallback) and v1.
TRAINING_NON_SETTINGS = {"data", "labels", "out-dir", "config", "sweep", "seed", "preset", "v1"}


def test_each_training_setting_is_declared_once():
    """Every setting of ``TRAINING_DEFAULTS`` is a flag taking its default
    from the table, and every other training flag is a known non-setting."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, defaults in cli.TRAINING_DEFAULTS.items():
        parser = sub.choices[command]
        flags = {opt[2:] for action in parser._actions for opt in action.option_strings
                 if opt != "--help" and opt.startswith("--")}
        assert set(defaults) <= flags, command
        assert flags - set(defaults) <= TRAINING_NON_SETTINGS, command
        for key, value in defaults.items():
            assert parser.get_default(key.replace("-", "_")) == value, (command, key)


def test_every_export_resolves_once():
    """Each name in ``neuralbayes.__all__`` is listed once and is bound in
    the package, so a deleted object cannot stay exported."""
    counts = Counter(neuralbayes.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in counts if not hasattr(neuralbayes, name)] == []


def scopes_calling(tree: ast.AST, module: str, name: str) -> set[str]:
    """Dotted names of the scopes that call ``name``, bare or as an attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_degenerate_prior_error_raised_in_one_place():
    """Only ``bayes.check_interior`` raises ``DegeneratePriorError``, so every
    path that needs a prior inside (0, 1) checks it one way, with one message."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= scopes_calling(ast.parse(path.read_text()), path.stem, "DegeneratePriorError")
    assert found == {"bayes.check_interior"}


def test_smoothness_penalty_added_in_one_place():
    """Only the closure of ``dml.smoothed_objective`` adds beta * R_c, so
    both objectives forward the perturbed batch and log ``smooth`` one way."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= scopes_calling(ast.parse(path.read_text()), path.stem, "smoothness_penalty")
    assert found == {"dml.smoothed_objective.objective"}


def test_qr_factorizes_in_one_place():
    """Only ``nn.orthogonal_init`` calls a QR, so every factorization runs
    on its one OpenBLAS thread and gives the same bits on any host."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= scopes_calling(ast.parse(path.read_text()), path.stem, "qr")
    assert found == {"nn.orthogonal_init"}


def test_call_rule_sees_bare_and_attribute_calls():
    source = '''
import errors

def check(p):
    if p <= 0:
        raise DegeneratePriorError("p")

class Loss:
    def __call__(self, p):
        raise errors.DegeneratePriorError("p")

def typed(exc=DegeneratePriorError):
    return exc
'''
    assert scopes_calling(ast.parse(source), "m", "DegeneratePriorError") == {
        "m.check", "m.Loss.__call__"}


def scopes_assigning(tree: ast.AST, module: str, attr: str) -> set[str]:
    """Dotted names of the scopes that assign an ``attr`` attribute, alone,
    in a tuple target or augmented."""
    found = set()

    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if any(isinstance(n, ast.Attribute) and n.attr == attr
               for target in targets(node) for n in ast.walk(target)):
            found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_tape_assigns_gradients():
    """Only ``tensor`` sets a ``.grad``: ``gradients`` hands each parameter's
    gradient over and leaves none behind, so no caller clears them."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "tensor":
            found |= scopes_assigning(ast.parse(path.read_text()), path.stem, "grad")
    assert found == set()


def test_assignment_rule_sees_plain_tuple_and_augmented_targets():
    source = '''
def release(params):
    for p in params.values():
        p.grad = None

class Step:
    def swap(self, a, g):
        a.grad, self.count = g, 1

def accumulate(t, g):
    t.grad += g

def read(p):
    return p.grad is None
'''
    assert scopes_assigning(ast.parse(source), "m", "grad") == {
        "m.release", "m.Step.swap", "m.accumulate"}


def scopes_naming(tree: ast.AST, module: str, name: str) -> set[str]:
    """Dotted names of the scopes that read ``name``, bare or as an attribute,
    whether they call it or pass it on."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


# The only scopes that hand work to the second lane.  During a backward walk
# both lanes are running it, so a ``_both`` from an op's ``backward`` closure
# would queue its task behind the walk on the busy worker and wait forever.
LANE_SPLITS = {"tensor.Tensor.backward", "dml.smoothness_penalty",
               "mim.make_mim_objective.head_loss", "train.adam_step",
               "train.extract_features"}


def test_work_goes_to_the_second_lane_from_a_few_places_only():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= scopes_naming(ast.parse(path.read_text()), path.stem, "_both")
    assert found == LANE_SPLITS
    assert [s for s in found if s.endswith(".backward") and s != "tensor.Tensor.backward"] == []


def test_lane_rule_sees_calls_aliases_and_backward_closures():
    source = '''
def relu(x):
    def backward(g):
        T._both(lambda: g, lambda: g)
    return backward

def split(tasks):
    both = _both
    return both(*tasks)

def _both(first, second):
    return first(), second()
'''
    assert scopes_naming(ast.parse(source), "m", "_both") == {"m.relu.backward", "m.split"}
