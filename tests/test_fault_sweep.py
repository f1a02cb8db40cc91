"""Fixed-order single-field mutation sweeps over the JSON files that the
commands read (in the manner of Miller, Fredriksen & So, CACM 1990).

Every field of a checkpoint manifest and of a dataset's ``.meta.json``
sidecar is set, in a fixed order, to each value of ``VALUES`` or deleted,
and a command runs on the result through ``cli.main``.  Each run must exit
0 or 1 and no exception may escape; the sweeps also pin the mutations that
must fail with an ``error:`` line.  A last sweep sets a dataset's component
ids, which ``probe`` reads as class ids.
"""

import copy
import json
import shutil

import pytest

from neuralbayes import cli, nn

VALUES = [None, True, -1, 2.5, 10**12, "s", [], {}, [1]]
DELETE = object()


def field_paths(value, path=()):
    """Every field path under a JSON value, each parent before its children."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield (*path, key)
        yield from field_paths(child, (*path, key))


def mutations(doc):
    """(path, value, the document with that field set to value or deleted)."""
    for path in field_paths(doc):
        for value in [*VALUES, DELETE]:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, mutated


def run(argv, capsys):
    """A command's exit code and stderr; an exception that escapes
    ``cli.main`` fails the test."""
    capsys.readouterr()
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.fixture
def moons(tmp_path):
    def make(dim):
        data = tmp_path / f"moons{dim}.csv"
        lift = ["--dim", str(dim)] if dim != 2 else []
        assert cli.main(["gen-data", "--kind", "moons", "--n", "12", "--seed", "4", *lift,
                         "--out", str(data)]) == 0
        return data
    return make


# (the network, the dimension of its input rows, the number of cases)
NETWORKS = {
    "mlp": (lambda: nn.build_mlp(2, [4], 2, seed=0, batchnorm=True), 2, 620),
    "cnn": (lambda: nn.build_cnn("C(3,3,1,1)-P(2,2,0,max)-P(.,.,.,avg)-FC(2)", (1, 8, 8),
                                 seed=0, softmax_head=True), 64, 780)}


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_checkpoint_sweep_exits_0_or_1(tmp_path, moons, capsys, network):
    build, dim, cases = NETWORKS[network]
    data = moons(dim)
    json_path, bin_path = nn.save_checkpoint(build(), tmp_path / "ref")
    manifest = json.loads(json_path.read_text())
    shutil.copy(bin_path, tmp_path / "ckpt.bin")
    probe = ["probe", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(data),
             "--hidden", "2", "--epochs", "1", "--seed", "0"]
    codes = {}
    for path, value, mutated in mutations(manifest):
        (tmp_path / "ckpt.json").write_text(json.dumps(mutated))
        code, err = run(probe, capsys)
        codes[path, repr(value)] = code
        assert code in (0, 1), (path, value)
        if path == ("dtype",):
            assert code == 1 and err.startswith("error: checkpoint dtype"), (value, err)
    assert len(codes) == cases
    # a changed entry, or a changed size of a layer's arrays, never loads
    sizes = ("in_dim", "out_dim", "features", "in_channels", "out_channels")
    for (path, value), code in codes.items():
        if path[0] == "entries" or path[-1] in sizes:
            assert code == 1, (path, value)


def test_conv_padding_cannot_size_an_allocation(tmp_path, moons, capsys):
    """A padding as large as the kernel is refused when the checkpoint
    loads: 10**5 used to pad 64-D rows into a 298 GiB array."""
    build, dim, _ = NETWORKS["cnn"]
    json_path, _ = nn.save_checkpoint(build(), tmp_path / "ckpt")
    manifest = json.loads(json_path.read_text())
    manifest["architecture"]["layers"][0]["padding"] = 10**5
    json_path.write_text(json.dumps(manifest))
    code, err = run(["probe", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(moons(dim)),
                     "--hidden", "2", "--epochs", "1", "--seed", "0"], capsys)
    assert code == 1 and "conv padding 100000 must be smaller than its kernel 3" in err, err


# each run's component ids, repeated down the rows
COMPONENT_IDS = {"10**12": [10**12, 0], "2**62": [0, 2**62], "gapped": [3, 40, 41],
                 "single": [5], "negative": [0, -1]}


def test_component_id_sweep_exits_0_or_1(tmp_path, moons, capsys):
    """``probe`` on huge, gapped, single and negative class ids.  No id
    sizes an allocation: the probe's head has one output per distinct id."""
    nn.save_checkpoint(nn.build_mlp(2, [4], 2, seed=0, batchnorm=True), tmp_path / "ckpt")
    header, *rows = moons(2).read_text().splitlines()
    codes = {}
    for name, ids in COMPONENT_IDS.items():
        data = tmp_path / f"ids-{name}.csv"
        data.write_text("\n".join([header, *(f"{row.rsplit(',', 1)[0]},{ids[i % len(ids)]}"
                                             for i, row in enumerate(rows))]) + "\n")
        codes[name], err = run(["probe", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                                str(data), "--hidden", "2", "--epochs", "1", "--seed", "0"],
                               capsys)
        assert codes[name] in (0, 1), name
        assert (codes[name] == 1) == ("error: labels must be nonnegative" in err), (name, err)
    assert codes == {**dict.fromkeys(COMPONENT_IDS, 0), "negative": 1}


def breaks_a_rule(path, value) -> bool:
    """Whether a sidecar with ``path`` set to ``value`` breaks a rule of
    ``cli._sidecar``: only the lift's seed may take another integer (10**12),
    and only ``standardized`` and the whole lift may go."""
    if path in ((), ("lift",)):
        return value is not DELETE
    if path == ("standardized",):
        return value not in (True, DELETE)
    return path[0] == "lift" and not (path[1] == "seed" and value == 10**12)


def test_sidecar_sweep_exits_0_or_1(tmp_path, moons, capsys):
    data = moons(3)
    sidecar = data.with_suffix(".meta.json")
    written = json.loads(sidecar.read_text())
    # the fields a command reads, and one that every command ignores
    meta = {key: written[key] for key in ("lift", "standardized", "seed")}
    assert set(meta["lift"]) == {"dim", "seed", "base_dim"}
    nn.save_checkpoint(nn.build_mlp(3, [4], 2, seed=0, batchnorm=True), tmp_path / "ckpt")
    commands = {
        "probe": ["probe", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(data),
                  "--hidden", "2", "--epochs", "1", "--seed", "0"],
        "export-grid": ["export-grid", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                        str(data), "--resolution", "3", "--out", str(tmp_path / "grid.csv")],
        "train-dml": ["train-dml", "--data", str(data), "--mbs", "24", "--bs", "24",
                      "--epochs", "1", "--seed", "0", "--out-dir", str(tmp_path / "run")]}
    cases = [((), value, value) for value in VALUES if value != {}]
    cases += list(mutations(meta))
    for path, value, mutated in cases:
        sidecar.write_text(json.dumps(mutated))
        for name, argv in commands.items():
            code, err = run(argv, capsys)
            assert code in (0, 1), (name, path, value)
            if name == "train-dml":
                assert (tmp_path / "run").exists() == (code == 0), (path, value)
                shutil.rmtree(tmp_path / "run", ignore_errors=True)
            if breaks_a_rule(path, value):
                assert code == 1 and f"error: --data sidecar {sidecar}" in err, (name, path, value)
    sidecar.write_text("{bad")
    for name, argv in commands.items():
        code, err = run(argv, capsys)
        assert code == 1 and f"error: --data sidecar {sidecar} is not readable JSON" in err, name


@pytest.mark.parametrize("raw", [b"{bad", b"[" * 10**5 + b"]" * 10**5, b"\xff{}"],
                         ids=["syntax", "too-deep", "not-utf8"])
def test_unparsable_json_files_exit_1(tmp_path, moons, capsys, raw):
    data = moons(2)
    nn.save_checkpoint(nn.build_mlp(2, [4], 2, seed=0, batchnorm=True), tmp_path / "ckpt")
    probe = ["probe", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(data),
             "--hidden", "2", "--epochs", "1"]
    manifest, cfg = tmp_path / "ckpt.json", tmp_path / "cfg.json"
    sidecar = data.with_suffix(".meta.json")
    good = manifest.read_bytes()
    manifest.write_bytes(raw)
    code, err = run(probe, capsys)
    assert code == 1 and f"error: checkpoint manifest {manifest} is not valid JSON" in err
    manifest.write_bytes(good)
    sidecar.write_bytes(raw)
    code, err = run(probe, capsys)
    assert code == 1 and f"error: --data sidecar {sidecar} is not readable JSON" in err
    cfg.write_bytes(raw)
    code, err = run(["train-dml", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")], capsys)
    assert code == 1 and f"error: --config {cfg} is not readable JSON" in err
    assert not (tmp_path / "run").exists()
