"""Span recording and tape accounting for the traced benchmark run.

Everything here observes the library from outside: spans wrap calls into the
package's public functions, ``TimedNet`` wraps the network handed to an
objective, and the tape walk only reads the ``op``, ``data``,
``requires_grad`` and parent links of the nodes reachable from a loss.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

# op kinds reported one by one as tensor.tape_nodes.<op>
TAPE_OPS = ("matmul", "transpose", "conv2d", "max_pool2d", "avg_pool2d", "softmax", "add",
            "sub", "mul", "div", "mean", "sum", "reshape", "sqrt", "relu", "log")


class Tracer:
    """In-memory spans: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self) -> dict[int, list[dict]]:
        out = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]].append(s)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: dict[int, list[dict]]) -> float:
    """Duration minus the time its (sequential, single-threaded) children cover."""
    return duration(span) - sum(duration(c) for c in children.get(span["id"], ()))


def descendants(span: dict, children: dict[int, list[dict]], name: str) -> list[dict]:
    found, stack = [], list(children.get(span["id"], ()))
    while stack:
        s = stack.pop()
        if s["name"] == name:
            found.append(s)
        stack.extend(children.get(s["id"], ()))
    return found


class TimedNet:
    """Network proxy whose forwards are recorded as ``nn.forward`` spans."""

    def __init__(self, net, tracer: Tracer):
        self._net, self._tracer = net, tracer

    def forward(self, x, train: bool = False):
        with self._tracer.span("nn.forward"):
            return self._net.forward(x, train)

    __call__ = forward

    def forward_with_states(self, x, train: bool = False):
        with self._tracer.span("nn.forward"):
            return self._net.forward_with_states(x, train)

    def __getattr__(self, name):
        return getattr(self._net, name)


def tape_stats(loss) -> dict:
    """Exact node counts per op, distinct output bytes and GEMM/conv FLOPs of
    the tape behind ``loss`` (computed from shapes, read-only walk)."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    counts = defaultdict(int)
    buffers = {}
    flops = 0.0
    for node in nodes:
        counts[node.op] += 1
        arr = node.data
        buffers[(arr.__array_interface__["data"][0], arr.nbytes)] = arr.nbytes
        fwd = 0.0
        if node.op == "matmul":
            a, b = node._parents
            fwd = 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
        elif node.op == "conv2d":
            w = node._parents[1]
            batch, cout, oh, ow = arr.shape
            fwd = 2.0 * batch * cout * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]
        # the backward of a node on the requires-grad path runs two more
        # products of the same size (gradients of both operands)
        flops += fwd * (3.0 if node.requires_grad else 1.0)
    return {"nodes": len(nodes), "ops": dict(counts),
            "mb": sum(buffers.values()) / 1e6, "gflop": flops / 1e9}


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default
