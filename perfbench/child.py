"""Run one ``portsim`` command in this fresh interpreter and report its cost.

Usage::

    python3 perfbench/child.py FD TRACE ARGS...

The command ``portsim ARGS...`` runs exactly as the console script would run
it: ``portsim.cli.main`` with the process's own stdout and stderr. When it
returns, one JSON record goes to the inherited file descriptor FD:

- ``ready_ns``: monotonic clock after ``import portsim.cli``; the parent
  subtracts its spawn time to get the set-up time;
- ``start_ns`` and ``done_ns``: the command itself, stdout flushed;
- ``code``, ``maxrss_kb`` (this process only) and ``src`` (the imported file);
- ``layers``: per-layer totals, only when TRACE is 1;
- ``calibration_s``: the time of a fixed reference workload run after the
  command, a measure of the machine's current speed.

With TRACE 1 every layer boundary is wrapped in a span before the command
starts. The boundaries are the functions one ``portsim`` module imports from
another, rebound in the importing module's namespace; ``apply`` and
``apply_adjoint`` of every op class in ``portsim.circuit``; and
``portsim.cli.main``. ``halfint`` gets no spans: its calls are cheaper than a
span, so its time counts to its callers. A few counters hook private
functions; when such a function is gone the counter reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


LAYERS = ("spinalg", "schur", "povm_oracle", "povm_analytic", "circuit",
          "protocols", "cli")
_MB = 1 << 20


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays in a return value, from their shapes."""
    if hasattr(value, "nbytes") and hasattr(value, "shape"):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    elements = getattr(value, "elements", None)
    return _array_bytes(elements) if isinstance(elements, list) else 0


class Tracer:
    """Spans kept in flat arrays: name id, start, end and parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        # op-apply span index -> (bytes in + out, input batch width, larger state)
        self.op_spans: dict[int, tuple[int, int, int]] = {}
        self.compiles: list[int] = []
        self.counts = {"povm_oracle.dense_bytes": 0,
                       "povm_analytic.entries_assembled": 0,
                       "schur.vectors_built": 0,
                       "circuit.oaa_rounds": 0}

    def wrap(self, fn, name: str, hook=None):
        """fn with a span named `name`; hook(span, args, result) runs inside
        the span, so its cost counts to the callee."""
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, stack = (self.name_of, self.start, self.end,
                                              self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(idx, args, result)
                return result
            finally:
                end[idx] = _now()
                stack.pop()

        return traced

    def install(self) -> None:
        import portsim.circuit as circuit
        import portsim.cli as cli
        import portsim.protocols as protocols

        modules = {layer: sys.modules[f"portsim.{layer}"] for layer in LAYERS}
        callees = {f"portsim.{layer}": layer for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                callee = callees.get(getattr(obj, "__module__", None))
                if callee in (None, layer) or isinstance(obj, type) or not callable(obj):
                    continue
                hook = self._oracle_hook if callee == "povm_oracle" else None
                setattr(module, name, self.wrap(obj, f"{callee}.{name}", hook))
        for name, cls in list(vars(circuit).items()):
            if isinstance(cls, type) and cls.__module__ == circuit.__name__:
                for method in ("apply", "apply_adjoint"):
                    fn = cls.__dict__.get(method)
                    if fn is not None:
                        setattr(cls, method, self.wrap(
                            fn, f"circuit.{name}.{method}", self._op_hook))
        self._oaa_class = getattr(circuit, "OaaAction", None)
        cli.main = self.wrap(cli.main, "cli.main")
        self._hook_compile(protocols)
        self._hook_private()

    def _op_hook(self, idx, args, result) -> None:
        op, state = args[0], args[1]
        size_in = state.amps.nbytes
        size_out = result.amps.nbytes
        oaa = isinstance(op, self._oaa_class) if self._oaa_class else False
        if oaa:
            self.counts["circuit.oaa_rounds"] += int(op.n)
        self.op_spans[idx] = (size_in + size_out, int(state.amps.shape[-1]),
                              max(size_in, size_out))

    def _oracle_hook(self, idx, args, result) -> None:
        self.counts["povm_oracle.dense_bytes"] += _array_bytes(result)

    def _hook_compile(self, protocols) -> None:
        """Span every protocols.build_program call; a call that misses the
        program cache is a compile."""
        original = protocols.build_program
        info = getattr(original, "cache_info", None)

        def compile_program(*args, **kwargs):
            before = info().misses if info else 0
            result = original(*args, **kwargs)
            if info is None or info().misses != before:
                self.compiles.append(self.stack[-1])
            return result

        protocols.build_program = self.wrap(compile_program,
                                            "protocols.build_program")

    def _hook_private(self) -> None:
        import portsim.povm_analytic as analytic
        import portsim.schur as schur

        counts = self.counts
        assemble = getattr(analytic, "_assemble", None)
        if assemble is not None:
            @functools.wraps(assemble)
            def counted_assemble(es, *args, **kwargs):
                counts["povm_analytic.entries_assembled"] += len(es.entries)
                return assemble(es, *args, **kwargs)
            analytic._assemble = counted_assemble
        build = getattr(schur, "_build_vector", None)
        if build is not None:
            @functools.wraps(build)
            def counted_build(spins, m, memo):
                if (spins, m) not in memo:
                    counts["schur.vectors_built"] += 1
                return build(spins, m, memo)
            schur._build_vector = counted_build

    def summary(self) -> dict:
        """Per-layer self time and span counts, plus the work counters."""
        n = len(self.start)
        child_time = [0] * n
        has_op_child = set()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                if i in self.op_spans:
                    has_op_child.add(p)
        out = {f"{layer}.{key}": 0 for layer in LAYERS
               for key in ("self_s", "spans")}
        out.update({f"circuit.{cls}.self_s": 0.0 for cls in
                    ("SubspaceBlocks", "DenseSystem", "PortCswap", "RegisterProjector")})
        out.update({"circuit.op_applies": 0, "circuit.batch_columns": 0,
                    "circuit.bytes_touched": 0, "circuit.peak_state_mb": 0.0,
                    "protocols.compile_s": 0.0,
                    "protocols.compile_calls": len(self.compiles),
                    "protocols.batch_calls": 0})
        out.update(self.counts)
        for i in range(n):
            name = self.names[self.name_of[i]]
            layer = name.split(".", 1)[0]
            self_s = (self.end[i] - self.start[i] - child_time[i]) / 1e9
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.spans"] += 1
            if name == "protocols.teleport_batch":
                out["protocols.batch_calls"] += 1
            op = self.op_spans.get(i)
            if op is None:
                continue
            cls_key = "circuit." + name.split(".")[1] + ".self_s"
            if cls_key in out:
                out[cls_key] += self_s
            if i not in has_op_child:
                out["circuit.op_applies"] += 1
                out["circuit.bytes_touched"] += op[0]
            if self.parent[i] not in self.op_spans:
                out["circuit.batch_columns"] += op[1]
            out["circuit.peak_state_mb"] = max(out["circuit.peak_state_mb"], op[2] / _MB)
        for i in self.compiles:
            out["protocols.compile_s"] += (self.end[i] - self.start[i]) / 1e9
        out["spinalg.calls"] = out["spinalg.spans"]
        return out


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work the package does: exact
    fractions, tuple-keyed dicts, gathers and a BLAS contraction on a small
    statevector, copies of a large one, and JSON. The benchmark scales its
    times by the median of these, so that a change in the shared machine's
    speed cancels out."""
    import numpy as np
    from fractions import Fraction

    begin = _now()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i + 1)
    table: dict = {}
    for i in range(40_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    amps = np.ones((64, 4, 2, 128), dtype=np.complex128)
    flat = amps.reshape(512, 128)
    rows = np.arange(0, 512, 2)
    for _ in range(30):
        flat[rows] = flat[rows[::-1]] * 0.5
        np.tensordot(np.eye(64), amps, axes=([1], [0]))
    large = np.ones(1 << 20, dtype=np.complex128)
    for _ in range(3):
        large = large.copy()
    json.dumps([float(x) for x in range(20_000)])
    return (_now() - begin) / 1e9


def main() -> int:
    fd = int(sys.argv[1])
    traced = sys.argv[2] == "1"
    argv = sys.argv[3:]
    import portsim.cli

    ready = _now()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    start = _now()
    code = portsim.cli.main(argv)
    sys.stdout.flush()
    done = _now()
    record = {"ready_ns": ready, "start_ns": start, "done_ns": done, "code": code,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "src": portsim.cli.__file__}
    if tracer is not None:
        record["layers"] = tracer.summary()
    record["calibration_s"] = calibrate()
    with os.fdopen(fd, "w") as sink:
        sink.write(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
