"""In-process traced replay of a workload through `statesieve.cli.main`.

Every public function of every statesieve module is wrapped from outside the
package: the wrapper replaces each module attribute that refers to the same
function object, so calls between modules and within a module both go
through it.  A wrapper records one span (name, start, end, parent span,
command id) per call, kept in memory and written out at the end of the run.
A generator function gets one span per resumption.

Self time is a span's duration minus the time covered by its child spans.
Counts computed from argument shapes (dense products, matrix-vector
products, trials) are recorded by hooks that run after the span closes,
inside a `trace.bookkeeping` span, so their cost is charged to no layer.
`jsonio.bytes_in` is the size of the JSON files the commands read, and
`jsonio.bytes_out` the compact JSON size of every top-level encoder result.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "systems", "partitions", "bases", "paulis", "sieve", "jsonio", "cli")
# Dense N x N complex products each linalg check performs, and the argument
# that carries N.
PRODUCTS = {"linalg.is_unitary": (1, "u"), "linalg.is_projector": (1, "p"),
            "linalg.commutator_norm": (2, "a"), "linalg.conjugate": (2, "u")}
BOOKKEEPING = "trace.bookkeeping"

# Every per-layer metric of a traced run: name -> (unit, which way is better).
METRICS = {
    "linalg.commutator_norm.calls": ("count", "lower"),
    "linalg.commutator_norm.self_ms": ("ms", "lower"),
    "linalg.is_projector.self_ms": ("ms", "lower"),
    "linalg.is_unitary.calls": ("count", "lower"),
    "linalg.is_unitary.self_ms": ("ms", "lower"),
    "linalg.conjugate.self_ms": ("ms", "lower"),
    "linalg.eigenvalue_bit.calls": ("count", "lower"),
    "linalg.eigenvalue_bit.self_ms": ("ms", "lower"),
    "linalg.eigenvalue_bit.useful_frac": ("frac", "higher"),
    "linalg.tensor.calls": ("count", "lower"),
    "linalg.tensor.self_ms": ("ms", "lower"),
    "linalg.dense_products": ("count", "lower"),
    "linalg.dense_gflop": ("GFLOP", "lower"),
    "linalg.gflops_achieved": ("GFLOP/s", "higher"),
    "systems.certify_system.self_ms": ("ms", "lower"),
    "systems.verify_requirements.self_ms": ("ms", "lower"),
    "systems.separates.self_ms": ("ms", "lower"),
    "systems.system_partitions.self_ms": ("ms", "lower"),
    "systems.permute_system.self_ms": ("ms", "lower"),
    "systems.standard_system.self_ms": ("ms", "lower"),
    "systems.commutator_useful_frac": ("frac", "higher"),
    "systems.enumerate_systems.yielded": ("count", "higher"),
    "systems.enumerate_systems.self_ms": ("ms", "lower"),
    "systems.enumerate_systems.systems_per_s": ("1/s", "higher"),
    "partitions.partition_from_projector.calls": ("count", "lower"),
    "partitions.partition_from_projector.self_ms": ("ms", "lower"),
    "partitions.meet.calls": ("count", "lower"),
    "partitions.meet.self_ms": ("ms", "lower"),
    "bases.named_basis.calls": ("count", "lower"),
    "bases.named_basis.self_ms": ("ms", "lower"),
    "bases.named_basis.useful_frac": ("frac", "higher"),
    "bases.transformed_system.self_ms": ("ms", "lower"),
    "paulis.sigma_product_proposition.self_ms": ("ms", "lower"),
    "paulis.embed.calls": ("count", "lower"),
    "sieve.sample_detections.self_ms": ("ms", "lower"),
    "sieve.sample_detections.trials_per_s": ("1/s", "higher"),
    "sieve.matvecs": ("count", "lower"),
    "sieve.measure_state.self_ms": ("ms", "lower"),
    "sieve.route_basis_state.calls": ("count", "lower"),
    "sieve.route_basis_state.self_ms": ("ms", "lower"),
    "sieve.question_count_stats.self_ms": ("ms", "lower"),
    "sieve.question_count_stats.trials_per_s": ("1/s", "higher"),
    "sieve.naive_search.calls": ("count", "lower"),
    "jsonio.encode.self_ms": ("ms", "lower"),
    "jsonio.decode.self_ms": ("ms", "lower"),
    "jsonio.bytes_in": ("B", "lower"),
    "jsonio.bytes_out": ("B", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.statesieve_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    **{f"layer.{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
}
# Metrics a replay counts from calls and argument shapes; they repeat exactly.
COUNTED = tuple(k for k, (unit, _) in METRICS.items()
                if unit in ("count", "GFLOP", "frac", "B")
                and k not in ("cli.stdout_bytes", "trace.overhead_frac"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _data_ptr(a) -> int:
    return a.__array_interface__["data"][0]


class Tracer:
    def __init__(self):
        self.spans: list = []           # [name, start_ns, end_ns, parent, command]
        self.stack: list[int] = []
        self.command: str | None = None
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)  # (metric, command) -> keys
        self.named_basis_commands: set = set()
        self._restore: list = []
        self.hooks = {
            "linalg.commutator_norm": [self._products, self._commutator],
            "linalg.eigenvalue_bit": [self._eigenvalue_bit],
            "sieve.sample_detections": [self._sample],
            "sieve.measure_state": [self._measure],
            "sieve.question_count_stats": [self._stats],
            "bases.named_basis": [self._named_basis],
        }
        for name in PRODUCTS:
            self.hooks.setdefault(name, [self._products])

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__) if m.name != "__main__"]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(package.__name__ + ".")
                        and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._wrap(obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hooks = self.hooks.get(name, [])
        if name.startswith("jsonio.") and name.endswith("_to_json"):
            hooks = [self._encoded]
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        def enter():
            idx = len(spans)
            spans.append([name, now(), 0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            return idx

        def leave(idx):
            spans[idx][2] = now()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(idx)
                    self.counts[f"{name}.yielded"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if hooks:
                parent = spans[idx][3]
                start = now()
                for hook in hooks:
                    hook(name, parent, args, kwargs, result)
                spans.append([BOOKKEEPING, start, now(), parent, self.command])
            return result
        return wrapper

    # -- computed counts ---------------------------------------------------

    def _products(self, name, parent, args, kwargs, result):
        products, arg_name = PRODUCTS[name]
        dim = len(_arg(args, kwargs, 0, arg_name))
        self.counts["linalg.dense_products"] += products
        self.counts["linalg.dense_flop"] += products * 8 * dim ** 3

    def _commutator(self, name, parent, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        self.distinct["commutator", self.command].add(frozenset((_data_ptr(a), _data_ptr(b))))

    def _eigenvalue_bit(self, name, parent, args, kwargs, result):
        p, v = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "v")
        self.distinct["eigenvalue_bit", self.command].add((_data_ptr(p), _data_ptr(v)))

    def _sample(self, name, parent, args, kwargs, result):
        system, trials = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 2, "trials")
        self.counts["sieve.matvecs"] += trials * system.size
        self.counts["sieve.sample_detections.trials"] += trials

    def _measure(self, name, parent, args, kwargs, result):
        self.counts["sieve.matvecs"] += 2 ** _arg(args, kwargs, 0, "system").size - 1

    def _stats(self, name, parent, args, kwargs, result):
        self.counts["sieve.question_count_stats.trials"] += _arg(args, kwargs, 1, "trials")

    def _named_basis(self, name, parent, args, kwargs, result):
        self.named_basis_commands.add(self.command)

    def _encoded(self, name, parent, args, kwargs, result):
        if parent < 0 or not self.spans[parent][0].startswith("jsonio."):
            self.counts["jsonio.bytes_out"] += len(json.dumps(result))

    # -- results -----------------------------------------------------------

    def distinct_count(self, metric: str) -> int:
        return sum(len(keys) for (m, _), keys in self.distinct.items() if m == metric)

    def self_times(self) -> tuple[dict, dict]:
        """(self ns, inclusive ns) per span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own, incl = Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            own[name] += end - start - child
            incl[name] += end - start
        return own, incl


def replay(commands, package, tracer: Tracer) -> tuple[list[dict], float]:
    """Run every command through cli.main in this process under tracing.

    Returns per-command {id, exit, sha256, error} and the replay wall time.
    """
    cli = importlib.import_module(f"{package.__name__}.cli")
    results = []
    tracer.install(package)
    start = time.perf_counter()
    try:
        for cmd in commands:
            tracer.command = cmd.id
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # a crash is a failed command, not a crashed benchmark
                    code, error = None, f"{type(e).__name__}: {e}"
            data = out.getvalue().encode()
            results.append({"id": cmd.id, "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                            "stdout_bytes": len(data), "error": error})
    finally:
        elapsed = time.perf_counter() - start
        tracer.command = None
        tracer.uninstall()
    return results, elapsed


def layer_metrics(tracer: Tracer, commands) -> dict[str, float]:
    """Per-layer metrics of one traced replay (times in ms)."""
    own, incl = tracer.self_times()
    ms = {k: v / 1e6 for k, v in own.items()}
    calls = tracer.calls
    counts = tracer.counts
    m: dict[str, float] = {}

    def self_ms(name):
        return ms.get(name, 0.0)

    def per_s(count, name):
        seconds = incl.get(name, 0) / 1e9
        return count / seconds if seconds > 0 else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    for name in ("linalg.commutator_norm", "linalg.is_unitary", "linalg.eigenvalue_bit",
                 "linalg.tensor", "partitions.partition_from_projector", "partitions.meet",
                 "bases.named_basis", "paulis.embed", "sieve.route_basis_state",
                 "sieve.naive_search"):
        m[f"{name}.calls"] = calls[name]
    for name in ("linalg.commutator_norm", "linalg.is_projector", "linalg.is_unitary",
                 "linalg.conjugate", "linalg.eigenvalue_bit", "linalg.tensor",
                 "systems.certify_system", "systems.verify_requirements", "systems.separates",
                 "systems.system_partitions", "systems.permute_system",
                 "systems.standard_system", "systems.enumerate_systems",
                 "partitions.partition_from_projector", "partitions.meet",
                 "bases.named_basis", "bases.transformed_system",
                 "paulis.sigma_product_proposition", "sieve.sample_detections",
                 "sieve.measure_state", "sieve.route_basis_state",
                 "sieve.question_count_stats", "cli.main"):
        m[f"{name}.self_ms"] = self_ms(name)

    m["linalg.dense_products"] = counts["linalg.dense_products"]
    m["linalg.dense_gflop"] = counts["linalg.dense_flop"] / 1e9
    product_s = sum(self_ms(name) for name in PRODUCTS) / 1e3
    m["linalg.gflops_achieved"] = frac(m["linalg.dense_gflop"], product_s)
    m["linalg.eigenvalue_bit.useful_frac"] = frac(tracer.distinct_count("eigenvalue_bit"),
                                                  calls["linalg.eigenvalue_bit"])
    m["systems.commutator_useful_frac"] = frac(tracer.distinct_count("commutator"),
                                               calls["linalg.commutator_norm"])
    m["systems.enumerate_systems.yielded"] = counts["systems.enumerate_systems.yielded"]
    m["systems.enumerate_systems.systems_per_s"] = per_s(
        counts["systems.enumerate_systems.yielded"], "systems.enumerate_systems")
    m["bases.named_basis.useful_frac"] = frac(len(tracer.named_basis_commands),
                                              calls["bases.named_basis"])
    m["sieve.matvecs"] = counts["sieve.matvecs"]
    m["sieve.sample_detections.trials_per_s"] = per_s(
        counts["sieve.sample_detections.trials"], "sieve.sample_detections")
    m["sieve.question_count_stats.trials_per_s"] = per_s(
        counts["sieve.question_count_stats.trials"], "sieve.question_count_stats")
    m["jsonio.encode.self_ms"] = sum(v for k, v in ms.items()
                                     if k.startswith("jsonio.") and k.endswith("_to_json"))
    m["jsonio.decode.self_ms"] = sum(v for k, v in ms.items()
                                     if k.startswith("jsonio.") and k.endswith("_from_json"))
    m["jsonio.bytes_in"] = sum(c.input_bytes for c in commands)
    m["jsonio.bytes_out"] = counts["jsonio.bytes_out"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = sum(v for k, v in ms.items()
                                          if k.split(".", 1)[0] == layer)
    return m


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, command in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, command]) + "\n")
