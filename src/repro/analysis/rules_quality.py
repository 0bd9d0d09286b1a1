"""R004 and R005 — numeric and hot-loop code-quality invariants.

*R004 (float-equality)*: ``==``/``!=`` between float-typed expressions
is how golden numbers silently drift — the differential batteries
compare floats bit-exactly **on purpose**, but they live in ``tests/``;
production code must use exact sentinels or ``math.isinf``/
``math.isclose``.  Refinement (documented): comparisons against the
literals ``0.0`` and ``1.0`` are exact-representable sentinel checks
(``p_good == 0.0`` selects the sparse fade path) and are exempt;
``float("inf")`` comparisons are not — ``math.isinf`` says the same
thing robustly.

*R005 (hot-loop hygiene)*: the functions registered in
:data:`HOT_PATHS` are the measured hot loops every benchmark pins a
speedup on.  Inside their loops, per-iteration ``list``/``dict``/
``set`` literals, comprehensions, ``lambda`` definitions and dynamic
attribute access (``getattr``/``setattr``/``hasattr``) allocate or
dispatch per iteration — hoist them out.  Tuples are exempt: heap
entries and multiple assignment are idiomatic and cheap.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.base import FileContext, Rule, register
from repro.analysis.findings import Finding

#: Dotted names of the registered hot paths and why each is hot.  Keys
#: are ``module.Class.function`` / ``module.function``; loops anywhere
#: lexically inside the function (including nested helpers) are hot.
HOT_PATHS: Dict[str, str] = {
    "repro.dram.engine.SchedulingEngine.run":
        "the engine arbiter walk (every scheduled command)",
    "repro.dram.kernel._run_native":
        "the compiled-kernel driver (every native batch of every phase)",
    "repro.dram.kernel._NativeRun.feed":
        "one engine's compiled run (every batch, every record-buffer "
        "growth)",
    "repro.dram.kernel._NativeRun.result":
        "the recorded-command decode (every recorded command)",
    "repro.channel.gilbert_elliott.GilbertElliottChannel._fade_runs":
        "the channel dwell loop (every dense-path frame)",
    "repro.channel.gilbert_elliott.GilbertElliottChannel._fill_state_row":
        "the dense fade-mask fill (every dense-path frame)",
    "repro.channel.gilbert_elliott.GilbertElliottChannel._sample_batch":
        "the dense batched channel core (every dense-path batch)",
    "repro.dram.engine._PartitionedSource.batches":
        "the bank-partition intake remap (every partitioned chunk)",
    "repro.system.campaign.run_frames":
        "the Monte Carlo batch loop (every campaign, adaptive and "
        "scenario cell)",
    "repro.system.adaptive.evaluate_rare_event":
        "the importance-sampling frame loop (every rare-event cell)",
    "repro.system.adaptive._sample_frame_states":
        "the proposal-chain dwell sampler (every importance-sampled frame)",
}

#: Float-literal values exempt from R004 (exact-representable
#: sentinels; see the module docstring).
SENTINEL_FLOATS = (0.0, 1.0)

#: Dynamic attribute/namespace accessors flagged inside hot loops.
_DYNAMIC_CALLS = frozenset({"getattr", "setattr", "hasattr", "vars",
                            "globals", "locals", "dir"})


def _is_float_typed(node: ast.AST) -> bool:
    """Best-effort: is ``node`` unmistakably a float expression?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and \
            node.value not in SENTINEL_FLOATS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "float":
        return True
    if isinstance(node, ast.Attribute) and node.attr in ("inf", "nan") \
            and isinstance(node.value, ast.Name) \
            and node.value.id in ("math", "np", "numpy"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_typed(node.operand)
    return False


@register
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` between float-typed expressions outside the differential-test helpers.

    Exact float comparison belongs to the differential batteries in
    ``tests/``; production code compares against exact sentinels
    (``0.0``, ``1.0``) or uses ``math.isinf``/``math.isclose``.
    """

    id = "R004"
    name = "float-equality"
    roles = ("src",)

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Flag float equality comparisons in production code."""
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_float_typed(left) or _is_float_typed(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield context.finding(
                        self, node,
                        f"float equality {ast.unparse(left)!r} {symbol} "
                        f"{ast.unparse(right)!r}: use math.isinf/"
                        f"math.isclose (exact comparison is for the "
                        f"differential tests)")


@register
class HotLoopRule(Rule):
    """No per-iteration container literals, lambdas or dynamic attribute access in registered hot loops.

    The loops named in :data:`HOT_PATHS` are the measured floors every
    benchmark pins; allocations and dynamic dispatch inside them cost
    on every scheduled command / sampled frame.
    """

    id = "R005"
    name = "hot-loop"
    roles = ("src",)

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Flag per-iteration allocation in registered hot paths."""
        if context.module is None:
            return
        prefix = context.module + "."
        if not any(key.startswith(prefix) for key in HOT_PATHS):
            return
        for qualname, function in _walk_functions(context.tree,
                                                  context.module):
            if qualname not in HOT_PATHS:
                continue
            for node, kind in _loop_body_offenders(function):
                yield context.finding(
                    self, node,
                    f"{kind} inside a loop of hot path {qualname!r} "
                    f"({HOT_PATHS[qualname]}) — hoist it out of the "
                    f"loop")


def _walk_functions(tree: ast.Module,
                    module: str) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(dotted qualname, node)`` for every function in a module."""
    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield qual, child
                yield from walk(child, qual)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _loop_body_offenders(
        function: ast.FunctionDef) -> Iterator[Tuple[ast.AST, str]]:
    """Offending nodes inside any loop body of ``function``, deduplicated."""
    seen: Set[int] = set()
    for loop in ast.walk(function):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for statement in list(loop.body) + list(loop.orelse):
            for node in ast.walk(statement):
                if id(node) in seen:
                    continue
                kind = _offender_kind(node)
                if kind is not None:
                    seen.add(id(node))
                    yield node, kind


def _offender_kind(node: ast.AST) -> Optional[str]:
    """Classify one AST node as a hot-loop offender, if it is one."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return "comprehension"
    if isinstance(node, ast.Lambda):
        return "lambda definition"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _DYNAMIC_CALLS:
        return f"dynamic access {node.func.id}()"
    return None
