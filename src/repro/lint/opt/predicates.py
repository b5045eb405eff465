"""Selection pushdown: hoist a mapper's filter guard into the reader.

Manimal's selection benefit comes from evaluating a record filter
*before* the record is materialized for user code.  This module proves
a mapper's leading guard structure is a pure function of the raw input
line and mirrors it, statement by statement, into a standalone
predicate (compiled by :class:`repro.io.prefilter.RecordPredicate`):

* ``if C: return`` guards (body is a bare return) become
  ``if C': return False`` — the mapper provably emits nothing for
  records matching ``C``.
* Pure straight-line assignments (``line = value.value``, tuple
  unpacks of ``line.split(...)``) are copied through so later guards
  can reference them.  Tuple unpacks gain an arity check that *keeps*
  the record on mismatch, because the real mapper would raise there
  and the optimized job must fail identically.
* A terminal ``if C: ...`` (the mapper's only remaining statement)
  becomes ``return C'``: when ``C`` is falsy nothing in its body runs,
  so no record can be emitted and skipping is sound regardless of what
  the body does.

Everything else stops the scan.  Guards collected before the stop are
still sound — they precede any statement that could emit — so partial
hoisting is allowed; a scan that stops before finding any guard
rejects with the stopping statement's anchor.

Purity is enforced by a whitelist: constants, names bound inside the
mirrored prefix, ``value.value`` (the raw line), probed ``self``
constants, arithmetic/boolean/comparison operators, subscripts, and
calls to unshadowed safe builtins or string methods.  A predicate that
raises at runtime keeps the record (see ``PreFilteredTextInput``), so
even a mirrored expression that can fail — ``int(rank)`` on garbage —
fails in the mapper exactly as the unoptimized job would.
"""

from __future__ import annotations

import ast
import builtins
from typing import Any, Callable

from ...engine.inputformat import TextInput
from ...io.prefilter import PREDICATE_FN_NAME
from ..rules.base import local_names, self_attribute_writes
from ..source import ClassSource, method_params, positional_params
from ..target import JobTarget
from .plan import ACTION_ADVISED, ACTION_REJECTED, ACTION_SKIPPED, OPT_SELECT, PlanDecision

#: String methods that are pure functions of their receiver + args.
_STRING_METHODS = frozenset(
    {
        "split", "rsplit", "partition", "rpartition",
        "startswith", "endswith", "strip", "lstrip", "rstrip",
        "lower", "upper", "casefold", "swapcase", "title",
        "find", "rfind", "count", "replace",
        "isdigit", "isalpha", "isalnum", "isspace",
    }
)

#: Builtins safe to mirror (pure, deterministic, no I/O).
_SAFE_BUILTINS = frozenset(
    {"int", "float", "str", "bool", "len", "abs", "min", "max", "ord", "round"}
)

#: Types a ``self`` attribute may have to be inlined as a constant.
_PROBE_TYPES = (bool, int, float, str)


class Unsupported(Exception):
    """A construct the mirror cannot prove pure; carries its anchor."""

    def __init__(self, reason: str, node: ast.AST | None = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.node = node


class _ExprMirror:
    """Rebuilds an expression over the raw line, or raises Unsupported."""

    def __init__(
        self,
        line_param: str,
        self_name: str,
        key_name: str,
        value_name: str,
        bound: set,
        namespace: dict,
        probe: Callable[[str, ast.AST], Any],
    ) -> None:
        self.line_param = line_param
        self.self_name = self_name
        self.key_name = key_name
        self.value_name = value_name
        self.bound = bound  # live view: the statement scan adds to it
        self.namespace = namespace
        self.probe = probe

    def convert(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant):
            return ast.Constant(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.bound:
                return ast.Name(node.id, ast.Load())
            if node.id in (self.value_name, self.key_name):
                raise Unsupported(
                    f"raw writable {node.id!r} used directly (only "
                    f"{self.value_name}.value, the line text, is mirrorable)",
                    node,
                )
            raise Unsupported(
                f"{node.id!r} is not derived from the input line", node
            )
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == self.value_name
                and node.attr == "value"
            ):
                return ast.Name(self.line_param, ast.Load())
            if isinstance(node.value, ast.Name) and node.value.id == self.self_name:
                return ast.Constant(self.probe(node.attr, node))
            raise Unsupported("attribute access is not a pure line function", node)
        if isinstance(node, ast.BoolOp):
            return ast.BoolOp(node.op, [self.convert(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.Not, ast.USub, ast.UAdd, ast.Invert)):
                return ast.UnaryOp(node.op, self.convert(node.operand))
            raise Unsupported("unsupported unary operator", node)
        if isinstance(node, ast.BinOp):
            if isinstance(
                node.op,
                (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow),
            ):
                return ast.BinOp(self.convert(node.left), node.op, self.convert(node.right))
            raise Unsupported("unsupported binary operator", node)
        if isinstance(node, ast.Compare):
            return ast.Compare(
                self.convert(node.left),
                list(node.ops),
                [self.convert(c) for c in node.comparators],
            )
        if isinstance(node, ast.IfExp):
            return ast.IfExp(
                self.convert(node.test), self.convert(node.body), self.convert(node.orelse)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            elts = [self.convert(e) for e in node.elts]
            if isinstance(node, ast.Tuple):
                return ast.Tuple(elts, ast.Load())
            if isinstance(node, ast.List):
                return ast.List(elts, ast.Load())
            return ast.Set(elts)
        if isinstance(node, ast.Subscript):
            if not isinstance(node.ctx, ast.Load):
                raise Unsupported("subscript store in expression", node)
            return ast.Subscript(
                self.convert(node.value), self._convert_slice(node.slice), ast.Load()
            )
        if isinstance(node, ast.Call):
            return self._convert_call(node)
        raise Unsupported(
            f"unsupported expression ({type(node).__name__})", node
        )

    def _convert_slice(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Slice):
            parts = [
                None if part is None else self.convert(part)
                for part in (node.lower, node.upper, node.step)
            ]
            return ast.Slice(*parts)
        return self.convert(node)

    def _convert_call(self, node: ast.Call) -> ast.expr:
        if node.keywords:
            raise Unsupported("keyword arguments are not mirrored", node)
        args = [self.convert(a) for a in node.args]
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr not in _STRING_METHODS:
                raise Unsupported(f"method .{func.attr}() is not a known pure string method", node)
            return ast.Call(
                ast.Attribute(self.convert(func.value), func.attr, ast.Load()), args, []
            )
        if isinstance(func, ast.Name):
            if func.id not in _SAFE_BUILTINS:
                raise Unsupported(f"call to {func.id}() is not a safe builtin", node)
            real = getattr(builtins, func.id)
            if self.namespace.get(func.id, real) is not real:
                raise Unsupported(f"{func.id!r} is shadowed in the mapper's module", node)
            return ast.Call(ast.Name(func.id, ast.Load()), args, [])
        raise Unsupported("indirect call is not mirrorable", node)


def _make_prober(target: JobTarget, source: ClassSource) -> Callable[[str, ast.AST], Any]:
    """Inline ``self.<attr>`` reads as constants probed from a fresh
    mapper instance.  Probes twice with two instances and requires the
    values to agree — a cheap tripwire for nondeterministic factories.
    Rejected outright when the mapper overrides ``setup()``, which may
    rebind attributes between construction and ``map()``."""
    has_setup = source.method("setup") is not None
    cache: dict[str, Any] = {}
    instances: list = []

    def probe(attr: str, node: ast.AST) -> Any:
        if has_setup:
            raise Unsupported(
                f"self.{attr} read in map() but the mapper overrides setup(), "
                "which may rebind attributes before map() runs",
                node,
            )
        if attr in cache:
            return cache[attr]
        if not instances:
            try:
                instances.extend((target.job.mapper_factory(), target.job.mapper_factory()))
            except Exception as exc:  # noqa: BLE001 - probing arbitrary user factories
                raise Unsupported(f"mapper factory failed during constant probe: {exc}", node)
        try:
            first, second = (getattr(inst, attr) for inst in instances)
        except AttributeError:
            raise Unsupported(f"self.{attr} is not set at construction time", node)
        if type(first) not in _PROBE_TYPES or first != second:
            raise Unsupported(
                f"self.{attr} is not a stable {'/'.join(t.__name__ for t in _PROBE_TYPES)}"
                " constant",
                node,
            )
        cache[attr] = first
        return first

    return probe


def _is_bare_return(body: list) -> bool:
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and (
            body[0].value is None
            or (isinstance(body[0].value, ast.Constant) and body[0].value.value is None)
        )
    )


def detect_selection(target: JobTarget) -> tuple:
    """Returns ``(predicate_source | None, PlanDecision)``."""

    def rejected(reason: str, node: ast.AST | None = None, source: ClassSource | None = None):
        file, line = "", 0
        if node is not None and source is not None:
            file, line = source.file, getattr(node, "lineno", 0)
        return None, PlanDecision(OPT_SELECT, ACTION_REJECTED, reason, file=file, line=line)

    def skipped(reason: str):
        return None, PlanDecision(OPT_SELECT, ACTION_SKIPPED, reason)

    job = target.job
    if not isinstance(job.input_format, TextInput):
        return skipped(
            f"input format {type(job.input_format).__name__} is not a plain TextInput"
        )
    mapper = target.mapper
    if not mapper.analyzable:
        return skipped("mapper source is not analyzable")
    source = mapper.source
    assert source is not None
    func = source.method("map")
    if func is None:
        return skipped("mapper inherits map(); nothing to mirror here")
    cleanup = source.method("cleanup")
    if cleanup is not None:
        return rejected(
            "mapper overrides cleanup(), which can emit independently of "
            "per-record guards",
            cleanup,
            source,
        )
    writes = list(self_attribute_writes(func))
    if writes:
        node, attr = writes[0]
        return rejected(
            f"map() writes self.{attr}; per-record state can change the "
            "guard's meaning between records",
            node,
            source,
        )

    params = positional_params(func)
    self_name = params[0] if params else "self"
    key_name, value_name, emit_name = method_params(func)

    taken = set(local_names(func)) | set(params)
    line_param = "_line"
    while line_param in taken:
        line_param += "_"

    bound: set = set()
    mirror = _ExprMirror(
        line_param,
        self_name,
        key_name,
        value_name,
        bound,
        source.namespace,
        _make_prober(target, source),
    )

    body = func.body
    start = 0
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        start = 1  # docstring

    gen: list = []
    guards = 0
    terminal = False
    parts_counter = 0
    stopped: Unsupported | None = None
    try:
        for idx in range(start, len(body)):
            stmt = body[idx]
            if isinstance(stmt, ast.If) and not stmt.orelse and _is_bare_return(stmt.body):
                cond = mirror.convert(stmt.test)
                gen.append(ast.If(cond, [ast.Return(ast.Constant(False))], []))
                guards += 1
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                tgt = stmt.targets[0]
                if isinstance(tgt, ast.Name):
                    gen.append(
                        ast.Assign([ast.Name(tgt.id, ast.Store())], mirror.convert(stmt.value))
                    )
                    bound.add(tgt.id)
                    continue
                if isinstance(tgt, ast.Tuple) and all(
                    isinstance(e, ast.Name) for e in tgt.elts
                ):
                    rhs = mirror.convert(stmt.value)
                    tmp = f"_parts{parts_counter}"
                    parts_counter += 1
                    names = [e.id for e in tgt.elts]
                    gen.append(ast.Assign([ast.Name(tmp, ast.Store())], rhs))
                    # An arity mismatch raises in the real mapper, so the
                    # record must be KEPT for the mapper to raise on it.
                    gen.append(
                        ast.If(
                            ast.Compare(
                                ast.Call(
                                    ast.Name("len", ast.Load()),
                                    [ast.Name(tmp, ast.Load())],
                                    [],
                                ),
                                [ast.NotEq()],
                                [ast.Constant(len(names))],
                            ),
                            [ast.Return(ast.Constant(True))],
                            [],
                        )
                    )
                    gen.append(
                        ast.Assign(
                            [
                                ast.Tuple(
                                    [ast.Name(n, ast.Store()) for n in names], ast.Store()
                                )
                            ],
                            ast.Name(tmp, ast.Load()),
                        )
                    )
                    bound.add(tmp)
                    bound.update(names)
                    continue
                raise Unsupported("assignment target is not a name or name tuple", stmt)
            if idx == len(body) - 1 and isinstance(stmt, ast.If) and not stmt.orelse:
                # Terminal guarded block: when the condition is falsy
                # nothing inside runs, so the record provably emits
                # nothing — the body itself need not be analyzed.
                gen.append(ast.Return(mirror.convert(stmt.test)))
                terminal = True
                continue
            raise Unsupported(
                f"statement is not a hoistable guard or pure assignment "
                f"({type(stmt).__name__})",
                stmt,
            )
    except Unsupported as stop:
        stopped = stop

    if guards == 0 and not terminal:
        if stopped is not None:
            return rejected(
                f"no filter guard to hoist: {stopped.reason}", stopped.node, source
            )
        return rejected("mapper has no filter guard to hoist", func, source)

    if not terminal:
        gen.append(ast.Return(ast.Constant(True)))

    fn = ast.FunctionDef(
        name=PREDICATE_FN_NAME,
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg=line_param)],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        ),
        body=gen,
        decorator_list=[],
        returns=None,
    )
    module = ast.Module(body=[fn], type_ignores=[])
    ast.fix_missing_locations(module)
    predicate_source = ast.unparse(module)
    try:
        compile(predicate_source, "<repro.lint.opt predicate>", "exec")
    except SyntaxError as exc:  # pragma: no cover - mirror bug tripwire
        return rejected(f"generated predicate does not compile: {exc}", func, source)

    hoisted = f"{guards} guard(s)" if guards else "the emit condition"
    if guards and terminal:
        hoisted = f"{guards} guard(s) and the terminal emit condition"
    return predicate_source, PlanDecision(
        OPT_SELECT,
        ACTION_ADVISED,
        f"hoisted {hoisted} into a record-reader pre-filter",
        file=source.file,
        line=func.lineno,
        detail=" ".join(predicate_source.split()),
    )
