"""Lightweight intraprocedural dataflow over array facts.

The shape and unit rules (SHAPE001, UNIT001) both need the same thing: an
approximation of what each local variable holds — its array *shape* (a
tuple of literal ints and symbolic dimension names) and its power *unit*
domain (``db`` vs ``linear``).  This module computes those facts
with a forward pass over each function body — assignments, calls,
``einsum``/``reshape``/``transpose``, subscripts, branches — and records
every interesting intermediate step as an *event* the rules pattern-match.

Design constraints, in order:

1. **No false certainty.**  Whenever two branches disagree, a call is not
   understood, or indexing is advanced, the fact degrades to *unknown*
   (``None``).  Rules only fire on facts the pass actually proved.
2. **Module-local summaries.**  A call to a function defined in the same
   module (``self._modulate_block(...)``) uses that function's analysed
   return fact, so a declared shape survives one hop of refactoring into
   helpers.  Nothing crosses module boundaries.
3. **One pass per file.**  The analysis runs once per module and caches
   its event log on the :class:`~repro_lint.core.FileContext`; every rule
   reads the same log.

Shape contracts are declared with the runtime
:func:`repro.contracts.shaped` decorator; this module re-implements the
small contract grammar (``"(n_rx, n_symbols, fft_size)"`` with ``_``
single-dim wildcards, ``...`` rank wildcards and ``|`` alternatives) so
fixtures can be linted without importing the runtime package — a test
asserts the two parsers agree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro_lint.names import ImportMap, dotted_name, resolve

# A dimension is a literal int, a symbolic name (the source text of the
# expression that produced it), or None (unknown).
Dim = Union[int, str, None]
# A shape is a tuple of dims, or None when even the rank is unknown.
Shape = Optional[Tuple[Dim, ...]]


@dataclass(frozen=True)
class Fact:
    """What the pass knows about one value.  ``None`` fields mean unknown."""

    shape: Shape = None
    #: "db" | "linear" | None.
    unit: Optional[str] = None

    @property
    def rank(self) -> Optional[int]:
        return None if self.shape is None else len(self.shape)

    def merged(self, other: "Fact") -> "Fact":
        """Join of two control-flow paths: keep only what both agree on."""
        return Fact(
            shape=self.shape if self.shape == other.shape else None,
            unit=self.unit if self.unit == other.unit else None,
        )


UNKNOWN = Fact()
SCALAR = Fact(shape=())


# ----------------------------------------------------------------------
# Shape-contract grammar (mirrors repro.contracts.parse_contract)
# ----------------------------------------------------------------------

#: One parsed alternative: a tuple of dims where ``None`` is the ``_``
#: wildcard and ``Ellipsis`` matches any run of dimensions.
ContractAlternative = Tuple[object, ...]


def parse_contract(text: str) -> Tuple[ContractAlternative, ...]:
    """Parse a shape-contract string into its alternatives.

    ``"(n_rx, fft_size)"`` -> one alternative; ``"(a,) | (a, b)"`` -> two.
    Raises ``ValueError`` on malformed contracts (the runtime decorator
    raises the same way, so a bad contract fails loudly in both worlds).
    """
    alternatives = []
    for part in text.split("|"):
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"shape contract {text!r}: alternative {part!r} "
                             "must be parenthesised, e.g. '(n_rx, n_samples)'")
        inner = part[1:-1].strip()
        dims: List[object] = []
        if inner:
            for token in inner.split(","):
                token = token.strip()
                if not token:
                    continue
                if token == "...":
                    dims.append(Ellipsis)
                elif token == "_":
                    dims.append(None)
                elif token.lstrip("+-").isdigit():
                    dims.append(int(token))
                elif token.isidentifier():
                    dims.append(token)
                else:
                    raise ValueError(
                        f"shape contract {text!r}: bad dimension {token!r}"
                    )
        if dims.count(Ellipsis) > 1:
            raise ValueError(f"shape contract {text!r}: at most one '...'")
        alternatives.append(tuple(dims))
    if not alternatives:
        raise ValueError(f"shape contract {text!r} declares no alternative")
    return tuple(alternatives)


@dataclass(frozen=True)
class ShapeContract:
    """The parsed ``@shaped`` contract of one function."""

    qualname: str
    #: parameter name -> alternatives (the special key "return" holds the
    #: declared return contract, when any).
    params: Dict[str, Tuple[ContractAlternative, ...]]
    #: The FunctionDef's positional parameter names (without self/cls).
    arg_names: Tuple[str, ...]
    node: ast.AST = field(compare=False, default=None)


def _contract_from_decorator(call: ast.Call) -> Dict[str, Tuple[ContractAlternative, ...]]:
    """Extract ``{param: alternatives}`` from a ``@shaped(...)`` call node."""
    contracts: Dict[str, Tuple[ContractAlternative, ...]] = {}
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            contracts["return"] = parse_contract(first.value)
    for keyword in call.keywords:
        if keyword.arg is None:
            continue
        value = keyword.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            key = "return" if keyword.arg == "returns" else keyword.arg
            contracts[key] = parse_contract(value.value)
    return contracts


def _is_shaped_decorator(node: ast.AST) -> Optional[ast.Call]:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name and name.split(".")[-1] == "shaped":
            return node
    return None


def match_alternative(
    alternative: ContractAlternative,
    shape: Tuple[Dim, ...],
    bindings: Dict[str, Dim],
) -> Optional[str]:
    """Match one contract alternative against a known shape.

    Returns ``None`` on success (updating ``bindings`` with newly-bound
    contract names) or a human-readable reason string on mismatch.
    Symbolic fact dims are compatible with anything except a conflicting
    *literal* binding — the pass never guesses that two different symbols
    are unequal.
    """
    if Ellipsis in alternative:
        cut = alternative.index(Ellipsis)
        head, tail = alternative[:cut], alternative[cut + 1:]
        if len(shape) < len(head) + len(tail):
            return (
                f"rank {len(shape)} is smaller than the contract's "
                f"{len(head) + len(tail)} fixed dimensions"
            )
        pairs = list(zip(head, shape[: len(head)]))
        if tail:
            pairs += list(zip(tail, shape[-len(tail):]))
    else:
        if len(shape) != len(alternative):
            return f"rank {len(shape)} != contract rank {len(alternative)}"
        pairs = list(zip(alternative, shape))
    for spec, dim in pairs:
        if spec is None:
            continue
        if isinstance(spec, int):
            if isinstance(dim, int) and dim != spec:
                return f"dimension {dim} != contract literal {spec}"
            continue
        # A named contract dimension: bind on first sight, then require
        # later sights to be consistent with the binding where decidable.
        bound = bindings.get(spec)
        if bound is None:
            if dim is not None:
                bindings[spec] = dim
        elif (
            isinstance(bound, int)
            and isinstance(dim, int)
            and bound != dim
        ):
            return (
                f"contract dimension '{spec}' bound to both {bound} and {dim}"
            )
    return None


def match_contract(
    alternatives: Tuple[ContractAlternative, ...],
    shape: Tuple[Dim, ...],
    bindings: Dict[str, Dim],
) -> Optional[str]:
    """Match a shape against any alternative; None on success."""
    reasons = []
    for alternative in alternatives:
        trial = dict(bindings)
        reason = match_alternative(alternative, shape, trial)
        if reason is None:
            bindings.update(trial)
            return None
        reasons.append(reason)
    return "; ".join(reasons)


def format_alternatives(alternatives: Tuple[ContractAlternative, ...]) -> str:
    def one(alt: ContractAlternative) -> str:
        parts = []
        for dim in alt:
            if dim is Ellipsis:
                parts.append("...")
            elif dim is None:
                parts.append("_")
            else:
                parts.append(str(dim))
        return "(" + ", ".join(parts) + ")"

    return " | ".join(one(alt) for alt in alternatives)


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BinOpEvent:
    node: ast.BinOp
    left: Fact
    right: Fact
    func: str


@dataclass(frozen=True)
class CallEvent:
    node: ast.Call
    canonical: Optional[str]
    arg_facts: Tuple[Fact, ...]
    kw_facts: Dict[str, Fact]
    func: str


@dataclass(frozen=True)
class EinsumEvent:
    node: ast.Call
    spec: str
    operands: Tuple[Fact, ...]
    func: str


@dataclass(frozen=True)
class ShapedCallEvent:
    """A call to a function carrying a ``@shaped`` contract."""

    node: ast.Call
    contract: ShapeContract
    #: parameter name -> (argument node, fact) for arguments we could bind.
    bound: Dict[str, Tuple[ast.AST, Fact]]
    func: str


@dataclass(frozen=True)
class UnpackEvent:
    """``a, b, c = x.shape`` — arity vs the known rank of ``x``."""

    node: ast.AST
    n_targets: int
    fact: Fact
    func: str


@dataclass
class EventLog:
    binops: List[BinOpEvent] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    einsums: List[EinsumEvent] = field(default_factory=list)
    shaped_calls: List[ShapedCallEvent] = field(default_factory=list)
    unpacks: List[UnpackEvent] = field(default_factory=list)


# ----------------------------------------------------------------------
# Naming conventions (the unit domain is carried by names)
# ----------------------------------------------------------------------

#: Names that denote linear-domain power quantities without a suffix.
LINEAR_NAMES = frozenset(
    {
        "noise_variance",
        "noise_power",
        "signal_power",
        "variance",
        "power",
        "snr_linear",
    }
)

#: Sanctioned conversion callables (matched on the last dotted segment).
DB_TO_LINEAR_CONVERTERS = frozenset({"db_to_linear", "amplitude_db_to_gain"})
LINEAR_TO_DB_CONVERTERS = frozenset({"linear_to_db"})
#: Calls producing a linear-domain quantity by construction.
LINEAR_PRODUCERS = frozenset({"noise_variance_for_snr", "occupied_power"})


def unit_from_name(name: str) -> Optional[str]:
    """The unit domain a bare name advertises, if any."""
    if name.endswith("_db"):
        return "db"
    if name.endswith("_linear") or name in LINEAR_NAMES:
        return "linear"
    return None


#: numpy constructors whose first argument is the shape.
_SHAPE_CTORS = frozenset({"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"})
#: numpy functions that preserve their first argument's fact wholesale.
_ELEMENTWISE = frozenset(
    {
        "numpy.exp",
        "numpy.conj",
        "numpy.conjugate",
        "numpy.sqrt",
        "numpy.ascontiguousarray",
        "numpy.copy",
    }
)


def _dim_of(node: ast.AST) -> Dim:
    """A shape-tuple element as a dim: literal int, symbol, or unknown."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _dim_of(node.operand)
        return -inner if isinstance(inner, int) else None
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        return name
    return None


def _shape_from_arg(node: ast.AST) -> Shape:
    """Shape from a constructor's shape argument (tuple/list/scalar)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(_dim_of(element) for element in node.elts)
    dim = _dim_of(node)
    if dim is None:
        return None
    return (dim,)


def _broadcast(left: Shape, right: Shape) -> Shape:
    if left is None or right is None:
        return None
    if len(left) < len(right):
        left, right = right, left
    offset = len(left) - len(right)
    dims: List[Dim] = list(left[:offset])
    for a, b in zip(left[offset:], right):
        if a == b:
            dims.append(a)
        elif b == 1:
            dims.append(a)
        elif a == 1:
            dims.append(b)
        elif isinstance(a, int) and isinstance(b, int):
            # Incompatible literal dims: broadcasting would raise at
            # runtime.  Degrade to unknown; SHAPE001 reports via events.
            dims.append(None)
        else:
            dims.append(None)
    return tuple(dims)


def _combine_unit(op: ast.operator, left: Optional[str], right: Optional[str]) -> Optional[str]:
    if isinstance(op, (ast.Add, ast.Sub)):
        if left == right:
            return left
        if left is None:
            return right
        if right is None:
            return left
        return None
    if isinstance(op, (ast.Mult, ast.Div)):
        if left == "linear" and right in (None, "linear"):
            return "linear" if right == "linear" else None
        return None
    return None


# ----------------------------------------------------------------------
# The analysis itself
# ----------------------------------------------------------------------

class ModuleDataflow:
    """One module's forward dataflow pass and its event log."""

    def __init__(self, tree: ast.AST, imports: Optional[ImportMap] = None) -> None:
        self.tree = tree
        self.imports = imports if imports is not None else ImportMap(tree)
        self.events = EventLog()
        #: (class or "", function name) -> FunctionDef
        self.functions: Dict[Tuple[str, str], ast.AST] = {}
        #: (class or "", function name) -> ShapeContract
        self.contracts: Dict[Tuple[str, str], ShapeContract] = {}
        self._summaries: Dict[Tuple[str, str], Fact] = {}
        self._in_progress: set = set()
        self._collect()

    # -- collection ----------------------------------------------------

    def _collect(self) -> None:
        def visit(node: ast.AST, classname: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = (classname, child.name)
                    self.functions[key] = child
                    contract = self._contract_of(child, classname)
                    if contract is not None:
                        self.contracts[key] = contract
                    # Nested defs are analysed standalone, without outer env.
                    visit(child, classname)
                else:
                    visit(child, classname)

        visit(self.tree, "")

    def _contract_of(self, func: ast.AST, classname: str) -> Optional[ShapeContract]:
        for decorator in func.decorator_list:
            call = _is_shaped_decorator(decorator)
            if call is None:
                continue
            try:
                params = _contract_from_decorator(call)
            except ValueError:
                return None  # malformed contracts fail at runtime import
            args = [a.arg for a in func.args.posonlyargs + func.args.args]
            if classname and args and args[0] in ("self", "cls"):
                args = args[1:]
            qual = f"{classname}.{func.name}" if classname else func.name
            return ShapeContract(
                qualname=qual, params=params, arg_names=tuple(args), node=func
            )
        return None

    # -- public driver -------------------------------------------------

    def run(self) -> EventLog:
        """Analyse every function (plus module level) once; return events."""
        for key in list(self.functions):
            self._summary(key)
        env: Dict[str, Fact] = {}
        self._exec_block(list(ast.iter_child_nodes(self.tree)), env, "<module>")
        return self.events

    # -- function summaries --------------------------------------------

    def _summary(self, key: Tuple[str, str]) -> Fact:
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return UNKNOWN  # recursion: no summary
        func = self.functions.get(key)
        if func is None:
            return UNKNOWN
        self._in_progress.add(key)
        try:
            fact = self._analyze_function(key, func)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = fact
        return fact

    def _param_fact(self, name: str, annotation: Optional[ast.AST],
                    contract: Optional[ShapeContract]) -> Fact:
        shape: Shape = None
        if contract is not None and name in contract.params:
            alternatives = contract.params[name]
            if len(alternatives) == 1 and Ellipsis not in alternatives[0]:
                shape = tuple(
                    dim if isinstance(dim, int) else
                    (dim if isinstance(dim, str) else None)
                    for dim in alternatives[0]
                )
        return Fact(shape=shape, unit=unit_from_name(name))

    def _analyze_function(self, key: Tuple[str, str], func: ast.AST) -> Fact:
        classname, name = key
        qual = f"{classname}.{name}" if classname else name
        contract = self.contracts.get(key)
        env: Dict[str, Fact] = {}
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            env[arg.arg] = self._param_fact(arg.arg, arg.annotation, contract)
        # Lazy summaries may re-enter here for a callee mid-analysis;
        # save and restore the per-function state around the body walk.
        prev_returns = getattr(self, "_returns", None)
        prev_classname = getattr(self, "_classname", "")
        self._returns: List[Tuple[ast.AST, Fact]] = []
        self._classname = classname
        try:
            self._exec_block(func.body, env, qual)
            facts = tuple(self._returns)
        finally:
            self._classname = prev_classname
            if prev_returns is None:
                delattr(self, "_returns")
            else:
                self._returns = prev_returns
        summary = UNKNOWN
        if facts:
            summary = facts[0][1]
            for _, fact in facts[1:]:
                summary = summary.merged(fact)
        # The declared return contract beats the body analysis for shape.
        if contract is not None and "return" in contract.params:
            alternatives = contract.params["return"]
            if len(alternatives) == 1 and Ellipsis not in alternatives[0]:
                shape = tuple(
                    dim if isinstance(dim, (int, str)) else None
                    for dim in alternatives[0]
                )
                summary = Fact(shape=shape, unit=summary.unit)
        return summary

    # -- statements ----------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt], env: Dict[str, Fact],
                    funcname: str) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, funcname)

    def _exec_stmt(self, stmt: ast.stmt, env: Dict[str, Fact], funcname: str) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analysed separately
        if isinstance(stmt, ast.Assign):
            fact = self._eval(stmt.value, env, funcname)
            for target in stmt.targets:
                self._assign(target, stmt.value, fact, env, funcname)
        elif isinstance(stmt, ast.AnnAssign):
            fact = UNKNOWN
            if stmt.value is not None:
                fact = self._eval(stmt.value, env, funcname)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = fact
        elif isinstance(stmt, ast.AugAssign):
            left = self._eval(stmt.target, env, funcname)
            right = self._eval(stmt.value, env, funcname)
            binop = ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value)
            ast.copy_location(binop, stmt)
            self.events.binops.append(
                BinOpEvent(node=binop, left=left, right=right, func=funcname)
            )
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = Fact(
                    shape=_broadcast(left.shape, right.shape),
                    unit=_combine_unit(stmt.op, left.unit, right.unit),
                )
        elif isinstance(stmt, ast.Return):
            fact = UNKNOWN
            if stmt.value is not None:
                fact = self._eval(stmt.value, env, funcname)
            if hasattr(self, "_returns"):
                self._returns.append((stmt, fact))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env, funcname)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env, funcname)
            then_env = dict(env)
            self._exec_block(stmt.body, then_env, funcname)
            else_env = dict(env)
            self._exec_block(stmt.orelse, else_env, funcname)
            self._merge_into(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env, funcname)
            body_env = dict(env)
            for name in _names_of(stmt.target):
                body_env[name] = UNKNOWN
            self._exec_block(stmt.body, body_env, funcname)
            self._exec_block(stmt.orelse, body_env, funcname)
            self._merge_into(env, env, body_env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env, funcname)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env, funcname)
            self._exec_block(stmt.orelse, body_env, funcname)
            self._merge_into(env, env, body_env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(stmt.body, body_env, funcname)
            merged = dict(env)
            self._merge_into(merged, env, body_env)
            for handler in stmt.handlers:
                handler_env = dict(merged)
                self._exec_block(handler.body, handler_env, funcname)
                self._merge_into(merged, merged, handler_env)
            env.clear()
            env.update(merged)
            self._exec_block(stmt.orelse, env, funcname)
            self._exec_block(stmt.finalbody, env, funcname)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env, funcname)
                if item.optional_vars is not None:
                    for name in _names_of(item.optional_vars):
                        env[name] = UNKNOWN
            self._exec_block(stmt.body, env, funcname)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env, funcname)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env, funcname)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env[name] = UNKNOWN

    @staticmethod
    def _merge_into(env: Dict[str, Fact], a: Dict[str, Fact], b: Dict[str, Fact]) -> None:
        merged = {}
        for name in set(a) | set(b):
            merged[name] = a.get(name, UNKNOWN).merged(b.get(name, UNKNOWN))
        env.clear()
        env.update(merged)

    def _assign(self, target: ast.AST, value_node: ast.AST, fact: Fact,
                env: Dict[str, Fact], funcname: str) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = fact
        elif isinstance(target, ast.Subscript):
            self._eval(target.value, env, funcname)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # ``a, b, c = x.shape`` — the load-bearing unpack: it both
            # checks a known rank and *infers* an unknown one.
            if (
                isinstance(value_node, ast.Attribute)
                and value_node.attr == "shape"
            ):
                source = self._eval(value_node.value, env, funcname)
                n = len(target.elts)
                if source.shape is not None and len(source.shape) != n:
                    self.events.unpacks.append(
                        UnpackEvent(node=target, n_targets=n, fact=source,
                                    func=funcname)
                    )
                elif source.shape is None and isinstance(value_node.value, ast.Name):
                    names = tuple(
                        element.id if isinstance(element, ast.Name) else None
                        for element in target.elts
                    )
                    env[value_node.value.id] = Fact(shape=names, unit=source.unit)
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        env[element.id] = SCALAR
                return
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                for element, val in zip(target.elts, value_node.elts):
                    self._assign(element, val, self._eval(val, env, funcname),
                                 env, funcname)
                return
            for name in _names_of(target):
                env[name] = UNKNOWN
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value_node, UNKNOWN, env, funcname)
        # Attribute targets (self.x = ...) are out of scope.

    # -- expressions ---------------------------------------------------

    def _eval(self, node: ast.AST, env: Dict[str, Fact], funcname: str) -> Fact:
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return Fact(unit=unit_from_name(node.id))
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex)) and not isinstance(
                node.value, bool
            ):
                return SCALAR
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, env, funcname)
            if node.attr == "T":
                shape = None if base.shape is None else tuple(reversed(base.shape))
                return Fact(shape=shape, unit=base.unit)
            if node.attr in ("real", "imag"):
                return Fact(shape=base.shape, unit=base.unit)
            return Fact(unit=unit_from_name(node.attr))
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env, funcname)
            right = self._eval(node.right, env, funcname)
            self.events.binops.append(
                BinOpEvent(node=node, left=left, right=right, func=funcname)
            )
            return Fact(
                shape=_broadcast(left.shape, right.shape),
                unit=_combine_unit(node.op, left.unit, right.unit),
            )
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env, funcname)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, funcname)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env, funcname)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env, funcname)
            return self._eval(node.body, env, funcname).merged(
                self._eval(node.orelse, env, funcname)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                self._eval(child, env, funcname)
            return UNKNOWN
        if isinstance(node, (ast.BoolOp, ast.Compare)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env, funcname)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, funcname)
        return UNKNOWN

    def _method_call_base(self, func: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        """(base expression, method name) of an ``x.m(...)`` call."""
        if isinstance(func, ast.Attribute):
            return func.value, func.attr
        return None

    def _resolve_local(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """Key of a same-module function this call targets, if any."""
        if isinstance(func, ast.Name):
            key = ("", func.id)
            if key in self.functions:
                return key
            # An unqualified reference to a method of the enclosing class
            # (rare) is not resolved.
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in ("self", "cls"):
                classname = getattr(self, "_classname", "")
                key = (classname, func.attr)
                if key in self.functions:
                    return key
        return None

    def _eval_call(self, node: ast.Call, env: Dict[str, Fact], funcname: str) -> Fact:
        arg_facts = tuple(self._eval(arg, env, funcname) for arg in node.args)
        kw_facts = {
            keyword.arg: self._eval(keyword.value, env, funcname)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        canonical = resolve(node.func, self.imports)
        self.events.calls.append(
            CallEvent(node=node, canonical=canonical, arg_facts=arg_facts,
                      kw_facts=kw_facts, func=funcname)
        )

        # Same-module functions: shaped-contract call sites + summaries.
        local = self._resolve_local(node.func)
        if local is not None:
            contract = self.contracts.get(local)
            if contract is not None:
                bound: Dict[str, Tuple[ast.AST, Fact]] = {}
                for position, arg in enumerate(node.args):
                    if position < len(contract.arg_names):
                        bound[contract.arg_names[position]] = (
                            arg, arg_facts[position]
                        )
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        bound[keyword.arg] = (
                            keyword.value, kw_facts[keyword.arg]
                        )
                self.events.shaped_calls.append(
                    ShapedCallEvent(node=node, contract=contract, bound=bound,
                                    func=funcname)
                )
            return self._summary(local)

        # Shape-transforming array methods.
        method = self._method_call_base(node.func)
        if method is not None:
            base_node, attr = method
            base = self._eval(base_node, env, funcname)
            if attr == "astype" and node.args:
                return Fact(shape=base.shape, unit=base.unit)
            if attr == "reshape":
                if len(node.args) == 1:
                    shape = _shape_from_arg(node.args[0])
                else:
                    shape = tuple(_dim_of(arg) for arg in node.args)
                return Fact(shape=_normalise_reshape(shape), unit=base.unit)
            if attr == "transpose":
                return Fact(shape=_transpose_shape(base.shape, node.args),
                            unit=base.unit)
            if attr in ("copy", "conj", "conjugate"):
                return base
            if attr in ("ravel", "flatten"):
                return Fact(shape=(None,), unit=base.unit)

        if canonical is None:
            return UNKNOWN
        tail = canonical.split(".")[-1]

        # Unit-domain producers and converters.
        if tail in DB_TO_LINEAR_CONVERTERS or tail in LINEAR_PRODUCERS:
            shape = arg_facts[0].shape if arg_facts else None
            return Fact(shape=shape, unit="linear")
        if tail in LINEAR_TO_DB_CONVERTERS:
            shape = arg_facts[0].shape if arg_facts else None
            return Fact(shape=shape, unit="db")

        # numpy surface.
        if canonical in _SHAPE_CTORS and node.args:
            return Fact(shape=_shape_from_arg(node.args[0]))
        if canonical in ("numpy.asarray", "numpy.array") and node.args:
            inner = arg_facts[0]
            return Fact(shape=inner.shape, unit=inner.unit)
        if canonical == "numpy.reshape" and node.args:
            inner = arg_facts[0]
            shape = _shape_from_arg(node.args[1]) if len(node.args) > 1 else None
            return Fact(shape=_normalise_reshape(shape), unit=inner.unit)
        if canonical == "numpy.transpose" and node.args:
            inner = arg_facts[0]
            return Fact(shape=_transpose_shape(inner.shape, node.args[1:]),
                        unit=inner.unit)
        if canonical == "numpy.broadcast_to" and len(node.args) > 1:
            return Fact(shape=_shape_from_arg(node.args[1]))
        if canonical == "numpy.eye":
            dim = _dim_of(node.args[0]) if node.args else None
            return Fact(shape=(dim, dim))
        if canonical == "numpy.arange":
            return Fact(shape=(None,))
        if canonical in _ELEMENTWISE and arg_facts:
            return arg_facts[0]
        if canonical == "numpy.abs" and arg_facts:
            return Fact(shape=arg_facts[0].shape, unit=arg_facts[0].unit)
        if canonical == "numpy.einsum" and node.args:
            spec_node = node.args[0]
            if isinstance(spec_node, ast.Constant) and isinstance(
                spec_node.value, str
            ):
                operands = arg_facts[1:]
                self.events.einsums.append(
                    EinsumEvent(node=node, spec=spec_node.value,
                                operands=operands, func=funcname)
                )
                return Fact(shape=_einsum_output_shape(spec_node.value, operands))
            return UNKNOWN
        return UNKNOWN

    def _eval_subscript(self, node: ast.Subscript, env: Dict[str, Fact],
                        funcname: str) -> Fact:
        # ``x.shape[i]`` is a scalar dimension.
        if isinstance(node.value, ast.Attribute) and node.value.attr == "shape":
            self._eval(node.value.value, env, funcname)
            return SCALAR
        base = self._eval(node.value, env, funcname)
        index = node.slice
        index_fact = self._eval(index, env, funcname)
        if base.shape is None:
            return Fact(unit=base.unit)
        items = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        dims: List[Dim] = list(base.shape)
        out: List[Dim] = []
        advanced = False
        saw_ellipsis = False
        position = 0
        for item in items:
            if isinstance(item, ast.Slice):
                if position < len(dims):
                    out.append(None)  # sliced extent unknown in general
                    position += 1
            elif isinstance(item, ast.Constant) and item.value is Ellipsis:
                saw_ellipsis = True
                remaining = len(dims) - position - sum(
                    1 for rest in items[items.index(item) + 1:]
                    if not (isinstance(rest, ast.Constant) and rest.value is None)
                )
                while position < remaining:
                    out.append(dims[position])
                    position += 1
            elif isinstance(item, ast.Constant) and isinstance(item.value, int):
                position += 1  # integer index drops the axis
            else:
                fact = self._eval(item, env, funcname)
                if fact.shape == () or (
                    isinstance(item, ast.Name) and fact.shape is None
                ):
                    position += 1  # scalar-ish index drops the axis
                else:
                    advanced = True
                    position += 1
        if advanced or saw_ellipsis and position > len(dims):
            return Fact(unit=base.unit)
        out.extend(dims[position:])
        return Fact(shape=tuple(out), unit=base.unit)


def _normalise_reshape(shape: Shape) -> Shape:
    if shape is None:
        return None
    return tuple(None if dim == -1 else dim for dim in shape)


def _transpose_shape(shape: Shape, axis_args: Sequence[ast.AST]) -> Shape:
    if shape is None:
        return None
    if not axis_args:
        return tuple(reversed(shape))
    if len(axis_args) == 1 and isinstance(axis_args[0], (ast.Tuple, ast.List)):
        axes = [_dim_of(element) for element in axis_args[0].elts]
    else:
        axes = [_dim_of(arg) for arg in axis_args]
    if len(axes) != len(shape) or any(not isinstance(a, int) for a in axes):
        return None
    try:
        return tuple(shape[a] for a in axes)
    except IndexError:
        return None


def parse_einsum_spec(spec: str) -> Optional[Tuple[List[str], Optional[str]]]:
    """Split an explicit einsum subscript into (input groups, output).

    Implicit-output or ellipsis specs return ``None`` — the pass only
    reasons about the fully explicit form.
    """
    if "..." in spec:
        return None
    spec = spec.replace(" ", "")
    if "->" in spec:
        inputs, output = spec.split("->", 1)
    else:
        inputs, output = spec, None
    groups = inputs.split(",")
    if any(not group.isalpha() for group in groups if group != ""):
        return None
    return groups, output


def _einsum_output_shape(spec: str, operands: Tuple[Fact, ...]) -> Shape:
    parsed = parse_einsum_spec(spec)
    if parsed is None:
        return None
    groups, output = parsed
    if output is None or len(groups) != len(operands):
        return None
    bindings: Dict[str, Dim] = {}
    for group, operand in zip(groups, operands):
        if operand.shape is None or len(operand.shape) != len(group):
            continue
        for letter, dim in zip(group, operand.shape):
            if bindings.get(letter) is None:
                bindings[letter] = dim
    return tuple(bindings.get(letter) for letter in output)


def _names_of(target: ast.AST) -> List[str]:
    names = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names


def analysis_of(ctx) -> EventLog:
    """The module's cached event log (runs the pass on first request)."""
    cached = getattr(ctx, "_dataflow_events", None)
    if cached is None:
        flow = ModuleDataflow(ctx.tree)
        cached = flow.run()
        ctx._dataflow_events = cached
    return cached
