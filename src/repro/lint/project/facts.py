"""Per-file fact extraction: the one parse of every linted file.

The engine never ships ASTs between processes.  Instead, each file is
parsed exactly once (possibly in a worker process) and reduced to a
:class:`ModuleFacts` record: its ``# reprolint: disable`` map, the
findings of the per-file AST rules (RP001–RP009, RP017, run on that same
tree and scoped by :func:`module_parts`), and a plain-dataclass summary of
everything the cross-module rules need — definitions, imports, call sites,
and the rule-specific "interesting events" (ambient RNG construction,
wall-clock reads, ``id()`` keying, unordered-set iteration, shared-state
mutation, contract calls, journal emit/read sites, job constructions).
Facts pickle cheaply, so the extraction fans out over a process pool and
the single-process aggregation step stays small.

Everything here is *approximate by design*: the extractor resolves nothing —
call strings are recorded as written (``self.run``, ``np.random.default_rng``)
and the symbol table / call graph layers interpret them later.  The
approximations are documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import RNG_TYPE_NAMES, Finding, dotted_name
from repro.lint.rules import FILE_RULES

#: Finding code used for files the parser rejects (mirrors flake8's E999).
PARSE_ERROR_CODE = "RP999"

_SUPPRESSION = re.compile(r"#\s*reprolint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?")

#: Wall-clock entry points (nondeterministic across runs, unlike monotonic
#: clocks which only measure durations).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Receiver methods that mutate a list/dict/set in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)

#: Constructors whose value is unpicklable (or picklable only by accident).
UNPICKLABLE_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "Lock",
        "RLock",
        "open",
    }
)

#: Calls that produce a live ``numpy.random.Generator``.
GENERATOR_CTORS = frozenset(
    {
        "as_rng",
        "spawn_rngs",
        "default_rng",
        "np.random.default_rng",
        "numpy.random.default_rng",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression, recorded as written (unresolved)."""

    callee: str
    line: int


@dataclass(frozen=True)
class RNGSite:
    """An ambient (seed-less, process-global) RNG construction or draw."""

    name: str
    line: int


@dataclass(frozen=True)
class ClockSite:
    """A wall-clock read (``time.time()``, ``datetime.now()``, ...)."""

    name: str
    line: int


@dataclass(frozen=True)
class IdKeySite:
    """An ``id(...)`` call used in a keying position (subscript/dict key)."""

    line: int


@dataclass(frozen=True)
class SetIterSite:
    """Iteration over an unordered set without a ``sorted(...)`` wrapper."""

    expr: str
    line: int


@dataclass(frozen=True)
class MutationSite:
    """A write to a module-level or class-level mutable binding.

    ``target`` is the name as written (``_CACHE`` or ``Cls.attr``);
    ``via`` is ``"subscript"``, ``"augassign"``, ``"assign"`` or the mutator
    method name; ``locked`` is True when the statement sits inside a
    ``with`` block whose context expression mentions a lock.
    """

    target: str
    via: str
    line: int
    locked: bool


@dataclass(frozen=True)
class EmitSite:
    """A journal write: ``<sink>.emit("<event>", k1=..., **rest)``.

    ``event`` is ``None`` when the event name is not a string literal;
    ``open_keyed`` is True when a ``**kwargs`` splat makes the key set
    unknowable statically.
    """

    event: str | None
    keys: tuple[str, ...]
    open_keyed: bool
    line: int


@dataclass(frozen=True)
class ReadSite:
    """A journal read: key accesses in a function that filters one event type.

    ``event`` is the literal the function compares against
    (``e.get("event") == "profile_done"``); ``keys`` are the
    ``.get("k")`` / ``["k"]`` accesses syntactically inside that function.
    """

    event: str
    keys: tuple[tuple[str, int], ...]
    line: int


@dataclass(frozen=True)
class JobArg:
    """One suspicious argument at a job construction site."""

    kind: str  # "lambda" | "local-function" | "unpicklable" | "generator"
    detail: str
    line: int


@dataclass(frozen=True)
class JobCtorSite:
    """A construction of a ``*Job`` payload class."""

    class_name: str  # as written, e.g. "CompetitiveJob" or "jobs.SpreadJob"
    args: tuple[JobArg, ...]
    line: int


@dataclass
class FunctionFacts:
    """Everything the project rules need to know about one function/method."""

    qualname: str  # "f" or "Cls.meth"
    name: str
    lineno: int
    class_name: str | None = None
    is_abstract: bool = False
    is_trivial: bool = False
    delegates_to: str | None = None  # "meth" when body is `return self.meth(...)`
    params: tuple[str, ...] = ()
    param_types: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    ambient_rng: list[RNGSite] = field(default_factory=list)
    wall_clock: list[ClockSite] = field(default_factory=list)
    id_keys: list[IdKeySite] = field(default_factory=list)
    set_iters: list[SetIterSite] = field(default_factory=list)
    mutations: list[MutationSite] = field(default_factory=list)
    contract_calls: list[CallSite] = field(default_factory=list)
    emits: list[EmitSite] = field(default_factory=list)
    reads: list[ReadSite] = field(default_factory=list)
    job_ctors: list[JobCtorSite] = field(default_factory=list)


@dataclass
class ClassFacts:
    """One class definition: bases (unresolved), methods, field annotations."""

    name: str
    lineno: int
    bases: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    field_annotations: dict[str, str] = field(default_factory=dict)
    class_mutables: dict[str, int] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    """The complete per-file summary the project engine aggregates."""

    module: str  # dotted, e.g. "repro.exec.jobs"
    path: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> target
    star_imports: tuple[str, ...] = ()
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    module_mutables: dict[str, int] = field(default_factory=dict)  # name -> line
    module_set_names: frozenset[str] = frozenset()
    module_ambient_rng: tuple[RNGSite, ...] = ()
    suppressions: dict[int, set[str] | None] = field(default_factory=dict)
    #: per-file rule findings and parse errors, before suppression
    findings: list[Finding] = field(default_factory=list)


def module_parts(path: Path) -> tuple[str, ...]:
    """Path parts relative to the ``repro`` package root (or as given).

    The last ``repro`` directory component wins, so both the installed
    layout and ``src/repro/...`` normalize identically; paths outside the
    package keep their parts, which lets test fixtures opt into a per-file
    rule by directory name (``game/``, ``cascade/``, …).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i + 1:])
    return tuple(parts)


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """Map 1-based line numbers to suppressed codes (``None`` = all codes).

    ``# reprolint: disable=RP001`` silences that code on its line,
    ``disable=RP001,RP004`` several, and a bare ``disable`` every rule.
    """
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def parse_error(path: str, message: str, hint: str, line: int = 1, col: int = 1) -> Finding:
    """An ``RP999`` finding: a file the analysis could not read or parse."""
    return Finding(
        path=path, line=line, col=col, code=PARSE_ERROR_CODE, message=message, hint=hint
    )


_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict"})


def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        name = dotted_name(decorator)
        if name is not None and name.split(".")[-1] in (
            "abstractmethod",
            "abstractproperty",
        ):
            return True
    return False


def _body_shape(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[bool, str | None]:
    """(is_trivial, delegates_to) from the statement body.

    *Trivial* bodies — docstring-only, ``pass``, ``...``, or a bare
    ``raise NotImplementedError`` — and single-statement
    ``return self.meth(...)`` delegators carry no logic of their own, so
    rules comparing sibling implementations (RP014) skip them.
    """
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # drop the docstring
    if not body:
        return True, None
    if len(body) != 1:
        return False, None
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True, None
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    ):
        return True, None
    if isinstance(stmt, ast.Raise):
        exc = stmt.exc
        name = (
            dotted_name(exc.func)
            if isinstance(exc, ast.Call)
            else dotted_name(exc)
            if exc is not None
            else None
        )
        if name is not None and name.split(".")[-1] == "NotImplementedError":
            return True, None
    if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call):
        callee = dotted_name(stmt.value.func)
        if callee is not None:
            parts = callee.split(".")
            if len(parts) == 2 and parts[0] == "self":
                return False, parts[1]
    return False, None


def _is_mutable_literal(node: ast.expr) -> str | None:
    """Kind of mutable a module/class-level assignment binds, or None."""
    if isinstance(node, ast.Dict):
        return "dict"
    if isinstance(node, ast.List):
        return "list"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CTORS:
            return name.split(".")[-1]
        if name is not None and name.split(".")[-1] in ("frozenset",):
            return None  # immutable
    return None


def _ambient_rng_name(node: ast.Call) -> str | None:
    """The dotted name of an ambient RNG call, or None.

    Covers ``random.X(...)``, ``np.random.X(...)`` (X not a type name), and
    bare ``default_rng()`` **with no arguments** — seeded ``default_rng(seq)``
    derives from the caller's seed and is fine.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if parts[-1] in RNG_TYPE_NAMES:
        return None
    if len(parts) == 2 and parts[0] == "random":
        return name
    if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
        if parts[2] == "default_rng" and (node.args or node.keywords):
            return None
        return name
    if parts[-1] == "default_rng" and not node.args and not node.keywords:
        return name
    return None


class _Extractor(ast.NodeVisitor):
    """Single-pass AST walk filling a :class:`ModuleFacts`."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        self._class_stack: list[ClassFacts] = []
        self._func_stack: list[FunctionFacts] = []
        self._with_lock_depth = 0
        self._local_funcs: list[set[str]] = []

    # ------------------------------------------------------------------ #
    # scopes
    # ------------------------------------------------------------------ #

    def _current(self) -> FunctionFacts | None:
        return self._func_stack[-1] if self._func_stack else None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_stack:
            self.generic_visit(node)
            return
        cls = ClassFacts(
            name=node.name,
            lineno=node.lineno,
            bases=tuple(
                n for n in (dotted_name(b) for b in node.bases) if n is not None
            ),
        )
        # class-level field annotations and mutable bindings
        methods: list[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cls.field_annotations[stmt.target.id] = ast.unparse(stmt.annotation)
                if stmt.value is not None and _is_mutable_literal(stmt.value):
                    cls.class_mutables[stmt.target.id] = stmt.lineno
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and _is_mutable_literal(stmt.value):
                        cls.class_mutables[target.id] = stmt.lineno
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
        cls.methods = tuple(methods)
        self.facts.classes[node.name] = cls
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._func_stack:
            # nested function: record its name so job-ctor args can tell a
            # local closure from a module-level callable, then walk its body
            # attributing facts to the *enclosing* function (it runs there).
            self._local_funcs[-1].add(node.name)
            self.generic_visit(node)
            return
        cls = self._class_stack[-1] if self._class_stack else None
        qual = f"{cls.name}.{node.name}" if cls is not None else node.name
        params: list[str] = []
        param_types: dict[str, str] = {}
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
            params.append(arg.arg)
            if arg.annotation is not None:
                param_types[arg.arg] = ast.unparse(arg.annotation)
        is_trivial, delegates_to = _body_shape(node)
        fn = FunctionFacts(
            qualname=qual,
            name=node.name,
            lineno=node.lineno,
            class_name=cls.name if cls is not None else None,
            is_abstract=_is_abstract(node),
            is_trivial=is_trivial,
            delegates_to=delegates_to,
            params=tuple(params),
            param_types=param_types,
        )
        self.facts.functions[qual] = fn
        self._func_stack.append(fn)
        self._local_funcs.append(set())
        self.generic_visit(node)
        self._detect_reads(node, fn)
        self._local_funcs.pop()
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------ #
    # imports
    # ------------------------------------------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname:
                self.facts.imports[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if node.level:
            # relative import: resolved against this module's package
            package = self.facts.module.rsplit(".", node.level)[0]
            mod = f"{package}.{mod}" if mod else package
        for alias in node.names:
            if alias.name == "*":
                self.facts.star_imports = (*self.facts.star_imports, mod)
            else:
                self.facts.imports[alias.asname or alias.name] = f"{mod}.{alias.name}"
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def visit_Assign(self, node: ast.Assign) -> None:
        fn = self._current()
        if fn is None and not self._class_stack:
            kind = _is_mutable_literal(node.value)
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.facts.module_mutables[target.id] = node.lineno
                        if kind == "set":
                            self.facts.module_set_names = frozenset(
                                {*self.facts.module_set_names, target.id}
                            )
        if fn is not None:
            for target in node.targets:
                self._check_mutation_target(fn, target, "assign", node.lineno)
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                    callee = dotted_name(node.value.func)
                    if callee is not None:
                        fn.local_types[target.id] = callee
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        fn = self._current()
        if fn is None and not self._class_stack:
            if isinstance(node.target, ast.Name) and node.value is not None:
                kind = _is_mutable_literal(node.value)
                if kind is not None:
                    self.facts.module_mutables[node.target.id] = node.lineno
                    if kind == "set":
                        self.facts.module_set_names = frozenset(
                            {*self.facts.module_set_names, node.target.id}
                        )
        if fn is not None:
            self._check_mutation_target(fn, node.target, "assign", node.lineno)
            if (
                isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                callee = dotted_name(node.value.func)
                if callee is not None:
                    fn.local_types[node.target.id] = callee
            elif isinstance(node.target, ast.Name) and node.annotation is not None:
                fn.local_types.setdefault(
                    node.target.id, ast.unparse(node.annotation)
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        fn = self._current()
        if fn is not None:
            self._check_mutation_target(fn, node.target, "augassign", node.lineno)
        self.generic_visit(node)

    def _check_mutation_target(
        self, fn: FunctionFacts, target: ast.expr, via: str, line: int
    ) -> None:
        """Record writes whose base is a module/class-level mutable name."""
        if isinstance(target, ast.Subscript):
            base = target.value
            name = dotted_name(base)
            if name is not None and self._is_shared_name(fn, name):
                fn.mutations.append(
                    MutationSite(name, "subscript", line, self._locked())
                )
        elif isinstance(target, ast.Name) and via == "augassign":
            if self._is_shared_name(fn, target.id):
                fn.mutations.append(
                    MutationSite(target.id, via, line, self._locked())
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_mutation_target(fn, element, via, line)

    def _is_shared_name(self, fn: FunctionFacts, name: str) -> bool:
        """Whether *name* (as written) denotes a module/class-level mutable."""
        head = name.split(".")[0]
        if name in self.facts.module_mutables or head in self.facts.module_mutables:
            return head not in fn.params and head not in fn.local_types
        parts = name.split(".")
        if len(parts) == 2:
            cls = self.facts.classes.get(parts[0])
            if cls is not None and parts[1] in cls.class_mutables:
                return True
            if parts[0] == "self" and fn.class_name is not None:
                owner = self.facts.classes.get(fn.class_name)
                if owner is not None and parts[1] in owner.class_mutables:
                    return True
        return False

    def _locked(self) -> bool:
        return self._with_lock_depth > 0

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        is_lock = any(
            "lock" in (ast.unparse(item.context_expr)).lower()
            for item in node.items
        )
        if is_lock:
            self._with_lock_depth += 1
        self.generic_visit(node)
        if is_lock:
            self._with_lock_depth -= 1

    # ------------------------------------------------------------------ #
    # loops (unordered-set iteration)
    # ------------------------------------------------------------------ #

    def visit_For(self, node: ast.For) -> None:
        fn = self._current()
        if fn is not None:
            expr = self._set_valued(fn, node.iter)
            if expr is not None:
                fn.set_iters.append(SetIterSite(expr, node.iter.lineno))
        self.generic_visit(node)

    def _set_valued(self, fn: FunctionFacts, node: ast.expr) -> str | None:
        """An expression statically known to iterate an unordered set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return ast.unparse(node)
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee == "set":
                return ast.unparse(node)
            # list(S) / tuple(S) of a set is still unordered
            if callee in ("list", "tuple") and len(node.args) == 1:
                inner = self._set_valued(fn, node.args[0])
                if inner is not None:
                    return ast.unparse(node)
            return None
        if isinstance(node, ast.Name):
            if node.id in self.facts.module_set_names:
                return node.id
            if fn.local_types.get(node.id, "").split(".")[-1] == "set":
                return node.id
        return None

    # ------------------------------------------------------------------ #
    # calls
    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._current()
        name = dotted_name(node.func)
        if name is not None:
            if fn is not None:
                fn.calls.append(CallSite(name, node.lineno))
                parts = name.split(".")
                # Candidate contract calls; RP014 resolves them through the
                # symbol table and keeps only the ones landing in a module
                # actually named "contracts".
                if parts[-1].startswith("check_"):
                    fn.contract_calls.append(CallSite(name, node.lineno))
                if name in WALL_CLOCK_CALLS or (
                    len(parts) >= 2
                    and parts[-2] in ("time", "datetime", "date")
                    and parts[-1] in ("time", "time_ns", "now", "utcnow", "today")
                ):
                    fn.wall_clock.append(ClockSite(name, node.lineno))
                mutator = parts[-1]
                if mutator in MUTATOR_METHODS and len(parts) >= 2:
                    owner = ".".join(parts[:-1])
                    if self._is_shared_name(fn, owner):
                        fn.mutations.append(
                            MutationSite(owner, mutator, node.lineno, self._locked())
                        )
                if parts[-1] == "emit":
                    self._record_emit(fn, node)
                if parts[-1].endswith("Job") and parts[-1][0].isupper():
                    self._record_job_ctor(fn, node, name)
            rng_name = _ambient_rng_name(node)
            if rng_name is not None:
                site = RNGSite(rng_name, node.lineno)
                if fn is not None:
                    fn.ambient_rng.append(site)
                else:
                    self.facts.module_ambient_rng = (
                        *self.facts.module_ambient_rng,
                        site,
                    )
        # id(...) used as a subscript index or dict key is handled in
        # visit_Subscript / visit_Dict; a bare id() call is not a key use.
        self.generic_visit(node)

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def _contains_id_call(self, node: ast.expr) -> bool:
        if self._is_id_call(node):
            return True
        if isinstance(node, ast.Tuple):
            return any(self._contains_id_call(e) for e in node.elts)
        return False

    def visit_Subscript(self, node: ast.Subscript) -> None:
        fn = self._current()
        if fn is not None and self._contains_id_call(node.slice):
            fn.id_keys.append(IdKeySite(node.lineno))
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        fn = self._current()
        if fn is not None:
            for key in node.keys:
                if key is not None and self._contains_id_call(key):
                    fn.id_keys.append(IdKeySite(key.lineno))
        self.generic_visit(node)

    def _record_emit(self, fn: FunctionFacts, node: ast.Call) -> None:
        event: str | None = None
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                event = node.args[0].value
        keys = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
        open_keyed = any(kw.arg is None for kw in node.keywords)
        fn.emits.append(EmitSite(event, keys, open_keyed, node.lineno))

    def _record_job_ctor(
        self, fn: FunctionFacts, node: ast.Call, name: str
    ) -> None:
        suspicious: list[JobArg] = []
        locals_here = self._local_funcs[-1] if self._local_funcs else set()

        def classify(value: ast.expr) -> None:
            if isinstance(value, ast.Lambda):
                suspicious.append(JobArg("lambda", "lambda", value.lineno))
                return
            if isinstance(value, ast.Name) and value.id in locals_here:
                suspicious.append(
                    JobArg("local-function", value.id, value.lineno)
                )
                return
            if isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee in UNPICKLABLE_CTORS:
                    suspicious.append(
                        JobArg("unpicklable", callee, value.lineno)
                    )
                    return
                if callee in GENERATOR_CTORS or (
                    callee is not None
                    and callee.split(".")[-1] in ("as_rng", "default_rng")
                ):
                    suspicious.append(JobArg("generator", callee, value.lineno))
                    return
            if isinstance(value, ast.Name):
                local_type = fn.local_types.get(value.id, "")
                tail = local_type.split(".")[-1]
                if local_type in UNPICKLABLE_CTORS or tail in ("Lock", "RLock"):
                    suspicious.append(
                        JobArg("unpicklable", local_type, value.lineno)
                    )
                elif local_type in GENERATOR_CTORS or tail in (
                    "as_rng",
                    "default_rng",
                ):
                    suspicious.append(
                        JobArg("generator", local_type, value.lineno)
                    )

        for arg in node.args:
            classify(arg)
        for kw in node.keywords:
            if kw.arg is not None:
                classify(kw.value)
        fn.job_ctors.append(JobCtorSite(name, tuple(suspicious), node.lineno))

    # ------------------------------------------------------------------ #
    # reader-side journal schema (per function, after the walk)
    # ------------------------------------------------------------------ #

    def _detect_reads(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, fn: FunctionFacts
    ) -> None:
        """Pair an ``== "event"`` guard with the key accesses around it.

        Scope is the whole function body: if a function compares something
        to exactly one event-name literal and subscripts/gets string keys,
        those keys are assumed to describe that event's schema.  Functions
        comparing against several event names are skipped (too ambiguous).
        """
        events: set[str] = set()
        keys: list[tuple[str, int]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare) and len(sub.ops) == 1:
                if isinstance(sub.ops[0], ast.Eq):
                    operands = [sub.left, *sub.comparators]
                    literals = [
                        o.value
                        for o in operands
                        if isinstance(o, ast.Constant) and isinstance(o.value, str)
                    ]
                    guard = any(
                        isinstance(o, ast.Call)
                        and isinstance(o.func, ast.Attribute)
                        and o.func.attr == "get"
                        and o.args
                        and isinstance(o.args[0], ast.Constant)
                        and o.args[0].value == "event"
                        or isinstance(o, ast.Subscript)
                        and isinstance(o.slice, ast.Constant)
                        and o.slice.value == "event"
                        for o in operands
                    )
                    if guard:
                        events.update(literals)
            elif isinstance(sub, ast.Call):
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "get"
                    and sub.args
                    and isinstance(sub.args[0], ast.Constant)
                    and isinstance(sub.args[0].value, str)
                ):
                    keys.append((sub.args[0].value, sub.lineno))
            elif isinstance(sub, ast.Subscript):
                if isinstance(sub.slice, ast.Constant) and isinstance(
                    sub.slice.value, str
                ):
                    keys.append((sub.slice.value, sub.lineno))
        if len(events) == 1 and keys:
            event = next(iter(events))
            fn.reads.append(
                ReadSite(
                    event,
                    tuple(k for k in keys if k[0] != "event"),
                    fn.lineno,
                )
            )


def extract_facts(source: str, module: str, path: str) -> ModuleFacts:
    """Parse *source* once: facts for the project rules, findings of the file rules.

    Parse failures never raise: they become an ``RP999`` finding on the
    returned facts so the engine reports them and exits nonzero instead of
    silently skipping the file.
    """
    facts = ModuleFacts(module=module, path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        facts.findings.append(
            parse_error(
                path,
                f"file does not parse: {exc.msg or 'syntax error'}",
                "fix the syntax error; reprolint needs a valid AST for every module",
                line=exc.lineno or 1,
                col=exc.offset or 1,
            )
        )
        return facts
    facts.suppressions = parse_suppressions(source)
    _Extractor(facts).visit(tree)
    scope = module_parts(Path(path))
    for rule_cls in FILE_RULES:
        if rule_cls.applies_to(scope):
            rule = rule_cls(path, scope)
            rule.visit(tree)
            facts.findings.extend(rule.findings)
    return facts
