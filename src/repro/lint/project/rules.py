"""The RP010–RP016 whole-program rule catalogue.

Unlike the per-file AST rules (:mod:`repro.lint.rules`), these run over a
:class:`Project`
— symbol table plus approximate call graph — so they can see an ambient
``default_rng()`` three call hops below a job, an unpicklable closure
captured into a process-backend payload, or a journal reader whose expected
keys drifted from every writer.  Each finding carries a ``trace`` (an
entry→site call path) when the evidence is cross-module.

The dataflow model is deliberately over-approximate (unknown-receiver calls
fan out to every same-named method; see ``docs/static-analysis.md`` for the
full list of approximations).  The baseline ratchet and line-scoped
suppressions absorb accepted findings, so the rules can stay sound-biased;
the engine applies suppressions to every finding, so rules never read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.lint.base import Finding
from repro.lint.project.callgraph import CallGraph, render_trace
from repro.lint.project.facts import ModuleFacts
from repro.lint.project.symbols import SymbolTable

#: Envelope keys the journal transport stamps on every event.
JOURNAL_ENVELOPE_KEYS = frozenset({"event", "ts", "seq", "run_id"})

#: Function names that build cache/journal keys — wall-clock or id() taint
#: flowing into these makes cache keys and journal records nondeterministic.
KEY_BUILDER_NAMES = frozenset(
    {"params_token", "rng_token", "freeze", "fingerprint", "cache_key"}
)

#: Dataclass field annotations that cannot (or must not) cross a process
#: boundary inside a job payload.
UNPICKLABLE_ANNOTATIONS = ("Generator", "Lock", "RLock", "IO", "TextIO", "BinaryIO")


@dataclass
class Project:
    """Everything a project rule gets to look at."""

    modules: dict[str, ModuleFacts]
    symbols: SymbolTable
    callgraph: CallGraph
    _entry_cache: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # shared entry-point discovery
    # ------------------------------------------------------------------ #

    def job_run_entries(self) -> list[str]:
        """``run`` methods of every ``*Job`` payload class.

        These are the functions the execution backends invoke — on worker
        threads under the thread backend and in worker processes under the
        process backend — so they anchor both the RNG-provenance and the
        shared-state reachability analyses.
        """
        cached = self._entry_cache.get("job_run")
        if cached is None:
            cached = []
            for facts in self.modules.values():
                for name, cls in facts.classes.items():
                    if name.endswith("Job") and "run" in cls.methods:
                        cached.append(f"{facts.module}:{name}.run")
            self._entry_cache["job_run"] = sorted(cached)
        return cached

    def selector_entries(self) -> list[str]:
        """``select``/``_select``/``_select_pooled`` across the selector tree."""
        cached = self._entry_cache.get("select")
        if cached is None:
            cached = []
            roots = [
                f"{facts.module}:{name}"
                for facts in self.modules.values()
                for name in facts.classes
                if name == "SeedSelector"
            ]
            class_ids: set[str] = set(roots)
            for root in roots:
                class_ids.update(self.symbols.subclasses_of(root))
            for class_id in sorted(class_ids):
                module, _, cls_name = class_id.partition(":")
                facts = self.modules[module]
                for method in ("select", "_select", "_select_pooled"):
                    qual = f"{cls_name}.{method}"
                    if qual in facts.functions:
                        cached.append(f"{module}:{qual}")
            self._entry_cache["select"] = sorted(cached)
        return cached

    def determinism_entries(self) -> list[str]:
        """Union of job-run and selector entries."""
        return sorted({*self.job_run_entries(), *self.selector_entries()})


class ProjectRule:
    """Base class: metadata + the ``check`` hook over a :class:`Project`."""

    code: ClassVar[str] = "RP000"
    name: ClassVar[str] = "abstract-project-rule"
    rationale: ClassVar[str] = ""
    hint: ClassVar[str] = ""

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self,
        facts: ModuleFacts,
        line: int,
        message: str,
        trace: str = "",
        col: int = 1,
    ) -> Finding:
        return Finding(
            path=facts.path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            hint=self.hint,
            trace=trace,
        )


class RngProvenance(ProjectRule):
    """RP010: every Generator on a job/selector path derives from the seed.

    An ambient ``default_rng()`` (or ``random.*`` / ``np.random.*`` draw)
    anywhere in the call closure of an execution-engine job or a seed
    selector breaks determinism-under-seed: the stream no longer derives
    from the master seed through the ``SeedSequence.spawn`` chain, so two
    runs with the same seed diverge.  The per-file RP001 sees only direct
    call sites; this rule follows the call graph, including through the
    ``utils.rng.as_rng`` boundary module that RP001 exempts.
    """

    code: ClassVar[str] = "RP010"
    name: ClassVar[str] = "rng-provenance"
    rationale: ClassVar[str] = (
        "generators reachable from exec jobs or SeedSelector.select must "
        "derive from the SeedSequence.spawn chain; ambient RNG construction "
        "on those paths silently breaks bit-identical replay"
    )
    hint: ClassVar[str] = (
        "thread the caller's Generator (or a SeedSequence child) down to "
        "this call; if ambient entropy is the documented contract of the "
        "site, keep it behind one allowlisted boundary with a narrow "
        "'# reprolint: disable=RP010' and a comment citing the decision"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        entries = project.determinism_entries()
        parents = project.callgraph.reachable_from(entries)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if not fn.ambient_rng or symbol_id not in parents:
                continue
            trace = render_trace(
                project.symbols, project.callgraph.trace(parents, symbol_id)
            )
            for site in fn.ambient_rng:
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"ambient RNG {site.name!r} in {fn.qualname} is "
                        "reachable from a job/selector entry point",
                        trace=trace,
                    )
                )
        for facts in project.modules.values():
            for site in facts.module_ambient_rng:
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"module-level ambient RNG {site.name!r} runs at "
                        "import time, outside any seed chain",
                    )
                )
        return findings


class NondeterminismSources(ProjectRule):
    """RP011: wall-clock, ``id()`` keys, and set iteration near keys/journal.

    Wall-clock reads and ``id()``-derived keys differ across runs, and set
    iteration order differs across *processes* (hash randomization), so any
    of them feeding a cache key, a journal record, or a job/selector path
    makes warm replay and cross-backend comparison lie.  A function is
    *sensitive* when it is reachable from a job/selector entry point or
    when it (transitively) feeds a key-builder or journal writer.
    """

    code: ClassVar[str] = "RP011"
    name: ClassVar[str] = "nondeterminism-sources"
    rationale: ClassVar[str] = (
        "wall-clock reads, id()-keyed lookups, and unordered-set iteration "
        "produce values that differ across runs/processes; on cache-key or "
        "journal paths they silently break replay and comparison"
    )
    hint: ClassVar[str] = (
        "use monotonic clocks for durations, content-derived keys instead "
        "of id(), and sorted(...) before iterating sets; wall-clock fields "
        "that are the product (e.g. a journal 'ts') carry a narrow "
        "'# reprolint: disable=RP011'"
    )

    def _sensitive_ids(self, project: Project) -> set[str]:
        forward = set(
            project.callgraph.reachable_from(project.determinism_entries())
        )
        # backward closure into key builders / journal writers
        sinks: set[str] = set()
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if fn.emits or fn.name in KEY_BUILDER_NAMES:
                sinks.add(symbol_id)
        reverse: dict[str, set[str]] = {}
        for caller, callees in project.callgraph.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        backward: set[str] = set()
        stack = list(sinks)
        while stack:
            current = stack.pop()
            if current in backward:
                continue
            backward.add(current)
            stack.extend(reverse.get(current, ()))
        return forward | backward

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        sensitive = self._sensitive_ids(project)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            for id_site in fn.id_keys:
                findings.append(
                    self.finding(
                        facts,
                        id_site.line,
                        f"id(...) used as a key in {fn.qualname}; object "
                        "identity differs across runs and processes",
                    )
                )
            if symbol_id not in sensitive:
                continue
            for clock in fn.wall_clock:
                findings.append(
                    self.finding(
                        facts,
                        clock.line,
                        f"wall-clock read {clock.name!r} in {fn.qualname} on "
                        "a cache-key/journal/job path",
                    )
                )
            for site in fn.set_iters:
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"iteration over unordered set ({site.expr}) in "
                        f"{fn.qualname} on a determinism-sensitive path; "
                        "order differs under hash randomization",
                    )
                )
        return findings


class PickleSafety(ProjectRule):
    """RP012: job payloads shipped to the process backend must pickle.

    A lambda, a locally-defined closure, a lock, an open handle, or a live
    ``Generator`` captured into a ``*Job`` construction works on the serial
    and thread backends and then fails — or worse, silently duplicates RNG
    state — the first time the process backend pickles the payload.
    """

    code: ClassVar[str] = "RP012"
    name: ClassVar[str] = "pickle-safe-job-payloads"
    rationale: ClassVar[str] = (
        "job payloads cross a pickle boundary on the process backend; "
        "closures, locks, handles, and live Generators either fail to "
        "pickle or duplicate state that must stay process-local"
    )
    hint: ClassVar[str] = (
        "pass module-level callables and plain data into jobs; derive "
        "per-job randomness from the executor's SeedSequence spawn, never "
        "by capturing a Generator into the payload"
    )

    _ARG_MESSAGES: ClassVar[dict[str, str]] = {
        "lambda": "a lambda",
        "local-function": "a locally-defined closure",
        "unpicklable": "an unpicklable object",
        "generator": "a live numpy Generator",
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for facts, fn, _symbol_id in project.symbols.iter_functions():
            for ctor in fn.job_ctors:
                for arg in ctor.args:
                    what = self._ARG_MESSAGES.get(arg.kind, arg.kind)
                    findings.append(
                        self.finding(
                            facts,
                            arg.line,
                            f"{ctor.class_name}(...) in {fn.qualname} "
                            f"captures {what} ({arg.detail}) into a job "
                            "payload",
                        )
                    )
        for facts in project.modules.values():
            for name, cls in facts.classes.items():
                if not name.endswith("Job"):
                    continue
                for field_name, annotation in cls.field_annotations.items():
                    if any(tok in annotation for tok in UNPICKLABLE_ANNOTATIONS):
                        findings.append(
                            self.finding(
                                facts,
                                cls.lineno,
                                f"job class {name} declares field "
                                f"{field_name!r} of unpicklable/stateful "
                                f"type {annotation!r}",
                            )
                        )
        return findings


class SharedStateMutation(ProjectRule):
    """RP013: thread-backend code paths never mutate shared state un-locked.

    Under the thread backend every job's ``run`` executes concurrently in
    one process, so a write to a module-level or class-level mutable
    reachable from a job — a handle-memo dict, a registry list — races
    unless it happens under a lock.  The metrics registry's instruments
    carry their own lock; everything else needs an explicit ``with lock:``.
    """

    code: ClassVar[str] = "RP013"
    name: ClassVar[str] = "locked-shared-state"
    rationale: ClassVar[str] = (
        "the thread backend runs jobs concurrently in-process; un-locked "
        "writes to module/class-level mutables on those paths race and can "
        "drop or corrupt shared state"
    )
    hint: ClassVar[str] = (
        "guard the write with a module-level threading.Lock (with _LOCK:) "
        "or move the binding to import time; reads of immutable bindings "
        "need no lock"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        entries = project.job_run_entries()
        parents = project.callgraph.reachable_from(entries)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if symbol_id not in parents or not fn.mutations:
                continue
            trace = render_trace(
                project.symbols, project.callgraph.trace(parents, symbol_id)
            )
            for site in fn.mutations:
                if site.locked:
                    continue
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"un-locked write ({site.via}) to shared mutable "
                        f"{site.target!r} in {fn.qualname}, reachable from "
                        "a thread-backend job",
                        trace=trace,
                    )
                )
        return findings


class ContractCoverage(ProjectRule):
    """RP014: sibling implementations carry the same runtime contracts.

    When one overload path — one subclass override — validates with
    ``REPRO_CONTRACTS`` checks and its sibling does not, enabling contracts in CI only half-verifies
    the invariant: the unchecked path can corrupt the payoff tensor while
    the matrix stays green.
    """

    code: ClassVar[str] = "RP014"
    name: ClassVar[str] = "contract-coverage"
    rationale: ClassVar[str] = (
        "REPRO_CONTRACTS checks present on one overload path but absent "
        "from a sibling leave the sibling unverified while CI reports the "
        "invariant as covered"
    )
    hint: ClassVar[str] = (
        "add the same contracts.check_* call (behind contracts.enabled()) "
        "to the sibling path, or hoist the check into the shared caller"
    )

    @staticmethod
    def _is_contract_call(project: Project, module: str, callee: str) -> bool:
        """Whether a recorded ``check_*`` call lands in a contracts module.

        Resolution through the symbol table distinguishes
        ``contracts.check_spread`` from an unrelated ``check_positive_int``
        imported from a validation helper.
        """
        resolved = project.symbols.resolve(module, callee)
        if resolved is None:
            # unresolved (e.g. external) calls count only when the written
            # qualifier names a contracts module explicitly
            return "contracts" in callee.split(".")[:-1]
        return resolved.partition(":")[0].split(".")[-1] == "contracts"

    def _calls_contracts(self, project: Project, symbol_id: str) -> bool:
        fn = project.symbols.function(symbol_id)
        if fn is None:
            return False
        module = symbol_id.partition(":")[0]
        return any(
            self._is_contract_call(project, module, call.callee)
            for call in fn.contract_calls
        )

    def _has_contracts(self, project: Project, symbol_id: str) -> bool:
        if self._calls_contracts(project, symbol_id):
            return True
        return any(
            self._calls_contracts(project, callee)
            for callee in sorted(project.callgraph.edges.get(symbol_id, ()))
        )

    @staticmethod
    def _is_concrete(project: Project, member: str) -> bool:
        """Family members with real logic of their own.

        Abstract declarations, docstring/``pass``/``NotImplementedError``
        stubs, and one-line ``return self.meth(...)`` delegators have
        nothing to validate, so they neither need contracts nor count as a
        covered sibling.
        """
        fn = project.symbols.function(member)
        return (
            fn is not None
            and not fn.is_abstract
            and not fn.is_trivial
            and fn.delegates_to is None
        )

    def _families(self, project: Project) -> list[list[str]]:
        """Same-named overrides below a common analyzed base class."""
        families: list[list[str]] = []
        for facts in project.modules.values():
            for name, cls in facts.classes.items():
                base_id = f"{facts.module}:{name}"
                subclasses = project.symbols.subclasses_of(base_id)
                if not subclasses:
                    continue
                for method in cls.methods:
                    if method.startswith("__"):
                        continue
                    members = [f"{facts.module}:{name}.{method}"]
                    for sub_id in subclasses:
                        sub_module, _, sub_name = sub_id.partition(":")
                        sub_facts = project.modules[sub_module]
                        qual = f"{sub_name}.{method}"
                        if qual in sub_facts.functions:
                            members.append(f"{sub_module}:{qual}")
                    if len(members) > 1:
                        families.append(members)
        return families

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        reported: set[str] = set()
        for family in self._families(project):
            concrete = [m for m in family if self._is_concrete(project, m)]
            if len(concrete) < 2:
                continue
            covered = [m for m in concrete if self._has_contracts(project, m)]
            if not covered or len(covered) == len(concrete):
                continue
            exemplar = covered[0]
            for member in concrete:
                if member in covered or member in reported:
                    continue
                fn = project.symbols.function(member)
                module = member.partition(":")[0]
                facts = project.modules[module]
                if fn is None:
                    continue
                reported.add(member)
                findings.append(
                    self.finding(
                        facts,
                        fn.lineno,
                        f"{fn.qualname} lacks the REPRO_CONTRACTS checks its "
                        f"sibling path {exemplar} performs",
                    )
                )
        return findings


class JournalSchemaConsistency(ProjectRule):
    """RP015: journal readers only expect keys some writer actually emits.

    The JSONL journal is a producer/consumer contract with no schema file:
    writers emit keyword dicts, readers ``get`` keys back out.  When a
    reader's expected key drifts from every writer (a rename on one side),
    the reader silently sees ``None`` and the monitor/report/export tables
    quietly go blank — no error, just wrong dashboards.
    """

    code: ClassVar[str] = "RP015"
    name: ClassVar[str] = "journal-schema-consistency"
    rationale: ClassVar[str] = (
        "journal writers and readers share an implicit per-event key "
        "schema; a key read that no writer emits returns None forever and "
        "blanks dashboards without an error"
    )
    hint: ClassVar[str] = (
        "rename the reader key to match the writer (or vice versa); if the "
        "key is genuinely optional and sometimes absent, suppress with "
        "'# reprolint: disable=RP015' at the reader"
    )

    def check(self, project: Project) -> list[Finding]:
        writers: dict[str, set[str]] = {}
        open_events: set[str] = set()
        writer_sites: dict[str, list[str]] = {}
        for _facts, fn, symbol_id in project.symbols.iter_functions():
            for emit in fn.emits:
                if emit.event is None:
                    continue
                writers.setdefault(emit.event, set()).update(emit.keys)
                writer_sites.setdefault(emit.event, []).append(symbol_id)
                if emit.open_keyed:
                    open_events.add(emit.event)
        if not writers:
            return []
        findings: list[Finding] = []
        for facts, fn, _symbol_id in project.symbols.iter_functions():
            for read in fn.reads:
                if read.event not in writers:
                    continue  # reader of an event this project never writes
                if read.event in open_events:
                    continue  # writer key set is statically unknowable
                known = writers[read.event] | JOURNAL_ENVELOPE_KEYS
                for key, line in read.keys:
                    if key in known:
                        continue
                    sites = ", ".join(sorted(set(writer_sites[read.event]))[:3])
                    findings.append(
                        self.finding(
                            facts,
                            line,
                            f"reader {fn.qualname} expects key {key!r} of "
                            f"event {read.event!r} that no writer emits "
                            f"(writers: {sites})",
                        )
                    )
        return findings


class GraphPayloadRefs(ProjectRule):
    """RP016: job graph fields must admit ``GraphRef`` payloads.

    On the process backend every job is pickled per submission; a ``graph``
    field annotated as a raw ``DiGraph`` ships the full CSR arrays —
    O(n+m) bytes per job, the dominant submit cost at million-node scale —
    where a :class:`~repro.graphs.store.GraphRef` handle pickles in O(1)
    and resolves worker-side through the per-process mmap cache.  A job
    class whose graph-typed field does not admit refs forces every call
    site back onto the O(n+m) path.
    """

    code: ClassVar[str] = "RP016"
    name: ClassVar[str] = "graph-payload-refs"
    rationale: ClassVar[str] = (
        "a *Job field annotated with a raw DiGraph pickles the whole CSR "
        "graph into every process-backend submission; annotating it "
        "'DiGraph | GraphRef' lets call sites ship an O(1) mmap handle "
        "instead"
    )
    hint: ClassVar[str] = (
        "annotate the field 'DiGraph | GraphRef', resolve it at the top of "
        "run() with repro.graphs.store.resolve_graph, and build payloads "
        "through maybe_ref(graph); a job that genuinely requires an "
        "in-memory graph carries a narrow '# reprolint: disable=RP016'"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for facts in project.modules.values():
            for name, cls in facts.classes.items():
                if not name.endswith("Job"):
                    continue
                for field_name, annotation in cls.field_annotations.items():
                    if "DiGraph" not in annotation or "GraphRef" in annotation:
                        continue
                    findings.append(
                        self.finding(
                            facts,
                            cls.lineno,
                            f"job class {name} annotates field "
                            f"{field_name!r} as {annotation!r}; a raw "
                            "DiGraph payload pickles O(n+m) bytes per "
                            "process-backend job — admit GraphRef "
                            "('DiGraph | GraphRef')",
                        )
                    )
        return findings


PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    RngProvenance,
    NondeterminismSources,
    PickleSafety,
    SharedStateMutation,
    ContractCoverage,
    JournalSchemaConsistency,
    GraphPayloadRefs,
)

