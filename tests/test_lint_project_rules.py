"""True-positive and true-negative fixtures for each project rule RP010-RP016.

Each fixture runs through the engine's check step, so suppressions and rule
selection apply exactly as in ``repro lint``.
"""

from repro.lint import engine
from repro.lint.base import Finding
from repro.lint.project.facts import ModuleFacts, extract_facts
from repro.lint.project.rules import (
    ContractCoverage,
    GraphPayloadRefs,
    JournalSchemaConsistency,
    NondeterminismSources,
    PickleSafety,
    ProjectRule,
    RngProvenance,
    SharedStateMutation,
)


def build_project(sources: dict[str, str]) -> dict[str, ModuleFacts]:
    return {
        mod: extract_facts(src, mod, f"{mod.replace('.', '/')}.py")
        for mod, src in sources.items()
    }


def run(modules: dict[str, ModuleFacts], rule: type[ProjectRule]) -> list[Finding]:
    return engine.check(modules, frozenset({rule.code}))


class TestRP010RngProvenance:
    def test_ambient_rng_reachable_from_job(self):
        project = build_project(
            {
                "pkg.util": (
                    "def helper():\n"
                    "    return default_rng()\n"
                ),
                "pkg.jobs": (
                    "from pkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            }
        )
        findings = run(project, RngProvenance)
        assert len(findings) == 1
        assert findings[0].code == "RP010"
        assert "helper" in findings[0].message
        assert "pkg.jobs:SpreadJob.run" in findings[0].trace
        assert "pkg.util:helper" in findings[0].trace

    def test_seeded_default_rng_is_clean(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, seq):\n"
                    "        return default_rng(seq)\n"
                )
            }
        )
        assert run(project, RngProvenance) == []

    def test_unreachable_ambient_rng_is_clean(self):
        project = build_project(
            {
                "pkg.util": "def helper():\n    return default_rng()\n",
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return 1\n"
                ),
            }
        )
        assert run(project, RngProvenance) == []

    def test_module_level_ambient_rng_flagged(self):
        project = build_project(
            {"pkg.mod": "import numpy as np\n_R = np.random.default_rng()\n"}
        )
        findings = run(project, RngProvenance)
        assert len(findings) == 1
        assert "import time" in findings[0].message

    def test_suppression_honoured(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return default_rng()  # reprolint: disable=RP010\n"
                )
            }
        )
        assert run(project, RngProvenance) == []


class TestRP011NondeterminismSources:
    def test_wall_clock_feeding_key_builder(self):
        project = build_project(
            {
                "pkg.keys": (
                    "import time\n"
                    "def params_token(params):\n"
                    "    return (tuple(params), time.time())\n"
                )
            }
        )
        findings = run(project, NondeterminismSources)
        assert [f.code for f in findings] == ["RP011"]
        assert "time.time" in findings[0].message

    def test_wall_clock_off_sensitive_paths_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "import time\n"
                    "def banner():\n"
                    "    return time.time()\n"
                )
            }
        )
        assert run(project, NondeterminismSources) == []

    def test_id_key_flagged_anywhere(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def memo(cache, obj):\n"
                    "    cache[id(obj)] = obj\n"
                )
            }
        )
        findings = run(project, NondeterminismSources)
        assert len(findings) == 1
        assert "id(...)" in findings[0].message

    def test_bare_id_call_is_clean(self):
        project = build_project(
            {"pkg.mod": "def label(obj):\n    return id(obj)\n"}
        )
        assert run(project, NondeterminismSources) == []

    def test_set_iteration_on_job_path(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        touched = set()\n"
                    "        for v in touched:\n"
                    "            generator.random()\n"
                ),
            }
        )
        findings = run(project, NondeterminismSources)
        assert len(findings) == 1
        assert "unordered set" in findings[0].message

    def test_sorted_set_iteration_is_clean(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        touched = set()\n"
                    "        for v in sorted(touched):\n"
                    "            generator.random()\n"
                ),
            }
        )
        assert run(project, NondeterminismSources) == []


class TestRP012PickleSafety:
    def test_lambda_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class SpreadJob:\n"
                    "    def run(self):\n"
                    "        return 1\n"
                    "def submit():\n"
                    "    return SpreadJob(fn=lambda x: x)\n"
                )
            }
        )
        findings = run(project, PickleSafety)
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_local_closure_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def submit():\n"
                    "    def local_fn(x):\n"
                    "        return x\n"
                    "    return SpreadJob(fn=local_fn)\n"
                )
            }
        )
        findings = run(project, PickleSafety)
        assert len(findings) == 1
        assert "closure" in findings[0].message

    def test_live_generator_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def submit(seed):\n"
                    "    rng = default_rng(seed)\n"
                    "    return SpreadJob(rng=rng)\n"
                )
            }
        )
        findings = run(project, PickleSafety)
        assert len(findings) == 1
        assert "Generator" in findings[0].message

    def test_plain_data_payload_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def fn(x):\n"
                    "    return x\n"
                    "def submit(seed_seq):\n"
                    "    return SpreadJob(fn=fn, data=[1, 2], seq=seed_seq)\n"
                )
            }
        )
        assert run(project, PickleSafety) == []

    def test_unpicklable_field_annotation(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class BadJob:\n"
                    "    rng: Generator\n"
                    "    def run(self):\n"
                    "        return 1\n"
                )
            }
        )
        findings = run(project, PickleSafety)
        assert len(findings) == 1
        assert "rng" in findings[0].message

    def test_plain_field_annotations_are_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class GoodJob:\n"
                    "    n: int\n"
                    "    name: str\n"
                    "    def run(self):\n"
                    "        return 1\n"
                )
            }
        )
        assert run(project, PickleSafety) == []


class TestRP013SharedStateMutation:
    def test_unlocked_write_reachable_from_job(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_CACHE = {}\n"
                    "def remember(key, value):\n"
                    "    _CACHE[key] = value\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        remember(1, 2)\n"
                )
            }
        )
        findings = run(project, SharedStateMutation)
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert "SpreadJob.run" in findings[0].trace

    def test_locked_write_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "import threading\n"
                    "_CACHE = {}\n"
                    "_LOCK = threading.Lock()\n"
                    "def remember(key, value):\n"
                    "    with _LOCK:\n"
                    "        _CACHE[key] = value\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        remember(1, 2)\n"
                )
            }
        )
        assert run(project, SharedStateMutation) == []

    def test_write_off_job_paths_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_CACHE = {}\n"
                    "def configure(key, value):\n"
                    "    _CACHE[key] = value\n"
                )
            }
        )
        assert run(project, SharedStateMutation) == []

    def test_mutator_method_on_shared_list(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_SEEN = []\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        _SEEN.append(1)\n"
                )
            }
        )
        findings = run(project, SharedStateMutation)
        assert len(findings) == 1
        assert "_SEEN" in findings[0].message


CONTRACTS_MODULE = "def check_shape(x):\n    return x\n"
VALIDATION_MODULE = "def check_positive_int(x):\n    return x\n"


class TestRP014ContractCoverage:
    def test_uncovered_sibling_override_flagged(self):
        project = build_project(
            {
                "pkg.contracts": CONTRACTS_MODULE,
                "pkg.base": (
                    "class Base:\n"
                    "    def compute(self, x):\n"
                    "        raise NotImplementedError\n"
                ),
                "pkg.one": (
                    "from pkg.base import Base\n"
                    "from pkg.contracts import check_shape\n"
                    "class One(Base):\n"
                    "    def compute(self, x):\n"
                    "        check_shape(x)\n"
                    "        return x\n"
                ),
                "pkg.two": (
                    "from pkg.base import Base\n"
                    "class Two(Base):\n"
                    "    def compute(self, x):\n"
                    "        return x + 1\n"
                ),
            }
        )
        findings = run(project, ContractCoverage)
        assert len(findings) == 1
        assert "Two.compute" in findings[0].message
        assert "pkg.one:One.compute" in findings[0].message

    def test_fully_covered_family_is_clean(self):
        project = build_project(
            {
                "pkg.contracts": CONTRACTS_MODULE,
                "pkg.base": (
                    "class Base:\n"
                    "    def compute(self, x):\n"
                    "        raise NotImplementedError\n"
                ),
                "pkg.one": (
                    "from pkg.base import Base\n"
                    "from pkg.contracts import check_shape\n"
                    "class One(Base):\n"
                    "    def compute(self, x):\n"
                    "        check_shape(x)\n"
                    "        return x\n"
                ),
                "pkg.two": (
                    "from pkg.base import Base\n"
                    "from pkg.contracts import check_shape\n"
                    "class Two(Base):\n"
                    "    def compute(self, x):\n"
                    "        check_shape(x)\n"
                    "        return x + 1\n"
                ),
            }
        )
        assert run(project, ContractCoverage) == []

    def test_abstract_and_delegating_members_skipped(self):
        project = build_project(
            {
                "pkg.contracts": CONTRACTS_MODULE,
                "pkg.base": (
                    "from abc import abstractmethod\n"
                    "class Base:\n"
                    "    @abstractmethod\n"
                    "    def compute(self, x):\n"
                    "        ...\n"
                    "    def compute_pooled(self, x):\n"
                    "        return self.compute(x)\n"
                ),
                "pkg.one": (
                    "from pkg.base import Base\n"
                    "from pkg.contracts import check_shape\n"
                    "class One(Base):\n"
                    "    def compute(self, x):\n"
                    "        check_shape(x)\n"
                    "        return x\n"
                ),
                "pkg.two": (
                    "from pkg.base import Base\n"
                    "class Two(Base):\n"
                    "    def compute(self, x):\n"
                    "        return x + 1\n"
                ),
            }
        )
        findings = run(project, ContractCoverage)
        assert len(findings) == 1
        assert "Two.compute" in findings[0].message

    def test_non_contract_check_call_does_not_count(self):
        # check_positive_int comes from a validation helper, not a contracts
        # module, so neither sibling is "covered" and the family stays clean.
        project = build_project(
            {
                "pkg.validation": VALIDATION_MODULE,
                "pkg.base": (
                    "class Base:\n"
                    "    def compute(self, x):\n"
                    "        raise NotImplementedError\n"
                ),
                "pkg.one": (
                    "from pkg.base import Base\n"
                    "from pkg.validation import check_positive_int\n"
                    "class One(Base):\n"
                    "    def compute(self, x):\n"
                    "        check_positive_int(x)\n"
                    "        return x\n"
                ),
                "pkg.two": (
                    "from pkg.base import Base\n"
                    "class Two(Base):\n"
                    "    def compute(self, x):\n"
                    "        return x + 1\n"
                ),
            }
        )
        assert run(project, ContractCoverage) == []


class TestRP015JournalSchemaConsistency:
    WRITER = (
        "class Journal:\n"
        "    def done(self, journal, spread):\n"
        "        journal.emit('profile_done', spread=spread, seeds=3)\n"
    )

    def test_reader_key_no_writer_emits(self):
        project = build_project(
            {
                "pkg.writer": self.WRITER,
                "pkg.reader": (
                    "def summarize(events):\n"
                    "    out = []\n"
                    "    for e in events:\n"
                    "        if e.get('event') == 'profile_done':\n"
                    "            out.append(e.get('sprad'))\n"
                    "    return out\n"
                ),
            }
        )
        findings = run(project, JournalSchemaConsistency)
        assert len(findings) == 1
        assert "'sprad'" in findings[0].message
        assert "profile_done" in findings[0].message

    def test_matching_keys_are_clean(self):
        project = build_project(
            {
                "pkg.writer": self.WRITER,
                "pkg.reader": (
                    "def summarize(events):\n"
                    "    out = []\n"
                    "    for e in events:\n"
                    "        if e.get('event') == 'profile_done':\n"
                    "            out.append((e.get('spread'), e['seeds']))\n"
                    "    return out\n"
                ),
            }
        )
        assert run(project, JournalSchemaConsistency) == []

    def test_envelope_keys_always_known(self):
        project = build_project(
            {
                "pkg.writer": self.WRITER,
                "pkg.reader": (
                    "def summarize(events):\n"
                    "    out = []\n"
                    "    for e in events:\n"
                    "        if e.get('event') == 'profile_done':\n"
                    "            out.append((e.get('ts'), e.get('run_id')))\n"
                    "    return out\n"
                ),
            }
        )
        assert run(project, JournalSchemaConsistency) == []

    def test_open_keyed_writer_silences_event(self):
        project = build_project(
            {
                "pkg.writer": (
                    "def done(journal, extra):\n"
                    "    journal.emit('profile_done', spread=1, **extra)\n"
                ),
                "pkg.reader": (
                    "def summarize(events):\n"
                    "    out = []\n"
                    "    for e in events:\n"
                    "        if e.get('event') == 'profile_done':\n"
                    "            out.append(e.get('anything'))\n"
                    "    return out\n"
                ),
            }
        )
        assert run(project, JournalSchemaConsistency) == []

    def test_event_never_written_is_skipped(self):
        project = build_project(
            {
                "pkg.writer": self.WRITER,
                "pkg.reader": (
                    "def summarize(events):\n"
                    "    out = []\n"
                    "    for e in events:\n"
                    "        if e.get('event') == 'external_event':\n"
                    "            out.append(e.get('whatever'))\n"
                    "    return out\n"
                ),
            }
        )
        assert run(project, JournalSchemaConsistency) == []


class TestRP016GraphPayloadRefs:
    def test_raw_digraph_field_flagged(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    graph: DiGraph\n"
                    "    rounds: int\n"
                    "    def run(self, generator):\n"
                    "        return 1\n"
                )
            }
        )
        findings = run(project, GraphPayloadRefs)
        assert len(findings) == 1
        assert findings[0].code == "RP016"
        assert "graph" in findings[0].message
        assert "GraphRef" in findings[0].message

    def test_ref_admitting_field_is_clean(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    graph: DiGraph | GraphRef\n"
                    "    rounds: int\n"
                    "    def run(self, generator):\n"
                    "        return 1\n"
                )
            }
        )
        assert run(project, GraphPayloadRefs) == []

    def test_non_job_class_ignored(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class SpreadOracle:\n"
                    "    graph: DiGraph\n"
                    "    def spread(self):\n"
                    "        return 1\n"
                )
            }
        )
        assert run(project, GraphPayloadRefs) == []

    def test_suppression_honoured(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class LocalJob:  # reprolint: disable=RP016\n"
                    "    graph: DiGraph\n"
                    "    def run(self, generator):\n"
                    "        return 1\n"
                )
            }
        )
        assert run(project, GraphPayloadRefs) == []
