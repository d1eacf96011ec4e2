"""Release hygiene: documentation present, public API importable and
documented, examples syntactically sound, experiment index consistent."""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentation:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO / name
            assert path.exists(), name
            assert len(path.read_text()) > 1000, f"{name} is a stub"

    def test_design_lists_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        for artefact in ("Table 1", "Table 2", "Table 3", "Fig. 6",
                         "Fig. 7", "Fig. 8", "Fig. 9"):
            assert artefact in text, artefact

    def test_experiments_covers_every_artefact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artefact in ("Table 1", "Table 2", "Table 3", "Figure 6",
                         "Figure 7", "Figures 8 and 9"):
            assert artefact in text, artefact

    def test_bench_files_referenced_by_design_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for line in text.splitlines():
            if "benchmarks/bench_" not in line:
                continue
            fragment = line.split("benchmarks/")[1]
            filename = fragment.split("`")[0].split(";")[0]
            assert (REPO / "benchmarks" / filename).exists(), filename

    def test_bench_files_on_disk_are_named_in_design(self):
        """The other direction: no bench script nothing points at."""
        text = (REPO / "DESIGN.md").read_text()
        on_disk = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
        assert on_disk, "benchmarks/bench_*.py: none found"
        for filename in on_disk:
            assert f"`benchmarks/{filename}`" in text, filename

    def test_renderer_commands_in_experiments_exist(self):
        """Every ``python -m repro.bench.tables <name>`` EXPERIMENTS.md
        gives is an artefact the renderer knows."""
        import re

        from repro.bench.tables import EXPERIMENTS

        text = (REPO / "EXPERIMENTS.md").read_text()
        named = re.findall(r"python -m repro\.bench\.tables (\w+)", text)
        assert set(named) >= set(EXPERIMENTS), "an artefact has no command"
        for name in named:
            assert name in EXPERIMENTS, name


class TestPublicApi:
    PACKAGES = [
        "repro",
        "repro.core",
        "repro.pl",
        "repro.runtime",
        "repro.aio",
        "repro.distributed",
        "repro.workloads",
        "repro.bench",
    ]

    @pytest.mark.parametrize("package", PACKAGES)
    def test_importable_with_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__) > 40

    @pytest.mark.parametrize("package", PACKAGES[1:5])
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_public_items_documented(self):
        """Every public class/function in the core package carries a
        docstring (deliverable: doc comments on every public item)."""
        import inspect

        for package in self.PACKAGES[1:]:
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{package}.{name} lacks a docstring"


class TestOneTraceReader:
    def test_trace_bytes_are_opened_only_beside_the_reader(self):
        """``repro.trace.codec.TraceReader`` is the only code that turns
        trace bytes into records; a second reader cannot reappear
        unnoticed if nothing else in the package opens a file to read
        bytes."""
        openers = set()
        for path in sorted((REPO / "src" / "repro" / "trace").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    continue
                modes = node.args[1:2] + [
                    k.value for k in node.keywords if k.arg == "mode"]
                if any(isinstance(m, ast.Constant) and m.value == "rb"
                       for m in modes):
                    openers.add(path.name)
        assert openers == {"codec.py", "stream.py"}

    def test_trace_lines_are_never_split_by_str_splitlines(self):
        """It splits on U+2028, U+0085 and friends, all legal inside a
        JSON string; the reader splits on ``b"\\n"`` only."""
        for path in sorted((REPO / "src" / "repro" / "trace").glob("*.py")):
            assert "splitlines" not in path.read_text(), path.name


class TestOneLedger:
    SOURCES = sorted((REPO / "src").rglob("*.py"))

    def test_no_counter_is_assigned_into(self):
        """A shared counter is added to, never overwritten: the
        by-assignment mirror (``set_total``) stays gone."""
        for path in self.SOURCES:
            assert ".set_total(" not in path.read_text(), path.name

    def test_the_only_private_registry_fallback_is_check_stats(self):
        """``metrics.enabled`` … else a private ``MetricsRegistry()``
        forks a component's counts into a second ledger.  One such fork
        remains — ``CheckStats.__init__``, which the live runtime's
        no-op default needs — and another cannot reappear unnoticed."""
        forks = []
        for path in self.SOURCES:
            for scope in ast.walk(ast.parse(path.read_text())):
                if not isinstance(scope, (ast.Module, ast.ClassDef)):
                    continue
                for func in scope.body:
                    if not isinstance(func, ast.FunctionDef):
                        continue
                    forks.extend(
                        (path.name, getattr(scope, "name", ""), func.name)
                        for node in ast.walk(func)
                        if isinstance(node, (ast.If, ast.IfExp))
                        and ".enabled" in ast.unparse(node.test)
                        and "MetricsRegistry()" in ast.unparse(node)
                    )
        assert forks == [("checker.py", "CheckStats", "__init__")]


class TestOneTable:
    """A checker's blocked statuses live in one dict,
    ``ResourceDependency._statuses``; what is derived from it subscribes
    to the store.  The mirror-and-resync it replaced cannot grow back
    unnoticed."""

    def test_the_resync_path_stays_gone(self):
        for path in TestOneLedger.SOURCES:
            text = path.read_text()
            for name in ("_maybe_resync", "_my_generation", "resyncs_total"):
                assert name not in text, (path.name, name)

    def test_the_incremental_checker_restates_no_store_write(self):
        from repro.core.incremental import IncrementalChecker

        for name in ("set_blocked", "clear"):
            assert name not in IncrementalChecker.__dict__, name

    def test_one_class_in_core_holds_a_statuses_dict(self):
        holders = []
        for path in sorted((REPO / "src" / "repro" / "core").glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                if any(
                    isinstance(target, ast.Attribute)
                    and target.attr == "_statuses"
                    for node in ast.walk(cls)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in getattr(node, "targets", None)
                    or [node.target]
                ):
                    holders.append((path.name, cls.name))
        assert holders == [("dependency.py", "ResourceDependency")]


class TestOneStamp:
    """A published status is its own stamp: the store answers "still
    current?" by identity.  A per-publication stamp field, the write
    that existed to put one back, and its batch op cannot come back
    unnoticed."""

    def test_no_status_is_built_with_or_read_through_a_stamp(self):
        found = []
        for root in ("src", "tests"):
            for path in sorted((REPO / root).rglob("*.py")):
                text = path.read_text()
                if "generation" not in text:
                    continue
                for node in ast.walk(ast.parse(text)):
                    if (isinstance(node, ast.keyword) and node.arg == "generation"
                            or isinstance(node, ast.Attribute)
                            and node.attr == "generation"):
                        found.append((path.name, node.lineno))
        assert found == []

    def test_no_restore_write_in_core(self):
        for path in sorted((REPO / "src" / "repro" / "core").glob("*.py")):
            assert "def restore" not in path.read_text(), path.name

    def test_apply_batch_takes_only_set_and_clear(self):
        from repro.core import DeadlockChecker, IncrementalChecker
        from repro.core.events import waiting_on

        for engine in (DeadlockChecker, IncrementalChecker):
            with pytest.raises(ValueError, match="unknown batch op"):
                engine().apply_batch([("restore", "t", waiting_on("p", 1, p=1))])


class TestOneStatusWrite:
    """A status is its waits and registrations, a delta its ``set`` and
    ``clear``: every writer emits those and nothing else, and every
    reader refuses the stamp-era ``generation`` slot, ``restore``
    section and the versions that carried them."""

    DELTA_MEMBERS = {"v", "stream", "seq", "kind", "set", "clear", "trace"}

    @staticmethod
    def blob():
        return {"waits": [["p", 1]], "registered": {"p": 1}}

    def stamp_era_deltas(self):
        """A v2 delta, a ``restore`` member, a ``generation`` blob: each a
        well-formed current snapshot but for one member."""
        from repro.distributed.delta import make_snapshot

        good = make_snapshot(1, {"a": self.blob()}, "S")
        return {
            "v2": {**good, "v": 2},
            "restore": {**good, "restore": {}},
            "generation": {**good, "set": {"a": {**self.blob(), "generation": 0}}},
        }

    def test_a_status_writes_its_two_facts(self):
        from repro.core.events import waiting_on
        from repro.trace.events import status_to_obj

        obj = status_to_obj(waiting_on("p", 1, p=1, q=0))
        assert obj == {"waits": [["p", 1]], "registered": {"p": 1, "q": 0}}

    def test_every_delta_written_has_only_the_protocol_members(self):
        from repro.core.events import waiting_on
        from repro.distributed.delta import (
            DeltaPublisher,
            encode_bucket,
            make_snapshot,
        )

        emitted = [make_snapshot(1, {}, "S"),
                   make_snapshot(2, {"a": self.blob()}, "S", trace={"span": "x"})]
        for carry_trace in (False, True):
            pub = DeltaPublisher("s0", stream="S", carry_trace=carry_trace)
            for phase in range(1, 80):  # deltas and cadence checkpoints
                bucket = encode_bucket({
                    f"t{i}": waiting_on("p", phase + i, p=phase + i)
                    for i in range(phase % 4)
                })
                obj = pub.prepare(bucket)
                if obj is not None:
                    pub.commit(obj)
                    emitted.append(obj)
        assert {obj["kind"] for obj in emitted} == {"delta", "snapshot"}
        for obj in emitted:
            assert set(obj) <= self.DELTA_MEMBERS, sorted(obj)
            for blob in obj["set"].values():
                assert set(blob) == {"waits", "registered"}

    @pytest.mark.parametrize("codec", ["jsonl", "binary"])
    def test_a_version_3_header_is_refused(self, codec, tmp_path):
        from repro.trace import events as ev
        from repro.trace.codec import BINARY_MAGIC, dumps, loads
        from repro.trace.events import Trace, TraceFormatError, TraceHeader
        from repro.trace.stream import iter_load

        data = dumps(Trace(TraceHeader(), (ev.unblock(0, "t"),)), codec)
        if codec == "binary":
            assert data[len(BINARY_MAGIC)] == 4
            data = data[:len(BINARY_MAGIC)] + b"\x03" + data[len(BINARY_MAGIC) + 1:]
        else:
            assert data.count(b'"version":4') == 1
            data = data.replace(b'"version":4', b'"version":3')
        path = tmp_path / "v3.trace"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="version"):
            loads(data)
        for policy in ("error", "ignore"):
            with pytest.raises(TraceFormatError, match="version"):
                iter_load(path, on_truncation=policy)

    @pytest.mark.parametrize("member", ["v2", "restore", "generation"])
    def test_a_stamp_era_delta_is_refused_by_every_door(self, member):
        import json

        from repro.distributed.net.service import CheckerServiceCore
        from repro.trace.codec import loads
        from repro.trace.events import TraceFormatError, delta_payload_from_obj

        obj = self.stamp_era_deltas()[member]
        with pytest.raises(TraceFormatError):
            delta_payload_from_obj(obj)
        line = {"seq": 0, "kind": "publish_delta", "site": "s0", "payload": obj}
        header = {"magic": "armus-trace", "version": 4, "meta": {}}
        with pytest.raises(TraceFormatError):
            loads(f"{json.dumps(header)}\n{json.dumps(line)}\n".encode())
        core = CheckerServiceCore()
        response = core.handle(
            {"op": "append_delta", "tenant": "t", "site": "s0", "obj": obj}
        )
        assert response["ok"] is False and response["error"] == "value"
        assert core.tenant_names() == []


class TestOneSCCStructure:
    """Cycle maintenance has one implementation, the pure-Python
    ``DynamicSCC``.  A compiled twin, its selection knob and the shared
    base class it forced cannot come back unnoticed."""

    def test_no_c_source_under_src(self):
        assert not sorted((REPO / "src").rglob("*.c"))

    def test_no_module_names_the_kernel_or_its_knob(self):
        # Spelt in halves so that this file does not match itself.
        names = ("_native" + "scc", "REPRO_" + "NATIVE")
        for root in ("src", "tests"):
            for path in sorted((REPO / root).rglob("*.py")):
                text = path.read_text()
                for name in names:
                    assert name not in text, (path.name, name)

    def test_native_module_holds_only_the_benchmark_stand_ins(self):
        from repro.core import _native

        tree = ast.parse(pathlib.Path(_native.__file__).read_text())
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
        defined = [getattr(node, "name", None) for node in tree.body
                   if not isinstance(node, ast.Expr)]
        assert defined == ["native_available", "native_enabled"]
        assert not _native.native_available() and not _native.native_enabled()

    def test_the_incremental_checker_maintains_a_dynamic_scc(self):
        from repro.core.incremental import IncrementalChecker
        from repro.core.scc import DynamicSCC

        assert DynamicSCC.__bases__ == (object,)
        assert type(IncrementalChecker()._scc) is DynamicSCC


class TestOneReportContract:
    """Every consumer, replay included, gets one report per check: the
    canonical cycle of the whole state.  The per-component contract,
    its flag, its model rule and its golden cannot come back unnoticed."""

    # Spelt in halves so that this file does not match itself.
    NAMES = (
        "check_" + "sharded", "snapshot_" + "components",
        "select_" + "shard_model", "SMALL_" + "SHARD_TASKS",
        "shard_" + "components", "shard-" + "components",
        "extract_cycle_" + "within", "edges_" + "within",
        "expected_replay_" + "sharded",
    )

    def test_no_file_names_the_sharded_path(self):
        paths = [REPO / ".github" / "workflows" / "ci.yml"]
        for root in ("src", "tests"):
            paths.extend(sorted((REPO / root).rglob("*.py")))
        for path in paths:
            text = path.read_text()
            for name in self.NAMES:
                assert name not in text, (path.name, name)

    def test_check_takes_no_model_override(self):
        import inspect

        from repro.core import DeadlockChecker, IncrementalChecker

        for cls in (DeadlockChecker, IncrementalChecker):
            assert "model" not in inspect.signature(cls.check).parameters

    def test_the_cli_has_no_sharding_flag(self, capsys):
        from repro.trace.cli import main

        with pytest.raises(SystemExit) as usage:
            main(["replay", "x.jsonl", "--" + "shard-" + "components"])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOneTraceFormat:
    """One publication record, one trace version, one delta version.
    The whole-bucket ``publish`` kind and the versions before them cannot
    come back unnoticed."""

    # Spelt in halves so that this file does not match itself.
    PATTERNS = (
        r"RecordKind\.PUB" + r"LISH\b", r"\bev\.pub" + r"lish\(",
        "SUPPORTED_" + "VERSIONS", "_observe_" + "publish",
    )

    def test_no_file_names_the_retired_format(self):
        paths = [REPO / ".github" / "workflows" / "ci.yml"]
        for root in ("src", "tests"):
            paths.extend(sorted((REPO / root).rglob("*.py")))
        for path in paths:
            text = path.read_text()
            for pattern in self.PATTERNS:
                assert not re.search(pattern, text), (path.name, pattern)

    def test_one_record_kind_publishes(self):
        from repro.trace import codec
        from repro.trace.events import RecordKind

        assert [k.value for k in RecordKind if "publish" in k.value] == [
            "publish_delta"
        ]
        assert sorted(codec._TAG_KINDS) == [1, 2, 3, 4, 6]

    def test_writers_and_readers_share_one_version(self):
        from repro.distributed.delta import PROTOCOL_VERSION, make_snapshot
        from repro.trace.events import (
            TRACE_VERSION,
            TraceFormatError,
            TraceHeader,
            delta_payload_from_obj,
        )

        assert TraceHeader().version == TRACE_VERSION
        for version in range(1, TRACE_VERSION):
            with pytest.raises(TraceFormatError):
                TraceHeader(version=version)
        delta = make_snapshot(1, {}, "S")
        assert delta_payload_from_obj(delta)["v"] == PROTOCOL_VERSION
        for version in range(1, PROTOCOL_VERSION):
            with pytest.raises(TraceFormatError):
                delta_payload_from_obj({**delta, "v": version})


class TestOneValueOneConstant:
    """A value that no two callers set differently is a module constant,
    not an option.  The options only one caller set, and the code paths
    only they selected, cannot come back unnoticed."""

    #: (module, callable, the parameters it no longer takes)
    REMOVED = (
        ("repro.trace.parallel", "replay_corpus", ("stream", "threshold_factor")),
        ("repro.trace.replay", "replay", ("threshold_factor",)),
        ("repro.trace.stream", "StreamingRecorder", ("flush_every",)),
        ("repro.distributed.detector", "DistributedChecker", ("threshold_factor",)),
        ("repro.distributed.store", "InMemoryStore", ("max_log",)),
        ("repro.distributed.delta", "DeltaPublisher",
         ("checkpoint_every", "checkpoint_ratio")),
        ("repro.distributed.site", "Site", ("checkpoint_every",)),
        ("repro.core.monitor", "DetectionMonitor", ("once",)),
        ("repro.obs.tracing", "Tracer", ("maxlen",)),
        ("repro.predict.engine", "Predictor", ("max_cycle_len", "max_steps")),
        ("repro.predict.parallel", "predict_corpus", ("max_cycle_len", "max_steps")),
        ("repro.predict.engine", "predict_trace",
         ("max_cycle_len", "max_steps", "max_candidates")),
        ("repro.workloads.common", "make_runtime", ("poll_s",)),
    )

    @pytest.mark.parametrize(
        "module, name, removed", REMOVED, ids=[name for _, name, _ in REMOVED]
    )
    def test_the_callable_takes_none_of_its_removed_options(
        self, module, name, removed
    ):
        import inspect

        parameters = inspect.signature(
            getattr(importlib.import_module(module), name)
        ).parameters
        assert not set(removed) & set(parameters), (name, removed)

    def test_the_values_two_callers_set_differently_stay(self):
        import inspect

        from repro.core import DeadlockChecker, IncrementalChecker
        from repro.distributed.delta import DeltaPublisher
        from repro.predict.engine import Predictor
        from repro.predict.parallel import predict_corpus
        from repro.runtime.verifier import ArmusRuntime
        from repro.trace.replay import replay

        kept = {
            DeadlockChecker: ("model", "threshold_factor"),
            IncrementalChecker: ("model", "threshold_factor"),
            ArmusRuntime: ("model", "threshold_factor", "cancel_on_detect"),
            DeltaPublisher: ("adaptive",),
            Predictor: ("max_candidates",),
            predict_corpus: ("max_candidates",),
            replay: ("model", "stream"),
        }
        for owner, names in kept.items():
            parameters = inspect.signature(owner).parameters
            for name in names:
                assert name in parameters, (owner.__name__, name)
        # ``replay(stream=)`` is ignored, and says which callers it is for.
        assert "benchmarks/e2e/workloads.py" in replay.__doc__

    @pytest.mark.parametrize("verb", ["replay", "explain", "record"])
    def test_no_verb_takes_a_stream_flag(self, verb, capsys):
        from repro.trace.cli import main

        argv = {
            "replay": ["replay", "x.trace"],
            "explain": ["explain", "x.trace"],
            "record": ["record", "--out", "x.trace"],
        }[verb]
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--stream"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    def test_nothing_passes_stream_to_replay(self):
        calls = []
        for root in ("src", "tests"):
            for path in sorted((REPO / root).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name == "replay" and any(
                        k.arg == "stream" for k in node.keywords
                    ):
                        calls.append((path.name, node.lineno))
        assert not calls

    def test_no_ci_step_passes_the_stream_flag(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "--stream" not in ci


class TestOneReplayDoor:
    """One entry point replays a trace, and it runs the maintained
    engine unless asked for the from-scratch reference.  The engine
    class and the opt-in flag cannot come back unnoticed."""

    def test_no_file_names_the_engine_class(self):
        name = b"Replay" + b"Engine"  # spelt in halves: no self-match
        for root in ("src", "tests", "benchmarks"):
            for path in sorted((REPO / root).rglob("*")):
                if path.is_file():
                    assert name not in path.read_bytes(), path

    def test_the_maintained_engine_is_the_default(self):
        import inspect

        from repro.trace.parallel import replay_corpus
        from repro.trace.replay import replay

        for door in (replay, replay_corpus):
            parameter = inspect.signature(door).parameters["incremental"]
            assert parameter.default is True, door.__name__

    @pytest.mark.parametrize("verb", ["replay", "explain"])
    def test_the_opt_in_flag_is_gone(self, verb, capsys):
        from repro.trace.cli import main

        with pytest.raises(SystemExit) as usage:
            main([verb, "x.trace", "--incremental"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --incremental" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, series", [
        ((), True), (("--from-scratch",), False),
    ], ids=["default", "from-scratch"])
    def test_a_corpus_replay_runs_the_engine_it_names(
        self, extra, series, tmp_path, capsys
    ):
        from repro.trace.cli import main

        out = tmp_path / "metrics.json"
        corpus = REPO / "tests" / "trace" / "corpus"
        assert main(["replay", str(corpus), *extra,
                     "--metrics-json", str(out)]) == 0
        names = {m["name"] for m in json.loads(out.read_text())["metrics"]}
        assert ("repro_incremental_delta_ops_total" in names) is series


class TestOneSnapshotPerCheck:
    """A check analyses its checker's own store, and a report is a
    function of the blocked set: no hook hands a checker another
    snapshot or another order, and the merge view installs nothing on
    the checker it feeds."""

    def test_no_source_names_an_order_hook(self):
        names = (b"snapshot_source", b"snapshot_reordered", b"_current_snapshot")
        for path in sorted((REPO / "src").rglob("*.py")):
            text = path.read_bytes()
            for name in names:
                assert name not in text, (path, name)

    @pytest.mark.parametrize("engine", ["DeadlockChecker", "IncrementalChecker"])
    def test_the_merge_view_sets_no_attribute_on_its_checker(self, engine):
        import repro.core
        from repro.distributed.delta import DeltaMergeState

        checker = getattr(repro.core, engine)()
        before = dict(vars(checker))
        DeltaMergeState(checker)
        after = vars(checker)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


class TestWakeOnChange:
    """A verified wait ends only by a wake: no timer backs a parked
    coroutine, no timeout paces a waiting thread, and the option that
    paced them survives only as a keyword its benchmark callers pass."""

    def test_no_source_names_the_timer_fallback(self):
        names = (b"MIN_PARK_S", b"_park_timeout", b"_expire")
        for path in sorted((REPO / "src").rglob("*.py")):
            text = path.read_bytes()
            for name in names:
                assert name not in text, (path, name)
        for path in sorted((REPO / "src" / "repro" / "aio").rglob("*.py")):
            assert b"call_later" not in path.read_bytes(), path

    def test_a_park_takes_no_timeout(self):
        import inspect

        from repro.aio.notify import LoopNotifier

        assert list(inspect.signature(LoopNotifier.park).parameters) == ["self"]

    def test_the_thread_driver_waits_without_a_timeout(self):
        path = REPO / "src" / "repro" / "runtime" / "observer.py"
        waits = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "wait"
        ]
        assert waits
        assert all(not w.args and not w.keywords for w in waits)

    def test_nothing_passes_poll_s(self):
        calls = []
        for root in ("src", "tests", "examples"):
            for path in sorted((REPO / root).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call) and any(
                        k.arg == "poll_s" for k in node.keywords
                    ):
                        calls.append((path.name, node.lineno))
        assert not calls

    def test_the_ignored_keyword_names_its_callers(self):
        from repro.runtime.verifier import ArmusRuntime

        assert not hasattr(ArmusRuntime(), "poll_s")
        assert "benchmarks/e2e/workloads.py" in ArmusRuntime.__doc__


class TestValueTypes:
    """The values a cyclic report is made of — every SG vertex, every
    edge's provenance — hash, compare and sort as tuples, in C.  A
    Python-level ``__hash__`` on ``Event`` cost a cyclic service check
    18 k interpreted calls."""

    def test_event_identity_is_the_tuples_own(self):
        from repro.core.events import Event

        assert issubclass(Event, tuple)
        for name in ("__hash__", "__eq__", "__lt__"):
            assert name not in Event.__dict__, name

    def test_provenance_records_are_tuples(self):
        from repro.core.report import EdgeProvenance, RecordOrigin

        assert issubclass(EdgeProvenance, tuple)
        assert issubclass(RecordOrigin, tuple)

    @pytest.mark.parametrize("model", ["wfg", "sg"])
    def test_a_report_with_provenance_survives_the_wire_form(self, model):
        import json

        from repro.core import DeadlockChecker, GraphModel
        from repro.core.events import waiting_on
        from repro.core.report import RecordOrigin
        from repro.obs.tracing import OriginTracker, attach_provenance
        from repro.trace.events import report_from_obj, report_to_obj

        checker = DeadlockChecker(model=GraphModel(model))
        checker.set_blocked("a", waiting_on("p", 1, p=1, q=0))
        checker.set_blocked("b", waiting_on("q", 1, q=1, p=0))
        tracker = OriginTracker()
        tracker.origins["a"] = RecordOrigin(3, "block")
        tracker.origins["b"] = RecordOrigin(
            7, "publish_delta", site="B", stream="s", seq=2
        )
        tracker.last_ordinal = 9
        report, _ = attach_provenance(
            checker.check(), tracker, checker.dependency.snapshot().statuses
        )
        assert report.model_used.value == model and report.detection_lag == 2
        wire = json.loads(json.dumps(report_to_obj(report)))
        decoded = report_from_obj(wire)
        assert decoded == report
        assert decoded.cycle_key == report.cycle_key
        assert report_to_obj(decoded) == report_to_obj(report)


class TestExamples:
    def test_examples_present_and_parse(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 4
        for path in examples:
            tree = ast.parse(path.read_text())
            docstring = ast.get_docstring(tree)
            assert docstring and "Run::" in docstring, path.name

    def test_quickstart_is_the_entry_point(self):
        assert (REPO / "examples" / "quickstart.py").exists()
