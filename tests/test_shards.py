"""The document-shard runner behind `--jobs`: planner and forked children.

Every stage after training looks at one document at a time, so `extract`
and `wsd` run over contiguous token-balanced document shards: the parent
runs the first and a forked child each other one; the output must not
change by a byte.
"""

import os
import pickle
import re
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import cli
from templex.cli import main, plan_shards
from templex.errors import CycleError, LexiconError, ParseError
from helpers import fixture_path, fixture_text

COPIES = 3


@pytest.fixture(scope="module")
def replica(tmp_path_factory):
    """succession.vrt copied with renamed `#DOC` ids: 21 documents."""
    text = fixture_text("succession.vrt")
    path = tmp_path_factory.mktemp("replica") / "replica.vrt"
    path.write_text("".join(re.sub(r"^#DOC (\S+)", rf"#DOC c{i}_\1", text, flags=re.M)
                            for i in range(COPIES)))
    return str(path)


@pytest.fixture
def pools(monkeypatch):
    """Shards of each run that forked (the parent's and one per child), with
    three CPUs reported.  A run forks all its children before it reaps one."""
    started = []
    fork, waitpid = os.fork, os.waitpid
    new_run = True

    def counting_fork():
        nonlocal new_run
        if new_run:
            started.append(1)
            new_run = False
        started[-1] += 1
        return fork()

    def noting_waitpid(pid, options):
        nonlocal new_run
        new_run = True
        return waitpid(pid, options)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", noting_waitpid)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return started


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def alarm():
    """Fails a test that hangs for a minute instead of blocking the run."""
    def hung(signum, frame):
        raise AssertionError("the runner waited for a child that never ends")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("order", ["bg-first", "fg-first"])
@pytest.mark.parametrize("command", ["extract", "wsd", "wsd-fg"])
def test_output_identical_across_jobs(tmp_path, replica, pools, command, order):
    args = [command.split("-")[0],
            "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica, "--order", order]
    if command != "wsd":
        args += ["--fg-lexicon", fixture_path("succession.fglex")]
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        assert main([*args, "--jobs", jobs, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert pools == [2, 3]
    assert outputs[0] == outputs[1] == outputs[2]
    text = outputs[0].decode("utf-8")
    if command == "extract":
        # the last copy, in another shard, yields what the first one does
        assert text.count('"doc": "c2_') == text.count('"doc": "c0_') >= 9
    else:
        assert text.count("#DOC ") == 7 * COPIES
        # documents stay separated by one blank line at the shard seams
        assert "\n\n#DOC c1_d01\n" in text
        assert ("/foreground" in text) == (command == "wsd-fg")


def test_tagged_output_is_the_whole_corpus_dump(tmp_path, replica):
    """The shard texts rejoin into exactly what one dump of all documents gives."""
    from templex import wsd as wsdmod
    args = ["wsd", "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica, "--jobs", "2", "--output", str(tmp_path / "t.vrt")]
    assert main(args) == 0
    text = (tmp_path / "t.vrt").read_text()
    docs, tags = wsdmod.load_tagged_corpus(text)
    header = dict(kv.split("=") for kv in text.splitlines()[0].split()[1:])
    assert wsdmod.dump_tagged_corpus(docs, tags, header) == text


def test_one_job_starts_no_pool(tmp_path, replica, pools):
    args = ["extract", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica, "--jobs", "1", "--output", str(tmp_path / "o")]
    assert main(args) == 0
    assert pools == []


def test_shards_run_inline_without_fork(tmp_path, replica, pools, monkeypatch):
    args = ["extract", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica]
    assert main([*args, "--jobs", "1", "--output", str(tmp_path / "j1")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main([*args, "--jobs", "3", "--output", str(tmp_path / "j3")]) == 0
    assert pools == []
    assert (tmp_path / "j1").read_bytes() == (tmp_path / "j3").read_bytes()


def test_dead_worker_fails_the_run(monkeypatch, alarm):
    def job(lo, hi):
        if lo > 0:
            os._exit(1)  # as if killed mid-shard
        return "ok"

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(OSError, match="shard worker process died"):
        cli._run_shards(job, [5, 5], 2)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("duplicate document id d01"),
                                 ParseError("bad number 'x'", path="t.tl", line=3)])
def test_child_error_reaches_the_parent(monkeypatch, alarm, exc):
    def job(lo, hi):
        if lo == 2:
            raise exc
        return str(lo)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(type(exc)) as info:
        cli._run_shards(job, [5, 5, 5], 3)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert_no_child_left()


def test_parent_error_kills_the_children(monkeypatch, alarm):
    def job(lo, hi):
        if lo == 0:
            raise ValueError("first shard failed")
        time.sleep(60)  # killed by the parent long before

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="first shard failed"):
        cli._run_shards(job, [5, 5, 5], 3)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("no candidate classes"),
                                 ParseError("bad tag", path="x.vrt", line=4)])
def test_child_error_exits_two(tmp_path, replica, pools, monkeypatch, capsys, exc):
    from templex import textpipe
    analyze = textpipe.analyze

    def failing_analyze(doc):
        if doc.doc_id == "c2_d01":  # in the last of three shards
            raise exc
        return analyze(doc)

    monkeypatch.setattr(textpipe, "analyze", failing_analyze)
    args = ["extract", "--ontology", fixture_path("succession.onto"),
            "--fg-lexicon", fixture_path("succession.fglex"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica, "--jobs", "3", "--output", str(tmp_path / "o")]
    assert main(args) == 2
    assert pools == [3]
    assert capsys.readouterr().err == f"templex: error: {exc}\n"
    assert_no_child_left()


def test_errors_survive_the_process_boundary():
    for exc in (ParseError("bad number 'x'", path="t.tl", line=3, column=7),
                CycleError(["B", "A"], what="concept"),
                LexiconError("t.tl: bank/noun/s1: unknown class X")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


# ------------------------------------------------------------- planner

def refuse_processes(patch):
    def refuse(*args, **kwargs):
        raise AssertionError("the shard planner started a process")

    patch.setattr(os, "fork", refuse)


@pytest.fixture
def no_processes(monkeypatch):
    refuse_processes(monkeypatch)


def check_plan(sizes, jobs, cpus):
    shards = plan_shards(sizes, jobs, cpus)
    n = min(jobs, len(sizes), cpus)
    assert 0 < len(shards) <= n or (not sizes and shards == [])
    # contiguous, in order, non-empty, every document exactly once
    assert [i for lo, hi in shards for i in range(lo, hi)] == list(range(len(sizes)))
    assert all(lo < hi for lo, hi in shards)
    if sizes:
        # token-balanced: no shard exceeds its share by more than one document
        share = sum(sizes) / len(shards)
        for lo, hi in shards:
            assert sum(sizes[lo:hi]) <= share + max(sizes)
    return shards


def test_plan_balances_tokens_not_documents(no_processes):
    sizes = [100, 1, 1, 1, 1, 96]
    assert check_plan(sizes, 2, 2) == [(0, 1), (1, 6)]
    assert check_plan([10] * 7, 3, 8) == [(0, 2), (2, 5), (5, 7)]


def test_plan_caps_shards(no_processes):
    sizes = [5] * 10
    assert len(check_plan(sizes, 10**18, 4)) == 4       # cpus
    assert len(check_plan(sizes, 3, 10**6)) == 3        # jobs
    assert len(check_plan(sizes[:2], 10**18, 10**6)) == 2  # documents
    assert check_plan(sizes, 1, 4) == [(0, 10)]
    assert check_plan([], 4, 4) == []


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(0, 500), max_size=60),
       jobs=st.one_of(st.integers(1, 70), st.just(10**18)),
       cpus=st.integers(1, 70))
def test_plan_properties(sizes, jobs, cpus):
    # a function-scoped fixture does not reset between hypothesis examples,
    # so the process guard is installed per example
    with pytest.MonkeyPatch.context() as patch:
        refuse_processes(patch)
        check_plan(sizes, jobs, cpus)
