"""The document-shard runner behind `--jobs`: planner and forked children.

`extract`, `wsd` and `tune` run over contiguous document shards: the parent
runs the first and a forked child each other one.  Each shard reads and
counts its own documents, and all train on the merged counts; `tune` then
merges its shards' sense counts.  The output, and the error of a failing
run, must not change by a byte.
"""

import os
import pickle
import re
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import shards
from templex.cli import main
from templex.shards import plan_shards
from templex.errors import CycleError, ParseError
from helpers import corpus_texts, document_cuts_oracle, fixture_path, fixture_text

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


@pytest.mark.parametrize("order", [
    "bg-first", "fg-first",
    pytest.param("bg-first --ospd off", id="bg-first-ospd-off"),
    pytest.param("fg-first --ospd off", id="fg-first-ospd-off")])
@pytest.mark.parametrize("command", ["extract", "wsd", "wsd-fg", "tune"])
def test_output_identical_across_jobs(tmp_path, replica, pools, command, order):
    pipeline, *ospd = order.split()
    args = [command.split("-")[0],
            "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", replica, *ospd]
    # `tune` runs no foreground matcher, the only reader of --order
    if command != "tune":
        args += ["--order", pipeline]
    if command not in ("wsd", "tune"):
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
    elif command == "tune":
        # `bank` occurs in every copy, so its counts come from every shard;
        # without OSPD, a `bank` the classifier tags LOCATION keeps s2
        assert text.startswith("tunedlex v1\ncorpus replica.vrt\n")
        assert ("\neject bank noun s2\n" in text) == ("--ospd off" not in order)
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


def test_one_job_starts_no_pool(tmp_path, replica, pools, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-shard run pickled")

    for name in ("dump", "dumps", "load", "loads"):
        monkeypatch.setattr(pickle, name, refuse)
    lexicons = ["--ontology", fixture_path("succession.onto"),
                "--bg-lexicon", fixture_path("succession.bglex"),
                "--collapse-map", fixture_path("succession.collapse")]
    args = ["extract", *lexicons, "--fg-lexicon", fixture_path("succession.fglex")]
    assert main([*args, "--corpus", replica, "--jobs", "1", "--output", str(tmp_path / "o")]) == 0
    assert main(["tune", *lexicons, "--corpus", replica, "--jobs", "1",
                 "--output", str(tmp_path / "t")]) == 0
    # a raw-text corpus is one document, so one shard at any --jobs
    raw = tmp_path / "raw.txt"
    raw.write_text("The school dismissed the teacher. The firm sacked the manager.\n")
    assert main([*args, "--corpus", str(raw), "--raw", "--jobs", "3",
                 "--output", str(tmp_path / "r")]) == 0
    assert '"doc": "raw"' in (tmp_path / "r").read_text()
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


def concat(parts):
    return [x for part in parts for x in part]


def test_every_shard_trains_on_the_merged_counts(monkeypatch, alarm):
    def job(lo, hi, share):
        return f"{lo}-{hi}:{share([lo, hi])}"

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    merged = [0, 2, 2, 4, 4, 6]
    assert shards.run_shards(job, [5] * 6, 3, concat) == [
        f"0-2:{merged}", f"2-4:{merged}", f"4-6:{merged}"]
    assert_no_child_left()


def test_dead_worker_fails_the_run(monkeypatch, alarm):
    def job(lo, hi, share):
        if lo > 0:
            os._exit(1)  # as if killed mid-shard
        share([lo])
        return "ok"

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(OSError, match=r"shard worker process died \(exit code 1\)"):
        shards.run_shards(job, [5, 5], 2, concat)
    assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError("duplicate document id d01"),
                                 ParseError("bad number 'x'", path="t.tl", line=3)])
def test_child_error_reaches_the_parent(monkeypatch, alarm, exc):
    def job(lo, hi, share):
        if lo == 2:
            raise exc
        return str(share([lo]))

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(type(exc)) as info:
        shards.run_shards(job, [5, 5, 5], 3, concat)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert_no_child_left()


def test_parent_error_kills_the_children(monkeypatch, alarm):
    def job(lo, hi, share):
        if lo == 0:
            raise ValueError("first shard failed")
        time.sleep(60)  # killed by the parent long before

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValueError, match="first shard failed"):
        shards.run_shards(job, [5, 5, 5], 3, concat)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("fault", ["child exits", "child raises", "parent raises"])
def test_errors_after_the_counts_are_shared(monkeypatch, alarm, fault):
    def job(lo, hi, share):
        share([lo])
        if fault == "child exits" and lo > 0:
            os._exit(1)
        if fault == "child raises" and lo == 2 or fault == "parent raises" and lo == 0:
            raise ValueError(f"shard {lo} failed")
        if fault == "parent raises":
            time.sleep(60)  # killed by the parent long before
        return str(lo)

    expected = {"child exits": (OSError, r"shard worker process died \(exit code 1\)"),
                "child raises": (ValueError, "shard 2 failed"),
                "parent raises": (ValueError, "shard 0 failed")}[fault]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(expected[0], match=expected[1]):
        shards.run_shards(job, [5, 5, 5], 3, concat)
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


# ------------------------------------------- errors at every --jobs value

def run_args(command, corpus, out):
    args = [command, "--ontology", fixture_path("succession.onto"),
            "--bg-lexicon", fixture_path("succession.bglex"),
            "--collapse-map", fixture_path("succession.collapse"),
            "--corpus", str(corpus), "--output", str(out)]
    if command == "extract":
        args += ["--fg-lexicon", fixture_path("succession.fglex")]
    return args


def errors_at_each_jobs(command, corpus, tmp_path, capsys, jobs=("1", "2", "3")):
    """stderr of runs at each --jobs value, each of which must exit 2 and leave no child."""
    errors = []
    for n in jobs:
        assert main([*run_args(command, corpus, tmp_path / "out"), "--jobs", n]) == 2
        errors.append(capsys.readouterr().err)
        assert_no_child_left()
    return errors


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def replica_lines(replica):
    return read_text(replica).splitlines()


def edited(tmp_path, lines, edits):
    lines = list(lines)
    for i, line in edits.items():
        lines[i] = line
    path = tmp_path / "edited.vrt"
    path.write_text("\n".join(lines) + "\n")
    return path


def last_token_line(lines):
    return max(i for i, line in enumerate(lines) if line.count("\t") == 2)


def doc_line(lines, doc_id):
    return lines.index(f"#DOC {doc_id}")


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
def test_bad_token_line_in_the_last_shard(tmp_path, replica, pools, capsys, command):
    lines = replica_lines(replica)
    at = last_token_line(lines)
    path = edited(tmp_path, lines, {at: "broken"})
    errors = errors_at_each_jobs(command, path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}:{at + 1}: "
                      "expected 3 tab-separated columns, got 1\n"] * 3
    assert pools == [2, 3]  # read in a child


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
def test_non_utf8_byte_in_the_last_shard(tmp_path, replica, pools, capsys, command):
    lines = replica_lines(replica)
    at = last_token_line(lines)
    path = tmp_path / "latin1.vrt"
    lines[at] = lines[at].replace("\t", "\xe9\t", 1)
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    errors = errors_at_each_jobs(command, path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}:{at + 1}: "
                      "not UTF-8: byte 0xe9 (invalid continuation byte)\n"] * 3
    assert pools == []  # read whole in the parent, before any fork


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
@pytest.mark.parametrize("case", ["repeat", "repeat then bad token", "bad token then repeat",
                                  "repeat of the unnamed first document"])
def test_repeated_id_across_shards(tmp_path, replica, pools, capsys, command, case):
    lines = replica_lines(replica)
    early, late = doc_line(lines, "c1_d03"), doc_line(lines, "c2_d05")
    if case == "repeat":
        edits = {late: "#DOC c0_d05"}
        first = f"{late + 1}: duplicate document id c0_d05"
    elif case == "repeat of the unnamed first document":
        # tokens before the first `#DOC` line form a document named after the file
        edits = {0: "firm\tfirm\tNN", late: "#DOC edited"}
        first = f"{late + 1}: duplicate document id edited"
    elif case == "repeat then bad token":
        edits = {early: "#DOC c0_d03", last_token_line(lines): "broken"}
        first = f"{early + 1}: duplicate document id c0_d03"
    else:
        edits = {early + 1: "broken", late: "#DOC c0_d05"}
        first = f"{early + 2}: expected 3 tab-separated columns, got 1"
    path = edited(tmp_path, lines, edits)
    errors = errors_at_each_jobs(command, path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}:{first}\n"] * 3


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
@pytest.mark.parametrize("bad", ["#DOC", "#DOC c1_d01 extra"])
def test_bad_doc_line_at_a_shard_cut(tmp_path, replica, pools, capsys, command, bad):
    lines = replica_lines(replica)
    text = read_text(replica)
    cuts = shards.document_cuts(text, "replica")
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    # the first line of the second shard at --jobs 2 and at --jobs 3
    at = {text.count("\n", 0, cuts[plan_shards(sizes, jobs, 3)[1][0]]) for jobs in (2, 3)}
    assert len(at) == 2 and all(lines[i].startswith("#DOC ") for i in at)
    path = edited(tmp_path, lines, {i: bad for i in at})
    errors = errors_at_each_jobs(command, path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}:{min(at) + 1}: expected `#DOC <id>`\n"] * 3


@pytest.mark.parametrize("command", ["extract", "tune"])
@pytest.mark.parametrize("brk", ["\x0c", "\u2028"])
def test_line_numbers_count_every_line_break(tmp_path, replica, pools, capsys, command,
                                             brk):
    """Line numbers count every break str.splitlines knows, also in a child
    whose shard starts after such a break."""
    lines = replica_lines(replica)
    at = last_token_line(lines)
    lines[at] = "broken"
    # every third line ends in `brk`; so do some of those before `#DOC` lines
    text = "".join(line + (brk if i % 3 == 0 else "\n") for i, line in enumerate(lines))
    path = tmp_path / "breaks.vrt"
    path.write_text(text, encoding="utf-8")
    assert len(shards.document_cuts(text, "breaks")) == 7 * COPIES + 1
    assert any(lines[i].startswith("#DOC") for i in range(1, len(lines), 3))
    errors = errors_at_each_jobs(command, path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}:{at + 1}: "
                      "expected 3 tab-separated columns, got 1\n"] * 3
    assert pools == [2, 3]


@settings(max_examples=300, deadline=None)
@given(text=corpus_texts(), doc_id=st.sampled_from(["t", "a"]))
def test_document_cuts_are_the_line_loop_cuts(text, doc_id):
    cuts = shards.document_cuts(text, doc_id)
    assert cuts[0] == 0 and cuts[-1] == len(text)
    assert [len(text[:cut].splitlines()) for cut in cuts] \
        == document_cuts_oracle(text.splitlines(), doc_id)
    # a block after the first starts a line with `#DOC`
    assert all(text.startswith("#DOC", cut) for cut in cuts[1:-1])


def comment_documents(ids, size):
    """A `#DOC` line per id, each followed by a comment `size` long, which
    weighs in the shard plan like text."""
    return [line for i in ids for line in (f"#DOC {i}", "# " + "x" * size)]


@pytest.mark.parametrize("case, message", [
    ("empty", "empty corpus"),
    ("no anchors", "no training anchors found (corpus/lexicon mismatch)"),
    ("empty shards, then no anchors",
     "no training anchors found (corpus/lexicon mismatch)")])
def test_tune_errors_are_judged_on_the_whole_corpus(tmp_path, pools, capsys, case,
                                                    message):
    lines = comment_documents(["e0", "e1", "e2"], 800)
    if case != "empty":  # a lemma the lexicon lacks, in every document that has words
        lines = [line for i in range(3) for line in (f"#DOC z{i}", "zzz\tzzz\tNN")]
    if case == "empty shards, then no anchors":
        lines = comment_documents(["e0", "e1"], 800) + lines[:2]
    path = tmp_path / "t.vrt"
    path.write_text("\n".join(lines) + "\n")
    errors = errors_at_each_jobs("tune", path, tmp_path, capsys)
    assert errors == [f"templex: error: {path}: {message}\n"] * 3
    assert pools == [2, 3]


def test_tune_shards_without_sentences_join_the_rest(tmp_path, replica, pools):
    """Shards of comments only count nothing, and the corpus is not empty."""
    text = fixture_text("succession.vrt")
    path = tmp_path / "mixed.vrt"
    path.write_text("\n".join(comment_documents(["e0", "e1"], len(text))) + "\n" + text)
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        assert main([*run_args("tune", path, out), "--jobs", jobs]) == 0
        outputs.append(out.read_bytes())
    assert pools == [2, 3]
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"\neject bank noun s2\n" in outputs[0]


def test_tune_unites_the_contexts_of_every_shard(tmp_path, replica, pools):
    """`bank` occurs 6 times in each of the replica's 3 copies, and no shard
    at `--jobs` 2 or 3 holds all 3: only the shards' summed counts reach 18
    occurrences, where its unassigned sense is ejected."""
    for threshold, ejected in (("18", True), ("19", False)):
        outputs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"out{jobs}"
            args = [*run_args("tune", replica, out), "--jobs", jobs,
                    "--min-occurrences", threshold]
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert (b"\neject bank noun s2\n" in outputs[0]) == ejected
    assert pools == [2, 3, 2, 3]


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
def test_no_jobs_runs_a_shard_per_cpu(tmp_path, replica, pools, command):
    """Without `--jobs`, `wsd` and `tune` fork a child per CPU after the
    first; `extract` runs in one process."""
    outputs = []
    for jobs in (["--jobs", "1"], []):
        out = tmp_path / f"out{len(jobs)}"
        assert main([*run_args(command, replica, out), *jobs]) == 0
        outputs.append(out.read_bytes())
    assert pools == ([] if command == "extract" else [3])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["extract", "wsd", "tune"])
def test_child_killed_between_the_phases(tmp_path, replica, pools, capsys, monkeypatch,
                                         alarm, command):
    """A child dies after it sent its counts and before it gets the merged
    ones.  (At --jobs 1 there is no child to kill.)"""
    from templex import wsd as wsdmod
    children = []
    fork, merge = os.fork, wsdmod.merge_counts

    def noting_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def killing_merge(parts):
        first = children[-(len(parts) - 1)]  # this run's first child
        os.kill(first, signal.SIGKILL)
        # dead, its pipes closed, but not reaped
        os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)
        return merge(parts)

    monkeypatch.setattr(os, "fork", noting_fork)
    monkeypatch.setattr(wsdmod, "merge_counts", killing_merge)
    errors = errors_at_each_jobs(command, replica, tmp_path, capsys, jobs=("2", "3"))
    assert errors == ["templex: error: a shard worker process died (signal 9)\n"] * 2
    assert pools == [2, 3]


@pytest.mark.parametrize("command", ["extract", "wsd"])
def test_unnamed_first_document_is_sharded_like_the_rest(tmp_path, replica, pools, command):
    lines = replica_lines(replica)
    path = edited(tmp_path, ["firm\tfirm\tNN", "", *lines], {})
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        assert main([*run_args(command, path, out), "--jobs", jobs]) == 0
        outputs.append(out.read_bytes())
    assert pools == [2, 3]
    assert outputs[0] == outputs[1] == outputs[2]
    assert ("edited" in outputs[0].decode()) == (command == "wsd")


def test_the_parent_reads_only_its_own_shard(tmp_path, replica, pools, monkeypatch):
    from templex import textpipe
    read, calls = textpipe.read_corpus, []

    def noting_read(text, **kwargs):
        calls.append((len(text.splitlines()), kwargs["first_line"]))
        return read(text, **kwargs)

    monkeypatch.setattr(textpipe, "read_corpus", noting_read)
    for jobs in ("1", "2"):
        args = run_args("extract", replica, tmp_path / f"out{jobs}")
        assert main([*args, "--jobs", jobs]) == 0
    lines = replica_lines(replica)
    # children read in their own processes, unseen here
    (whole, first), (own, start) = calls
    assert (whole, first, start) == (len(lines), 1, 1)
    assert 0 < own < len(lines) and lines[own].startswith("#DOC ")
    assert (tmp_path / "out1").read_bytes() == (tmp_path / "out2").read_bytes()


def test_errors_survive_the_process_boundary():
    for exc in (ParseError("bad number 'x'", path="t.tl", line=3),
                CycleError(["B", "A"], what="concept")):
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
