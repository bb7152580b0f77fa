"""How `extract` and `wsd` run over contiguous document shards under `--jobs`
(docs/formats.md).  Only those two commands import this module."""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import accumulate


def plan_shards(sizes: list[int], jobs: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous `(lo, hi)` ranges of blocks of the given `sizes`, of about
    equal total size: at most min(jobs, blocks, cpus), each non-empty, all
    blocks once, in input order.  A cut falls at the block boundary nearest
    its share of the total, so no shard exceeds its share by more than the
    largest block.  No floor holds small shards back (docs/formats.md)."""
    n = min(jobs, len(sizes), cpus)
    prefix = list(accumulate(sizes, initial=0))
    cuts = [0]
    for k in range(1, n):
        target = prefix[-1] * k / n
        i = bisect_left(prefix, target)
        if i > 0 and target - prefix[i - 1] <= prefix[i] - target:
            i -= 1
        # leave at least one block for this shard and each one after it
        cuts.append(min(max(i, cuts[-1] + 1), len(sizes) - (n - k)))
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:])) if n > 0 else []


def run_shards(job, sizes: list[int], jobs: int, merge) -> list[str]:
    """`job(lo, hi, share)` over the planned shards; the texts in input order.

    A job's one call to `share(counts)` returns `merge` of every shard's
    counts.  The parent runs the first shard and forks a child, with a pipe
    each way, per other shard.  A child sends its counts (or exception),
    gets the merged counts, sends its text (or exception) and leaves with
    `os._exit`.  The parent reads the children in shard order, re-raises
    their exceptions, fails the run with OSError for a child that ends
    without a result, and on any error kills and reaps the children left.
    One shard, as on a host without fork, runs inline.
    """
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    shards = plan_shards(sizes, jobs, cpus)
    if len(shards) <= 1:
        return [job(lo, hi, None) for lo, hi in shards]
    import pickle
    children: dict = {}  # pid -> (read end of its pipe, write end of ours), until reaped

    def reap(pid: int) -> int:
        pipe, fd = children.pop(pid)
        pipe.close()
        os.close(fd)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def gather() -> list:
        results = []
        for pid, (pipe, _) in list(children.items()):
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                code = reap(pid)
                raise OSError("a shard worker process died ("
                              + (f"signal {-code}" if code < 0 else f"exit code {code}")
                              + ")") from None
            if not ok:
                raise value
            results.append(value)
        return results

    def share(counts):
        merged = merge([counts, *gather()])
        data = pickle.dumps(merged)
        for _, fd in children.values():
            try:
                with open(fd, "wb", closefd=False) as pipe:
                    pipe.write(data)
            except BrokenPipeError:
                pass  # the child died; gathering its text reports it
        return merged

    try:
        for lo, hi in shards[1:]:
            up, down = os.pipe(), os.pipe()  # child -> parent, parent -> child
            try:
                pid = os.fork()
            except OSError:
                for fd in (*up, *down):
                    os.close(fd)
                raise
            if pid == 0:
                for pipe, fd in children.values():  # the other children's
                    pipe.close()
                    os.close(fd)
                os.close(up[0])
                os.close(down[1])
                _shard_child(job, lo, hi, up[1], down[0])
            os.close(up[1])
            os.close(down[0])
            children[pid] = (open(up[0], "rb"), down[1])
        texts = [job(*shards[0], share), *gather()]
        for pid in list(children):
            reap(pid)  # it sent all it will
        return texts
    finally:
        if children:  # an error left these unreaped
            import signal
            for pid in list(children):
                os.kill(pid, signal.SIGKILL)
                reap(pid)


def _shard_child(job, lo: int, hi: int, up: int, down: int) -> None:
    """A forked child's whole life: run one shard, send each phase's outcome, exit."""
    import pickle
    code = 1
    try:
        with open(up, "wb") as out, open(down, "rb") as back:
            def share(counts):
                pickle.dump((True, counts), out)
                out.flush()
                return pickle.load(back)

            try:
                outcome = (True, job(lo, hi, share))
            except Exception as exc:
                outcome = (False, exc)
            pickle.dump(outcome, out)
        code = 0
    finally:
        # never return into the parent's stack, its `finally` blocks or
        # its atexit handlers
        os._exit(code)


def document_cuts(lines: list[str], doc_id: str) -> list[int]:
    """The first line of each document block, then the number of lines.

    A block starts at a `#DOC` line; the first also holds the lines before
    it, where a document named `doc_id` may start.  A malformed or repeated
    `#DOC` line makes the corpus one block, read as a serial run reads it.
    """
    starts = [i for i, line in enumerate(lines)
              if line[:4] == "#DOC" and line.split()[0] == "#DOC"]
    seen = set()
    if starts and any(line.strip() and line[0] != "#" for line in lines[:starts[0]]):
        seen.add(doc_id)
    for i in starts:
        parts = lines[i].split()
        if len(parts) != 2 or parts[1] in seen:
            return [0, len(lines)]
        seen.add(parts[1])
    return [0, *starts[1:], len(lines)]


def shard_texts(cfg, onto, bg, fg, render) -> list[str]:
    """Read, train, tag, match and render the corpus by shard; the texts in order.

    Shards hold about equal numbers of lines.  bg-first feeds the final
    background tags into the matcher; fg-first matches on the
    coarse-unambiguous tags alone, taken before OSPD.  `render(docs,
    analyses, tags, matches)` turns a shard into text; analyses and matches
    are None without a foreground lexicon.
    """
    from . import textpipe
    from . import wsd as wsdmod

    with open(cfg.corpus, encoding="utf-8") as fh:
        # raw text is one document: one block, held as one line
        lines = [fh.read()] if cfg.raw else fh.read().splitlines()
    doc_id = os.path.splitext(os.path.basename(cfg.corpus))[0]
    cuts = [0, 1] if cfg.raw else document_cuts(lines, doc_id)

    def job(lo: int, hi: int, share) -> str:
        nonlocal lines
        docs = textpipe.read_corpus(lines[0] if cfg.raw else lines[cuts[lo]:cuts[hi]],
                                    raw=cfg.raw, doc_id=doc_id, path=cfg.corpus,
                                    first_line=cuts[lo] + 1)
        if cfg.raw:
            docs = [textpipe.tag_fallback(d) for d in docs]
        lines = None  # read: free the corpus text before the run builds its records
        model = wsdmod.train_bayes(docs, bg, cfg.window, cfg.alpha, share=share)
        tags = wsdmod.disambiguate_background(model, docs, bg)
        anchors = ({k: t for k, t in tags.items() if t.method == "unambiguous"}
                   if cfg.order == "fg-first" else None)
        if cfg.ospd:
            tags = wsdmod.apply_ospd(tags, bg)
        if fg is None:
            return render(docs, None, tags, None)
        analyses = [textpipe.analyze(d) for d in docs]
        matches, _ = wsdmod.match_foreground(
            analyses, fg, tags if anchors is None else anchors, onto, bg, lang=cfg.lang,
            passive_lone=cfg.passive_implicature, window=cfg.window)
        return render(docs, analyses, tags, matches)

    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    return run_shards(job, sizes, cfg.jobs, wsdmod.merge_counts)
