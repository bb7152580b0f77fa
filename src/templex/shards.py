"""How `extract`, `wsd` and `tune` run over contiguous document shards under
`--jobs` (docs/formats.md).  Only those three commands import this module."""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from itertools import accumulate

from .errors import read_text

_BREAK = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"  # str.splitlines's line ends
# a whole `#DOC` line: the literal first, which the scan seeks fast
_DOC_LINE = re.compile(rf"#DOC(?<![^{_BREAK}]#DOC)(?=\s|\Z)[^{_BREAK}]*")


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


def run_shards(job, sizes: list[int], jobs: int | None, merge) -> list:
    """`job(lo, hi, share)` over the planned shards, one per CPU if `jobs` is
    None; the results in input order.

    A job's one call to `share(counts)` returns `merge` of every shard's
    counts.  The parent runs the first shard and forks a child, with a pipe
    each way, per other shard.  A child sends its counts (or exception),
    gets the merged counts, sends its result (or exception) and leaves with
    `os._exit`.  The parent reads the children in shard order, re-raises
    their exceptions, fails the run with OSError for a child that ends
    without a result, and on any error kills and reaps the children left.
    One shard, as on a host without fork, runs inline.
    """
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    shards = plan_shards(sizes, cpus if jobs is None else jobs, cpus)
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


def document_cuts(text: str, doc_id: str) -> list[int]:
    """The offset of each document block in `text`, then `len(text)`.

    A block starts at a `#DOC` line; the first also holds the lines before
    it, where a document named `doc_id` may start.  A malformed or repeated
    `#DOC` line makes the corpus one block, read as a serial run reads it.
    """
    starts = list(_DOC_LINE.finditer(text))
    seen = set()
    if starts and any(line.strip() and line[0] != "#"
                      for line in text[:starts[0].start()].splitlines()):
        seen.add(doc_id)
    for match in starts:
        parts = match.group().split()
        if len(parts) != 2 or parts[1] in seen:
            return [0, len(text)]
        seen.add(parts[1])
    return [0, *(match.start() for match in starts[1:]), len(text)]


def shard_texts(cfg, onto, bg, fg, render, *, on_demand: bool = False) -> list:
    """Read, train, tag, match and render the corpus by shard: the results in
    order.

    Shards hold about equal numbers of characters.  bg-first feeds the final
    background tags into the matcher; fg-first matches on the
    coarse-unambiguous tags alone, taken before OSPD.  `render(docs,
    analyses, tags, matches)` gives a shard's result; analyses and matches
    are None without a foreground lexicon.  With `on_demand`, for a render
    that only calls `tags.get`, each (document, lemma) group is tagged when read.
    """
    from . import textpipe
    from . import wsd as wsdmod

    text = read_text(cfg.corpus)
    doc_id = textpipe.doc_id_of(cfg.corpus)
    # raw text is one document: one block
    cuts = [0, len(text)] if cfg.raw else document_cuts(text, doc_id)

    def job(lo: int, hi: int, share):
        nonlocal text
        start = cuts[lo]
        docs = textpipe.read_corpus(text[start:cuts[hi]], raw=cfg.raw, doc_id=doc_id,
                                    path=cfg.corpus,
                                    first_line=len(text[:start].splitlines()) + 1)
        text = None  # read: free the corpus text before the run builds its records
        model = wsdmod.train_bayes(docs, bg, cfg.window, cfg.alpha, share=share, path=cfg.corpus)
        tags = (wsdmod._TagsOnDemand(docs, bg, model, cfg.ospd) if on_demand
                else wsdmod.disambiguate_background(model, docs, bg))
        if cfg.ospd and not on_demand:
            tags = wsdmod.apply_ospd(tags, bg)
        if fg is None:
            return render(docs, None, tags, None)
        analyses = [textpipe.analyze(d) for d in docs]
        matches, _ = wsdmod.match_foreground(
            analyses, fg, wsdmod._TagsOnDemand(docs, bg) if cfg.order == "fg-first" else tags,
            onto, bg, lang=cfg.lang, passive_lone=cfg.passive_implicature, window=cfg.window)
        return render(docs, analyses, tags, matches)

    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    return run_shards(job, sizes, cfg.jobs, wsdmod.merge_counts)
