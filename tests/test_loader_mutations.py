"""One-line mutations of every file the CLI reads.

Each loader either returns or raises a ParseError that names the path and
a line of the mutated file; only a cycle, which no one line makes, may raise
CycleError instead.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from templex import (load_bg_lexicon, load_collapse_map, load_fg_lexicon, load_ontology,
                     load_tagged_corpus, load_tuned_lexicon, read_corpus)
from templex.cli import main
from templex.errors import CycleError, ParseError
from helpers import fixture_path, fixture_text, one_line_mutations


LOADERS = {
    "ontology": (load_ontology, lambda: fixture_text("succession.onto")),
    "fg_lexicon": (load_fg_lexicon, lambda: fixture_text("succession.fglex")),
    "bg_lexicon": (load_bg_lexicon, lambda: fixture_text("succession.bglex")),
    "collapse_map": (load_collapse_map, lambda: fixture_text("succession.collapse")),
    "tuned_lexicon": (load_tuned_lexicon, lambda: fixture_text("succession_min2.tunedlex")),
    "corpus": (lambda text, path: read_corpus(text, path=path),
               lambda: fixture_text("succession.vrt")),
    "tagged_corpus": (load_tagged_corpus, lambda: fixture_text("succession_tuned_gold.vrt")),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_line_mutation_loads_or_names_path_and_line(name, data):
    loader, source = LOADERS[name]
    mutated = data.draw(one_line_mutations(source()))
    try:
        loader(mutated, "m.txt")
    except ParseError as exc:
        assert exc.path == "m.txt"
        assert exc.line is not None and 1 <= exc.line <= len(mutated.splitlines())
    except CycleError:
        pass


# ------------------------------------------ `validate` against the pipeline

CLI_INPUTS = {"ontology": "succession.onto", "fg_lexicon": "succession.fglex",
              "bg_lexicon": "succession.bglex", "collapse_map": "succession.collapse"}


def _main(argv):
    """`main(argv)` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_INPUTS))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_validate_fails_exactly_when_extract_fails_to_load(tmp_path_factory, name, data):
    # one input file mutated by one line: `validate` finds an error if and
    # only if `extract` fails, and its first error is the one `extract` raises
    base = tmp_path_factory.getbasetemp()
    paths = {key: fixture_path(fixture) for key, fixture in CLI_INPUTS.items()}
    paths[name] = str(base / f"m-{CLI_INPUTS[name]}")
    with open(paths[name], "w", encoding="utf-8") as fh:
        fh.write(data.draw(one_line_mutations(fixture_text(CLI_INPUTS[name]))))
    inputs = [arg for key, path in paths.items()
              for arg in ("--" + key.replace("_", "-"), path)]
    code, listed, err = _main(["validate", *inputs])
    extract = _main(["extract", *inputs, "--corpus", fixture_path("succession.vrt"),
                     "--output", str(base / "m.jsonl")])
    assert "Traceback" not in err + extract[2]
    if code == 2:  # a file that does not load: the same error from both
        event("does not load")
        assert extract == (2, "", err)
        return
    errors = [line for line in listed.splitlines() if line.startswith("error: ")]
    event("a check fails" if errors else "passes every check")
    assert code == (1 if errors else 0)
    if errors:
        assert extract == (2, "", f"templex: {errors[0]}\n")
    else:
        assert extract == (0, "", "")
