"""One-line mutations of every file the CLI reads.

Each loader either returns or raises a ParseError that names the path and
a line of the mutated file; only a cycle, which no one line makes, may raise
CycleError instead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templex import (load_bg_lexicon, load_collapse_map, load_fg_lexicon, load_ontology,
                     load_tagged_corpus, load_tuned_lexicon, read_corpus)
from templex.errors import CycleError, ParseError
from helpers import fixture_text, one_line_mutations


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
