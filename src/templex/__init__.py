"""templex: two-tier-lexicon information extraction.

A hand-authored foreground lexicon binds a domain's key predicates to
template schemas and disambiguates them through hard selection restrictions;
an auto-tunable coarse background lexicon supplies semantic classes for
everything else via an unsupervised classifier.  Batch lexicographer tooling
(KWIC concordancing, pattern reports, decision-list bootstrapping) rounds
out the kit.

Every public name below loads its module on first use (PEP 562), so a
process imports only the layers it touches.
"""

import importlib

_EXPORTS = {
    "bg_lexicon": ("BgLexicon", "BgSense", "CollapseMap", "collapse",
                   "default_collapse_map", "load_bg_lexicon", "load_collapse_map"),
    "decisionlist": ("DecisionList", "DecisionRule", "DLInstance", "DLParams",
                     "apply_decision_list", "learn_decision_list"),
    "errors": ("CycleError", "ParseError"),
    "extract": ("SlotFiller", "TemplateInstance", "fill_templates",
                "resolve_salient", "write_output"),
    "fg_lexicon": ("ArgSpec", "ConceptNode", "FgLexicon", "Realization", "StateAssertion",
                   "load_fg_lexicon", "parse_fg_lexicon", "resolve_inheritance", "validate"),
    "ontology": ("Ontology", "SemClass", "SlotSpec", "TemplateSchema",
                 "dump_ontology", "load_ontology"),
    "textpipe": ("Chunk", "DocAnalysis", "Document", "GrRelation", "SenseTag", "Token",
                 "analyze", "analyze_corpus", "chunk", "grammatical_relations",
                 "load_tagged_corpus", "read_corpus", "tag_fallback"),
    "tuner": ("TunedLexicon", "TuneParams", "apply_tuning", "load_tuned_lexicon",
              "save_tuned_lexicon", "tune"),
    "workbench": ("KwicLine", "PatternQuery", "PatternReportEntry", "format_kwic",
                  "format_report", "kwic", "log_likelihood_ratio", "parse_query",
                  "pattern_report"),
    "wsd": ("BayesModel", "Diagnostic", "FgMatch", "UNFILLED",
            "apply_foreground_priority", "apply_ospd", "classify_bayes",
            "disambiguate_background", "dump_tagged_corpus", "match_foreground",
            "surviving_sense_count", "train_bayes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
