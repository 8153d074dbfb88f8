"""Properties: a document with one junk value or block is a config or a
ConfigError, and each problem names where it is; a null block is an
absent block.

Junk replaces one value, or one whole block, of a valid document. Some
junk is valid where it lands (a stride of 5, a null block that reads as
absent); the rest must be reported once, and no rule may read a block
whose key is bad or that is not an object.
"""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from strategies import documents, junk_documents  # noqa: E402

from milnesea.errors import ConfigError  # noqa: E402
from milnesea.scenario import _SCHEMA, ScenarioConfig, load_config  # noqa

PREFIXES = tuple(f"{path}{end}" for path in _SCHEMA if path
                 for end in (":", ".")) + ("config.", "outputs:")


def outcome(doc: dict):
    """The config `doc` loads to, or its problems."""
    try:
        return load_config(json.dumps(doc))
    except ConfigError as exc:
        return exc.problems


@settings(max_examples=300, deadline=None)
@given(junk_documents())
# a bad outputs list is reported once; junk draws seldom land there
@example({"outputs": ["x", "x"]})
def test_junk_is_a_config_or_a_config_error(doc):
    try:
        assert isinstance(load_config(json.dumps(doc)), ScenarioConfig)
    except ConfigError as exc:
        problems = exc.problems
        assert problems and len(set(problems)) == len(problems), problems
        heads = [problem.partition(": ")[0] for problem in problems]
        for head, problem in zip(heads, problems):
            assert problem.startswith(PREFIXES), problem
            if problem.endswith(": expected an object"):
                assert heads.count(head) == 1, problems
            elif head not in _SCHEMA and head != "outputs" \
                    and not problem.endswith(": unknown key"):
                # a bad key: no rule on its block ran
                assert head.rpartition(".")[0] not in heads, problems


@settings(max_examples=300, deadline=None)
@given(documents())
def test_a_null_block_is_an_absent_block(doc):
    for path in filter(None, _SCHEMA):
        *parents, key = path.split(".")
        nulled, dropped = copy.deepcopy(doc), copy.deepcopy(doc)
        outer, inner = nulled, dropped  # the blocks that hold `key`
        for part in parents:
            outer, inner = outer.get(part, {}), inner.get(part, {})
        if key in outer:
            outer[key] = None
            del inner[key]
            assert outcome(nulled) == outcome(dropped), path
