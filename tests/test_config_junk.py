"""Property: a document with one junk value or block is a config or a
ConfigError, and each problem names where it is.

Junk replaces one value, or one whole block, of a valid document. Some
junk is valid where it lands (a stride of 5, a null block that reads as
absent); the rest must be reported once, and no rule may read a block
whose key is bad or that is not an object.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from strategies import junk_documents  # noqa: E402

from milnesea.errors import ConfigError  # noqa: E402
from milnesea.scenario import _SCHEMA, ScenarioConfig, load_config  # noqa

PREFIXES = tuple(f"{path}{end}" for path in _SCHEMA if path
                 for end in (":", ".")) + ("config.", "outputs:")


@settings(max_examples=300, deadline=None)
@given(junk_documents())
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
