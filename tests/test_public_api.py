"""The package's public names: each resolves, and no two name the same object."""

import multiagg as mg


def test_public_names_are_distinct_objects():
    first = {}
    aliases = []
    for name in mg.__all__:
        obj = getattr(mg, name)
        if id(obj) in first:
            aliases.append((first[id(obj)], name))
        first.setdefault(id(obj), name)
    assert aliases == []
