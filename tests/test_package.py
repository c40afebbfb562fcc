from collections import Counter

import covshrink


def test_all_lists_each_existing_name_once():
    repeated = [name for name, count in Counter(covshrink.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in covshrink.__all__ if not hasattr(covshrink, name)] == []
    namespace = {}
    exec("from covshrink import *", namespace)
    assert set(covshrink.__all__) <= set(namespace)
