import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import covshrink

# Imports the package, then its command module, in a fresh interpreter, and
# prints as JSON whether NumPy was loaded after each, then how the lazy
# names resolve.
LAZY_PACKAGE_PROBE = """
import json, sys
import covshrink
loaded = ["numpy" in sys.modules]
import covshrink.io_cli
loaded.append("numpy" in sys.modules)
namespace = {}
exec("from covshrink import *", namespace)
print(json.dumps({
    "numpy": loaded,
    "sample_covariance": covshrink.sample_covariance.__module__,
    "estimators": covshrink.estimators.__name__,
    "not_in_dir": sorted(set(covshrink.__all__) - set(dir(covshrink))),
    "not_starred": sorted(set(covshrink.__all__) - set(namespace)),
}))
"""


def test_all_lists_each_existing_name_once():
    repeated = [name for name, count in Counter(covshrink.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in covshrink.__all__ if not hasattr(covshrink, name)] == []
    namespace = {}
    exec("from covshrink import *", namespace)
    assert set(covshrink.__all__) <= set(namespace)


def test_the_package_and_its_command_module_load_no_numpy():
    src = str(Path(covshrink.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", LAZY_PACKAGE_PROBE], cwd=src,
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == {
        "numpy": [False, False],
        "sample_covariance": "covshrink.estimators",
        "estimators": "covshrink.estimators",
        "not_in_dir": [],
        "not_starred": [],
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        covshrink.no_such_name  # noqa: B018
    assert "estimators" in dir(covshrink) and "sample_covariance" in dir(covshrink)
