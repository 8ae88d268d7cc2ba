"""The numpy kernels: the sampler against an independent splitmix64 reference, and imports."""

import os
import subprocess
import sys

import numpy as np

from bellxtalk import _kernels


def test_sampler_matches_reference_implementation():
    # independent pure-python splitmix64, kept deliberately separate from the
    # kernels so the documented algorithm stays pinned
    mask = (1 << 64) - 1

    def reference_counts(cdf, n, seed):
        tallies = [0, 0, 0, 0]
        for i in range(n):
            z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            u = (z >> 11) * 2.0**-53
            cell = 0
            while cell < 3 and u > cdf[cell]:
                cell += 1
            tallies[cell] += 1
        return tallies

    cdf = np.array([0.25, 0.5, 0.75, 1.0])
    for seed in (0, 7, 123456789):
        expected = reference_counts(cdf, 3000, seed)
        got = _kernels.sample_counts(cdf, 3000, np.uint64(seed))
        assert list(got) == expected


def test_sampler_chunking_consistent():
    # counts must not depend on the sampler's internal chunk size
    cdf = np.array([0.3, 0.55, 0.8, 1.0])
    n = _kernels._SAMPLE_CHUNK + 12345
    whole = _kernels.sample_counts_numpy(cdf, n, np.uint64(9))
    assert int(whole.sum()) == n


_IMPORT_PROBE = """
import sys

wanted = set()


class Recorder:
    # sees every import before the real finders do, found or not
    def find_spec(self, name, path=None, target=None):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith(("importlib", "_frozen_importlib")):
            frame = frame.f_back
        top = name.partition(".")[0]
        if (frame.f_globals.get("__name__", "").startswith("bellxtalk")
                and top not in sys.stdlib_module_names and top != "bellxtalk"):
            wanted.add(top)


sys.meta_path.insert(0, Recorder())
import bellxtalk.cli
print(",".join(sorted(wanted)))
"""


def test_package_asks_for_no_dependency_but_numpy():
    # numpy is the only backend: importing the CLI may not even try an
    # optional accelerator, whether or not one is installed
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip().split(",") == ["numpy"]
