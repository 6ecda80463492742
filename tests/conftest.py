import json
import os

# One BLAS thread, set before numpy loads OpenBLAS (it reads these once, at
# load time): the tests multiply small matrices, and starting a thread pool
# costs the first dense linear-algebra test about a second.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def percent_17g(block):
    """The CSV text of a 2-D float block, one ``'%.17g' % v`` per value."""
    return "".join(",".join("%.17g" % v for v in r) + "\n" for r in block.tolist())


def text_mismatch(got, want):
    """None for equal texts, else their first differing line (short, unlike a full diff)."""
    for i, (a, b) in enumerate(zip(got.split("\n"), want.split("\n"))):
        if a != b:
            return f"line {i}: {a!r} != {b!r}"
    return None if got == want else f"{len(got)} != {len(want)} characters"


def json_reference(series, echo):
    """The JSON file ``cli.emit_output`` writes, as one ``json.dumps`` of the whole document."""
    from jcsubdyn import __version__

    meta = dict(series.metadata)
    meta["version"] = __version__
    names = sorted(series.channels)
    doc = {
        "scenario": echo,
        "gt": [float(x) for x in series.gt],
        "channels": {n: [float(x) for x in series.channels[n]] for n in names},
        "metadata": meta,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
