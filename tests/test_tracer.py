"""The benchmark tracer wraps pentachain functions by the names their
callers import; a renamed function or a changed matrix layout would make
``benchmarks/run.py --trace`` fail or read nothing, so run it once here."""

import importlib.util
from pathlib import Path

from pentachain import cli

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("pentachain_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_an_invariant_and_restores(capsys):
    tracer = load_tracer()
    t = tracer.Tracer()

    def current(module, attr):
        owner, name = t._owner(module, attr)
        return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)

    entries = [(module, attr) for module, attr, _ in tracer.TARGETS + tracer.COUNTERS]
    originals = {entry: current(*entry) for entry in entries}
    t.install()
    try:
        assert all(current(*entry) is not originals[entry] for entry in entries)
        assert cli.main(["invariant", "--builtin", "s3", "--json"]) == 0
    finally:
        t.restore()
    assert all(current(*entry) is originals[entry] for entry in entries)
    assert '"abs_invariant": "1"' in capsys.readouterr().out
    metrics = t.metrics(1)
    assert metrics["chain.nnz"] > 0
    assert 0 < metrics["chain.density"] < 1
    # the pass's one elimination is the det of the f3 block
    assert metrics["exact.eliminations_per_invariant"] == 1
    assert metrics["exact.independent_rows_s"] == 0
    # the sampler's draws are the calls of geometry.edge_values; one draw
    # suffices for s3 and no other call may count as one
    assert metrics["geometry.sample_draws"] == 1
    assert metrics["geometry.sample_accept_ratio"] == 1
