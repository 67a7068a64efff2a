"""The benchmark's per-layer tracer still finds every name it patches.

``bench/tracing.py`` wraps package functions by module attribute name, so
renaming or deleting one of them (``density.neumaier_sum``,
``density.diff_of_products``, ...) breaks traced benchmark runs.  This test
installs the tracer, runs traced operations and uninstalls it.
"""

import importlib.util
from pathlib import Path

import levelcross.cli as cli
import levelcross.density as density
import levelcross.zerocount as zerocount
from levelcross import CoefficientProfile, MonomialBasis, Rectangle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls(capsys):
    # ``Tracer.install`` reads every name it patches with a plain ``getattr``,
    # so renaming or deleting any of them in the package fails here.
    patched = [(density, "neumaier_sum"), (density, "diff_of_products"), (cli, "main"),
               (cli, "general_mean_density"), (cli, "integrate_density"),
               (zerocount, "standard_normal_block"), (zerocount, "np")]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(patched, originals))
        expect = tracer.run_op(0, lambda: cli.main(
            ["expect", "--degree", "2", "--mu-a", "0.5", "--mu-b", "-0.25"]))
        mc = tracer.run_op(1, lambda: cli.main(["mc", "--degree", "2", "--trials", "200"]))
        # ``mc`` counts on the certified roots route, which leaves no trial
        # here to the eigenvalues; the companion counter still calls the
        # wrapped ``np.linalg.eigvals``.
        companion = tracer.run_op(2, lambda: zerocount.estimate_expected_count(
            CoefficientProfile.iid(3), MonomialBasis(2), 0.5j, Rectangle(-1, 1, -1, 1),
            trials=100, method="companion"))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (expect, mc, companion.method) == (0, 0, "companion")
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(patched, originals))

    names = {span[0] for span in tracer.spans}
    assert {"bench.op", "cli", "cli.config", "cli.output", "quadrature", "density",
            "numerics.dop", "model.basis", "zerocount", "rng", "zerocount.eig"} <= names
    assert tracer.counts["density.calls"] > 0
    assert tracer.counts["zerocount.trials"] == 300
    # The general-mean density forms one determinant per call, and nothing
    # else on the CLI path forms one.
    dop_spans = sum(1 for span in tracer.spans if span[0] == "numerics.dop")
    assert dop_spans == tracer.counts["density.calls"]


def test_traced_expect_on_a_point_symmetric_problem(capsys):
    # expect integrates half of the square here; the quadrature spans and the
    # evaluation count still come through the wrapped ``cli.integrate_density``.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, lambda: cli.main(
            ["expect", "--degree", "6", "--var-a", "1,2,0.5,1,1.5,1,2", "--k1", "1",
             "--k2", "0.5", "--x-min=-2", "--x-max=2", "--y-min=-2", "--y-max=2"]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    quadrature_spans = [span for span in tracer.spans if span[0] == "quadrature"]
    assert len(quadrature_spans) == 1
    assert tracer.counts["quadrature.evals"] > 0
    assert tracer.counts["quadrature.cells"] > 0
    assert tracer.counts["density.points"] > 0
