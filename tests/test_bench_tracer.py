"""The benchmark's layer tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

from ostromech import cli, legendre

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = (legendre.regularity_report, legendre.hessian_det_expr,
                 legendre.DerivedSystem.acceleration, cli.main)
    tracer = tracer_module.Tracer()
    try:
        # raises if a name in TARGETS no longer exists
        tracer.install()
        assert legendre.regularity_report is not originals[0]
    finally:
        tracer.uninstall()
    assert (legendre.regularity_report, legendre.hessian_det_expr,
            legendre.DerivedSystem.acceleration, cli.main) == originals
