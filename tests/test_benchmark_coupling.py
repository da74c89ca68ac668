"""The benchmark's tracer patches library functions by name.

A library name it patches that is renamed or deleted fails here, in tier 1,
rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from foucast import autodiff, checkpoint, model, synth, train

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    tracer = load_tracer().Tracer()
    named = [(autodiff, "fft2"), (autodiff, "backward"), (train, "forward_tape"),
             (model, "forward_tape"), (synth, "read_manifest"),
             (checkpoint, "save_checkpoint"), (checkpoint, "load_checkpoint")]
    before = {(owner, attr): getattr(owner, attr) for owner, attr in named}
    try:  # a name install cannot find raises part-way; uninstall restores what it patched
        tracer.install()
        patched = list(tracer._patches)
        assert {(owner, attr) for owner, attr, _ in patched} >= set(named)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in before.items())
