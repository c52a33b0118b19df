"""The benchmark wraps library functions by name; a deleted or renamed one
would make every benchmark run fail, so check the names resolve."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from lapeig import spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"
INSTRUMENT = BENCH / "instrument.py"


def test_wrapped_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, instrument)
    spec.loader.exec_module(instrument)
    for layer, names in instrument.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"lapeig.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lapeig.{layer}.{name}"
    assert callable(getattr(spectral, "eigsh", None))


def test_benchmark_selftest_catches_every_fault():
    # the checker calls library functions beyond the wrapped names; -B keeps
    # bench/ free of bytecode
    out = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["ok"] * 4
