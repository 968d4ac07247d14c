"""Shared randomised-input builders for the property tests, and the benchmark's modules."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import settings

from sqzsim import (
    CircuitSpec,
    Coupler,
    Homodyne,
    Loss,
    PhaseShift,
    Squeezer,
    apply_coupler,
    apply_loss,
    apply_phaseshift,
    apply_squeezer,
    vacuum,
)

# Bounded and reproducible, so the property tests stay a small share of Tier-1.
settings.register_profile("sqzsim", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("sqzsim")


def benchmark_module(name):
    """`benchmarks/<name>.py` loaded read-only from its file; the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_gaussian_state(rng, n_modes=None, max_ops=6, min_eta=0.2):
    """Random physical state from a random op sequence applied to vacuum."""
    n = int(n_modes) if n_modes else int(rng.integers(1, 4))
    state = vacuum(n)
    for _ in range(int(rng.integers(0, max_ops + 1))):
        op = int(rng.integers(0, 4))
        mode = int(rng.integers(0, n))
        if op == 0:
            state = apply_squeezer(state, mode, float(rng.uniform(0.0, 1.2)),
                                   float(rng.uniform(0.0, 2.0 * np.pi)))
        elif op == 1:
            state = apply_phaseshift(state, mode, float(rng.uniform(0.0, 2.0 * np.pi)))
        elif op == 2 and n >= 2:
            other = int(rng.integers(0, n - 1))
            other += other >= mode
            state = apply_coupler(state, mode, other, float(rng.uniform(0.0, 1.0)))
        else:
            state = apply_loss(state, mode, float(rng.uniform(min_eta, 1.0)))
    return state


def random_squeezer(rng, mode, allow_excess=True):
    phase = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 2.0 * np.pi))
    excess = 1.0
    if allow_excess and rng.random() < 0.3:
        excess = float(rng.uniform(1.0, 1.3))
    if rng.random() < 0.5:
        return Squeezer(mode=mode, r=float(rng.uniform(0.0, 1.2)), phase=phase, excess=excess)
    return Squeezer(mode=mode, pump_mw=float(rng.uniform(0.0, 200.0)),
                    gain=float(rng.uniform(0.0, 0.08)), phase=phase, excess=excess)


def random_circuit_spec(rng, allow_excess=True):
    """Random valid CircuitSpec covering all statement types and optional keys."""
    n = int(rng.integers(1, 5))
    modes = tuple(f"m{i}" for i in range(n))
    statements = []
    for _ in range(int(rng.integers(0, 7))):
        kind = int(rng.integers(0, 4))
        mode = modes[int(rng.integers(0, n))]
        if kind == 0:
            statements.append(random_squeezer(rng, mode, allow_excess))
        elif kind == 1:
            statements.append(PhaseShift(mode=mode, theta=float(rng.uniform(-3.0, 3.0))))
        elif kind == 2 and n >= 2:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            b += b >= a
            statements.append(Coupler(mode_a=modes[a], mode_b=modes[b],
                                      ratio=float(rng.uniform(0.0, 1.0))))
        else:
            label = None if rng.random() < 0.5 else f"l{int(rng.integers(0, 3))}"
            statements.append(Loss(mode=mode, eta=float(rng.uniform(0.2, 1.0)), label=label))
    extras = {}
    if rng.random() < 0.3:
        extras["visibility"] = float(rng.uniform(0.8, 1.0))
    if rng.random() < 0.3:
        vbw = float(rng.uniform(1.0, 500.0))
        extras["rbw"] = vbw * float(rng.uniform(1.0, 1e4))
        extras["vbw"] = vbw
    if rng.random() < 0.2:
        extras["center_freq"] = float(rng.uniform(1e5, 1e7))
    if rng.random() < 0.2:
        extras["sweep_time"] = float(rng.uniform(0.1, 10.0))
    measurement = Homodyne(mode=modes[int(rng.integers(0, n))],
                           eta_pd=float(rng.uniform(0.5, 1.0)),
                           eta_e=float(rng.uniform(0.5, 1.0)),
                           ratio=float(rng.uniform(0.2, 0.8)),
                           sweep=(0.0, float(rng.uniform(3.0, 7.0)), int(rng.integers(2, 33))),
                           **extras)
    return CircuitSpec(modes=modes, statements=tuple(statements), measurement=measurement)


_FUZZ_ALPHABET = list(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \t\r\n.:=+-_#eE()[]{}/\\\"'!@$%^&*~`|<>?,;"
) + ["\x00", "\x7f", "é", "∆", "\U0001f600"]

_FUZZ_WORDS = [
    "modes:", "squeezer", "phaseshift", "coupler", "loss", "homodyne",
    "sig", "lo", "r=", "eta=", "ratio=", "sweep=", "pump_mw=", "gain=",
    "label=", "theta=", "eta_pd=", "eta_e=", "0.5", "1.2", "-1", "1e9",
    "0:1:4", "nan", "inf", "=",
]


_SEED_PROGRAMS = [
    "modes: sig\nsqueezer sig r=0.5\nhomodyne sig eta_pd=1 eta_e=1 ratio=0.5 sweep=0:3.14159:64",
    "modes: a b\nsqueezer a pump_mw=40 gain=0.058 excess=1.1\ncoupler a b ratio=0.5\n"
    "loss b eta=0.9 label=facet\nhomodyne b eta_pd=0.88 eta_e=0.95 ratio=0.5 sweep=0:6.28:16",
    "# sqzsim netlist v1\nmodes: sig\nphaseshift sig theta=0.4\n"
    "homodyne sig eta_pd=0.9 eta_e=0.9 ratio=0.45 sweep=0:1:4 visibility=0.98",
]


def random_fuzz_text(rng):
    """Adversarial parser input: random characters, keyword soup, mutated programs."""
    style = rng.random()
    if style < 0.3:
        length = int(rng.integers(0, 120))
        idx = rng.integers(0, len(_FUZZ_ALPHABET), size=length)
        return "".join(_FUZZ_ALPHABET[i] for i in idx)
    if style < 0.6:
        n_words = int(rng.integers(0, 25))
        words = [_FUZZ_WORDS[int(i)] for i in rng.integers(0, len(_FUZZ_WORDS), size=n_words)]
        text = ""
        for w in words:
            text += w + (" " if rng.random() < 0.7 else "\n")
        return text
    if style < 0.9:
        # mutate a valid program: these inputs reach the deeper statement logic
        text = list(_SEED_PROGRAMS[int(rng.integers(0, len(_SEED_PROGRAMS)))])
        for _ in range(int(rng.integers(0, 4))):
            action = rng.random()
            pos = int(rng.integers(0, len(text)))
            if action < 0.4:
                del text[pos]
            elif action < 0.8:
                text.insert(pos, _FUZZ_ALPHABET[int(rng.integers(0, len(_FUZZ_ALPHABET)))])
            else:
                text[pos] = _FUZZ_ALPHABET[int(rng.integers(0, len(_FUZZ_ALPHABET)))]
        return "".join(text)
    raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))).tolist())
    return raw.decode("latin-1")
