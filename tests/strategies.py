"""Hypothesis strategies shared by the property tests: valid scenario
documents, and the same documents with one value or block made junk."""

from hypothesis import strategies as st


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw, omega):
    # omega keeps a unit background and stays positive; beta stays >= 0
    kind = draw(st.sampled_from(["constant", "gaussian-bump", "sech2-bump",
                                 "table"]))
    if kind == "table":
        times = sorted(set(draw(st.lists(reals(-100, 100), min_size=1,
                                         max_size=5))))
        low = 0.1 if omega else 0.0
        return {"kind": kind,
                "table": [[t, draw(reals(low, 5))] for t in times]}
    base = 1.0 if omega else draw(reals(0, 5))
    if kind == "constant":
        return {"kind": kind, "base": base}
    return {"kind": kind, "base": base,
            "amplitude": draw(reals(-0.9 if omega else -base, 5)),
            "center": draw(reals(-50, 50)), "width": draw(reals(0.01, 10))}


@st.composite
def documents(draw):
    # the outputs are drawn first, then the block flags: hypothesis
    # leaves a draw made after the blocks at its minimum in about half of
    # all examples, and the minimal output list requests nothing. An
    # environment product that is requested brings its block.
    outputs = draw(st.lists(st.sampled_from(
        ["trajectory", "summary", "envelope", "transition", "spectrum",
         "bathymetry"]), unique=True))
    blowup, initial, dynamical, spectrum, bathymetry = (
        draw(st.booleans()) for _ in range(5))
    spectrum = spectrum or "spectrum" in outputs
    bathymetry = bathymetry or "bathymetry" in outputs
    wave = draw(st.sampled_from([("wave_number", reals(1e-4, 10)),
                                 ("wavelength", reals(0.1, 1e4)),
                                 ("angular_frequency", reals(0.01, 1e4))]))
    doc = {"signal": {"amplitude": draw(reals(1e-3, 10)),
                      "sound_speed": draw(reals(1, 5000)),
                      wave[0]: draw(wave[1])},
           "medium": {"omega": draw(profiles(omega=True)),
                      "beta": draw(profiles(omega=False))}}
    t0 = draw(reals(-100, 100))
    doc["time"] = {"t0": t0, "t1": t0 + draw(reals(0.01, 100)),
                   "stride": draw(st.integers(1, 100))}
    doc["solver"] = {"method": draw(st.sampled_from(["fixed", "adaptive"])),
                     "dt": draw(reals(1e-3, 1)),
                     "rtol": draw(reals(1e-12, 1e-3)),
                     "atol": draw(reals(1e-15, 1e-6))}
    if blowup:
        doc["solver"]["blowup_threshold"] = draw(reals(1, 1e12))
    if initial:
        doc["initial_condition"] = {"p0": draw(reals(-10, 10)),
                                    "p_dot0": draw(reals(-10, 10))}
    if dynamical:
        doc["dynamical_params"] = {"e_m": draw(reals(-10, 10)),
                                   "delta": draw(reals(-3, 3)),
                                   "tau": draw(reals(0.01, 10))}
    env = {}
    if spectrum:
        k_min = draw(reals(1e-4, 1))
        env["surface_spectrum"] = {
            "wind_speed": draw(reals(0.1, 50)), "alpha": draw(reals(1e-4, 1)),
            "beta": draw(reals(0.1, 2)), "gravity": draw(reals(1, 20)),
            "k_min": k_min, "k_max": k_min + draw(reals(0.01, 100)),
            "samples": draw(st.integers(2, 1000))}
    if bathymetry:
        dx = draw(reals(0.1, 10))
        env["bathymetry"] = {"zeta_max": draw(reals(0.1, 10)),
                             "hill_spacing": draw(reals(1, 500)),
                             "length": dx + draw(reals(0, 1000)), "dx": dx}
        if draw(st.booleans()):
            env["bathymetry"]["seed"] = draw(st.integers(0, 2 ** 64 - 1))
    if env:
        doc["environment"] = env
    doc["outputs"] = outputs
    return doc


# values that break some key or block: wrong types, signs, zero, and
# numbers at or past the float range
JUNK = ["x", True, None, [], 5, -1, 0, 1e308, -1e308, 2 ** 64]


@st.composite
def junk_documents(draw):
    """A documents() draw with one value, or one whole block, replaced."""
    # slot and junk are drawn first: hypothesis leaves a draw made after
    # the document at its minimum in about half of all examples, which
    # would junk the first slot (the signal block) every other time
    pick, junk = draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(JUNK))
    doc = draw(documents())
    slots = []

    def walk(block):
        for key, value in block.items():
            slots.append((block, key))
            if isinstance(value, dict):
                walk(value)

    walk(doc)
    block, key = slots[pick % len(slots)]
    block[key] = junk
    return doc
