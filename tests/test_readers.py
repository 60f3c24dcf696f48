"""Every public entry point reads a vertex function through one finite rule
and a density through one nonnegative rule, with the same messages, and
names a vertex that the mapping leaves out."""

import math

import pytest

from modcalc import (
    CurveError,
    admissible_check,
    asymptotic_slope,
    connecting_family,
    derivation_norm_bound,
    equivalence_report,
    h_gradient_sequence,
    hop_slope_density,
    ibp_identity,
    is_upper_gradient,
    lipschitz_constant,
    lp_norm,
    make_curve,
    mcshane_extend,
    n_gradient,
    path_integral,
    path_relax,
    path_space,
    plan_derivation,
    stieltjes,
    ug_calculus,
    variation_measures,
    w_certificate,
)
from modcalc.plans import point_mass

S = path_space(3)
FAM = connecting_family(S, S.vertices, S.vertices, 2, simple_only=True)
WALK = make_curve(S, ["0", "1", "2"])
PLAN = point_mass(WALK)
RAMP = {"0": 0.0, "1": 1.0, "2": 2.0}
ONES = {v: 1.0 for v in S.vertices}
GRAD = n_gradient(S, RAMP, FAM, 2.0)

# before, a NaN at '1' gave NaN results, ok: True, a misleading message or a
# relaxation of the NaN as 0 (variation_measures: see test_curve.py)
FUNCTION_READERS = {
    "asymptotic_slope": lambda f: asymptotic_slope(S, f),
    "hop_slope_density": lambda f: hop_slope_density(S, f, FAM),
    "lipschitz_constant": lambda f: lipschitz_constant(S, f, S.vertices),
    "mcshane_extend": lambda f: mcshane_extend(S, f, 1.0),
    "plan_derivation": lambda f: plan_derivation(S, PLAN, f),
    "derivation_norm_bound": lambda f: derivation_norm_bound(S, PLAN, f),
    "w_certificate": lambda f: w_certificate(S, f, ONES, [PLAN]),
    "h_gradient_sequence": lambda f: h_gradient_sequence(S, f, 2.0, FAM, gradient=GRAD),
}

DENSITY_READERS = {
    "admissible_check": lambda r: admissible_check(S, r, FAM),
    "is_upper_gradient": lambda r: is_upper_gradient(S, RAMP, r, FAM),
    "ug_calculus.rho_f": lambda r: ug_calculus(S, RAMP, RAMP, r, ONES, abs, FAM),
    "ug_calculus.rho_g": lambda r: ug_calculus(S, RAMP, RAMP, ONES, r, abs, FAM),
    "ug_calculus.rho_f_alt": lambda r: ug_calculus(S, RAMP, RAMP, ONES, ONES, abs, FAM, r),
    "w_certificate": lambda r: w_certificate(S, RAMP, r, [PLAN]),
    "path_relax": lambda r: path_relax(S, RAMP, r, ["0"], 1.0, 5.0),
}


@pytest.mark.parametrize("name", FUNCTION_READERS)
def test_every_function_reader_rejects_a_non_finite_f(name):
    call = FUNCTION_READERS[name]
    call(RAMP)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"f must be finite, got {bad} at '1'"):
            call({"0": 0.0, "1": bad, "2": 0.0})


@pytest.mark.parametrize("name", DENSITY_READERS)
def test_every_density_reader_names_a_nan_or_negative_vertex(name):
    call = DENSITY_READERS[name]
    for bad, kind in ((math.nan, "NaN"), (-1.0, "negative")):
        with pytest.raises(CurveError, match=f"density is {kind} at '1': .*nonnegative, got {bad}"):
            call(dict(ONES, **{"1": bad}))
    call(dict(ONES, **{"1": math.inf}))


def _without_one(values):
    return {v: x for v, x in values.items() if v != "1"}


@pytest.mark.parametrize("name", [n for n in FUNCTION_READERS if n != "mcshane_extend"])
def test_every_function_reader_names_a_missing_vertex(name):
    # mcshane_extend is left out: its domain is the keys it is given
    with pytest.raises(ValueError, match="f has no value at vertex '1'"):
        FUNCTION_READERS[name](_without_one(RAMP))


@pytest.mark.parametrize("name", DENSITY_READERS)
def test_every_density_reader_names_a_missing_vertex(name):
    with pytest.raises(CurveError, match="density has no value at vertex '1'"):
        DENSITY_READERS[name](_without_one(ONES))


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "f is NaN at '1': it must be nonnegative, got nan"),
        (-1.0, "f is negative at '1': it must be nonnegative, got -1.0"),
        (None, "f has no value at vertex '1'"),
    ],
)
def test_path_relax_reads_its_source_potentials_as_densities(bad, message):
    f = dict(RAMP, **{"1": bad}) if bad is not None else _without_one(RAMP)
    with pytest.raises(CurveError, match=message):
        path_relax(S, f, ONES, ["0", "1"], 1.0, 5.0)
    # only the sources are read, and +inf passes
    assert path_relax(S, f, ONES, ["0"], 1.0, 5.0) == {"0": 0.0, "1": 1.0, "2": 2.0}
    assert path_relax(S, dict(RAMP, **{"1": math.inf}), ONES, ["0", "1"], 1.0, 5.0)["1"] == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda f: n_gradient(S, f, FAM, 2.0),
        lambda f: equivalence_report(S, f, 2.0, max_hops=2),
    ],
    ids=["n_gradient", "equivalence_report"],
)
def test_gradient_entry_points_name_a_missing_vertex(call):
    call(RAMP)
    with pytest.raises(ValueError, match="f has no value at vertex '1'"):
        call(_without_one(RAMP))


def test_curve_level_readers_name_a_missing_vertex():
    # they read only the curve's vertices
    with pytest.raises(ValueError, match="f has no value at vertex '1'"):
        variation_measures(S, WALK, _without_one(RAMP))
    with pytest.raises(CurveError, match="density has no value at vertex '1'"):
        path_integral(S, WALK, _without_one(ONES))
    assert path_integral(S, make_curve(S, ["0"]), _without_one(ONES)) == 0.0


@pytest.mark.parametrize("at", ["0", "2"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_lp_norm_names_a_nan_or_missing_vertex(at, p):
    # a NaN at '2' used to give 2.0 at p = inf (max keeps its first operand
    # when a comparison with NaN is false), and a missing vertex a bare KeyError
    with pytest.raises(ValueError, match=f"values must not be NaN, got nan at '{at}'"):
        lp_norm(S, dict(RAMP, **{at: math.nan}), p)
    with pytest.raises(ValueError, match=f"values has no value at vertex '{at}'"):
        lp_norm(S, {v: x for v, x in RAMP.items() if v != at}, p)
    # infinite values pass
    assert lp_norm(S, dict(RAMP, **{at: -math.inf}), p) == math.inf


def test_stieltjes_and_ibp_name_a_non_finite_value():
    # they take no space, so they check the curve's vertices themselves; a
    # NaN used to give a NaN sum, and an inf in f1 (inf, nan, 2.0)
    calls = [
        (lambda g: stieltjes(WALK, g, ONES), "a"),
        (lambda g: stieltjes(WALK, ONES, g, "right"), "f"),
        (lambda g: ibp_identity(WALK, g, RAMP), "f1"),
        (lambda g: ibp_identity(WALK, RAMP, g), "f2"),
    ]
    for call, name in calls:
        call(RAMP)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(CurveError, match=f"^{name} must be finite, got {bad} at '1'"):
                call(dict(RAMP, **{"1": bad}))
