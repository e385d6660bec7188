"""Library calls refuse non-finite or malformed inputs before any work: the
ambient strain (one rule, `sym3.sym_from_list`), every radius, search radius
and exclusion distance (one rule, `kernels.check_length`), every count of
sweeps, levels, particles or grid cells and every seed (one rule,
`kernels.check_count`), every box of a cloud, grid or model (one rule,
`kernels.check_box`), the convergence gate, the contraction exponent q, the
points of every pair search and the per-particle strains of the Einstein
coefficient."""

import re
import sys
import warnings

import numpy as np
import pytest

from refstokes import cloud as cl
from refstokes import effective as eff
from refstokes import kernels, sym3
from refstokes import reflections as refl
from refstokes.errors import GateError
from refstokes.fields import GridField

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
STRAIN = [1.0, 0.5, 0.25, 0.1, 0.2]
CLOUD = cl.generate_lattice(UNIT_BOX, 2, 0.02)
SOLUTION = refl.run_reflections(CLOUD, STRAIN)
MODEL = eff.uniform_Meff(UNIT_BOX, 0.01)
FIELD = MODEL.rasterize(UNIT_BOX, 4)
POINTS = np.array([[0.5, 0.5, 0.5], [0.1, 0.9, 0.3]])

# each of the strain entry points, as a call of the strain alone, and
# whether a finite strain makes it run a sweep, solve or convolution
ENTRY_POINTS = {
    "sym_from_list": (sym3.sym_from_list, False),
    "init_reflections": (lambda A: refl.init_reflections(CLOUD, A).A_total, False),
    "run_reflections": (lambda A: refl.run_reflections(CLOUD, A).A_hat, True),
    "dense_fixed_point": (lambda A: refl.dense_fixed_point(CLOUD, A).A_hat, True),
    "evaluate_velocity": (lambda A: refl.evaluate_velocity(SOLUTION, A, POINTS), True),
    "contraction_diagnostic": (lambda A: refl.contraction_diagnostic(CLOUD, A), True),
    "tilde_vc": (lambda A: eff.tilde_vc(FIELD, A, POINTS), True),
    "fixed_point_vc": (lambda A: eff.fixed_point_vc(MODEL, A, UNIT_BOX, 4)[0].values, True),
    "einstein_coefficient": (
        lambda A: eff.einstein_coefficient(CLOUD, A, SOLUTION.A_hat), False),
}

BAD_STRAINS = {
    "nan": [1.0, np.nan, 0.0, 0.0, 0.0],
    "+inf": [1.0, 0.0, np.inf, 0.0, 0.0],
    "-inf": [1.0, 0.0, 0.0, 0.0, -np.inf],
    "4 coefficients": [1.0, 0.0, 0.0, 0.0],
    "6 coefficients": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
}


def call_counts(monkeypatch, calls):
    """Counts of the calls to each (owner, name) of `calls` made while the test runs."""
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in calls:
        counting(owner, name)
    return counts


@pytest.fixture
def work(monkeypatch):
    """Counts of the sweeps, solves and convolutions run while the test runs."""
    return call_counts(monkeypatch, [(refl, "reflect_step"), (eff, "_convolve_sources"),
                                     (kernels, "velocity_sum"), (np.linalg, "solve")])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_strain_rule(entry, work):
    call, works = ENTRY_POINTS[entry]
    eff.clear_kernel_cache()
    for name, strain in BAD_STRAINS.items():
        for form in (strain, np.array(strain), np.array([strain])):
            with pytest.raises(ValueError, match="^a strain must be 5 finite numbers$"):
                call(form)
            assert work == {}, (name, work)
    # a list, a (5,) array and a (1, 5) array are one strain, to the bit
    outs = [np.asarray(call(form)) for form in (STRAIN, np.array(STRAIN), np.array([STRAIN]))]
    assert all(out.tobytes() == outs[0].tobytes() for out in outs[1:])
    assert bool(work) == works        # the counters see the work a finite strain does


def test_sym_from_list_shapes():
    assert sym3.sym_from_list(np.arange(5).reshape(5, 1)).dtype == float
    for bad in ("abcde", [[1.0, 2.0], [3.0]], 1.0, None):
        with pytest.raises(ValueError):
            sym3.sym_from_list(bad)


GATED = cl.generate_lattice(UNIT_BOX, 3, 0.05)      # a^3/d^3 = 0.15^3, refused at a gate of 1e-9


@pytest.mark.parametrize("force", [False, True])
def test_gate_and_q_must_be_in_range(force, work):
    with pytest.raises(GateError):
        refl.run_reflections(GATED, STRAIN, gate=1e-9)
    for gate in (np.nan, 0.0, -1.0):
        for run in (refl.run_reflections, refl.contraction_diagnostic):
            with pytest.raises(ValueError, match="gate must be a positive number"):
                run(GATED, STRAIN, gate=gate, force=force)
    for q in (np.nan, 1.0, 0.5):
        with pytest.raises(ValueError, match="q must be > 1"):
            refl.contraction_diagnostic(GATED, STRAIN, q=q, force=force)
    assert work == {}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pair_search_refuses_non_finite_points(bad):
    point = np.array([[bad, 0.5, 0.5]])
    centers = np.vstack([CLOUD.centers, point])
    calls = [lambda: kernels.pairs_within(point, CLOUD.centers, 0.1),
             lambda: kernels.pairs_within(CLOUD.centers, point, 0.1),
             lambda: refl.evaluate_velocity(SOLUTION, STRAIN, point),
             lambda: eff.outside_balls(point, CLOUD),
             lambda: eff.tilde_vc(FIELD, STRAIN, point),
             lambda: cl._min_distance(centers)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no cast warning before the refusal
        for call in calls:
            with pytest.raises(ValueError, match="pairs_within needs finite points"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_block_sums_refuse_non_finite_points(bad, monkeypatch):
    # the engine behind the sweep and the velocity refuses a non-finite target
    # or source before it builds a single block of sources
    blocks = call_counts(monkeypatch, [(kernels, "_compact_blocks")])
    point = np.array([[bad, 0.5, 0.5]])
    centers = np.vstack([CLOUD.centers, point])
    weights = np.ones((len(centers), 5))
    calls = [lambda: kernels.velocity_sum(weights[:-1], point, CLOUD.centers),
             lambda: kernels.velocity_sum(weights, POINTS, centers, 0.01),
             lambda: kernels.stresslet_strain_sum(weights, centers, centers),
             lambda: kernels.stresslet_strain_sum(weights[:-1], point, CLOUD.centers)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no cast warning before the refusal
        for call in calls:
            with pytest.raises(ValueError, match="a block-moment sum needs finite points"):
                call()
    assert blocks == {}


@pytest.mark.parametrize("call", [lambda p: refl.evaluate_velocity(SOLUTION, STRAIN, p),
                                  lambda p: eff.tilde_vc(FIELD, STRAIN, p)],
                         ids=["evaluate_velocity", "tilde_vc"])
def test_one_point_shape_rule(call, work):
    # the rule of particle centres, `cloud._as_points`: empty is (0, 3), one
    # point (3,) is (1, 3), any other shape is refused by name before any work
    for empty in ([], np.zeros((0, 3)), np.zeros((0, 2))):
        assert call(empty).shape == (0, 3)
    assert call(POINTS[0]).tobytes() == call(POINTS[:1]).tobytes()
    work.clear()
    for bad in (np.zeros((4, 2)), np.zeros((2, 3, 1)), np.zeros((1, 4))):
        with pytest.raises(ValueError, match=re.escape("points must have shape (N, 3), got (")):
            call(bad)
    assert work == {}


def radial_average(rho):
    """The ball averages of a constant source, for `mean_value_reconstruct`."""
    return 6.0


@pytest.fixture
def length_work(monkeypatch):
    """Counts of the kernel evaluations (every closed-form kernel starts with
    `_moment_terms`), the block-moment sums, the cell-list searches of
    `pairs_within`, the random generators of RSA trials and the radial averages
    run while the test runs."""
    return call_counts(monkeypatch, [(kernels, "_moment_terms"),
                                     (kernels, "_block_moment_sum"), (np, "searchsorted"),
                                     (np.random, "default_rng"),
                                     (sys.modules[__name__], "radial_average")])


FAR = np.array([[1.0, 0.5, 0.25], [0.0, 2.0, 0.0]])     # outside every sphere of radius 0.01
NO_POINTS = np.zeros((0, 3))


# each length entry point, as a call of the length alone: the argument it names,
# whether the length is a radius (> 0) rather than a search radius or an
# exclusion distance (>= 0), and whether a valid length makes it run a pair
# search, a kernel evaluation, a block-moment sum, an RSA trial or a radial average
LENGTH_ENTRY_POINTS = {
    "pairs_within": (lambda r: kernels.pairs_within(POINTS, CLOUD.centers, r), "radius",
                     False, True),
    "pair_offsets": (lambda d: kernels.pair_offsets(POINTS, CLOUD.centers, d), "exclude_within",
                     False, False),
    "pair_blocks": (lambda d: list(kernels.pair_blocks(POINTS, CLOUD.centers, d)),
                    "exclude_within", False, False),
    "velocity_sum": (lambda a: kernels.velocity_sum(np.ones((CLOUD.n, 5)), FAR, CLOUD.centers, a),
                     "a", True, True),
    # no pairs: the distance is checked on entry all the same
    "pair_blocks_no_targets": (lambda d: list(kernels.pair_blocks(NO_POINTS, CLOUD.centers, d)),
                               "exclude_within", False, False),
    "sphere_disturbance": (lambda a: kernels.sphere_disturbance(STRAIN, a, FAR), "a", True, True),
    "sphere_pressure": (lambda a: kernels.sphere_pressure(STRAIN, a, FAR), "a", True, True),
    "sphere_traction": (lambda a: kernels.sphere_traction(STRAIN, a, FAR), "a", True, True),
    "sphere_mobility": (kernels.sphere_mobility, "a", True, False),
    "mobility_from_boundary_integral": (kernels.mobility_from_boundary_integral, "a", True, True),
    "mean_value_reconstruct": (
        lambda r: kernels.mean_value_reconstruct(0.5, r, radial_average), "r", True, True),
    "ParticleCloud": (lambda a: cl.ParticleCloud(centers=CLOUD.centers, a=a, box=UNIT_BOX,
                                                 mobilities=CLOUD.mobilities), "a", True, False),
    "generate_lattice": (lambda a: cl.generate_lattice(UNIT_BOX, 2, a), "a", True, False),
    "generate_rsa": (lambda a: cl.generate_rsa(UNIT_BOX, 3, a, 0.05, seed=0), "a", True, True),
}


@pytest.mark.parametrize("entry", LENGTH_ENTRY_POINTS)
def test_one_length_rule(entry, length_work):
    call, name, positive, works = LENGTH_ENTRY_POINTS[entry]
    bad = [np.nan, np.inf, -np.inf, -1.0] + ([0.0] if positive else [])
    rule = "radius must be positive" if positive else "distance must be non-negative"
    for length in bad:
        with pytest.raises(ValueError, match=rf"^{rule} and finite, got {name} = "
                                             rf"{re.escape(str(length))}$"):
            call(length)
        assert length_work == {}, (length, length_work)
    if not positive:
        call(0.0)
    call(0.01)
    assert bool(length_work) == works     # the counters see the work a valid length does


class Worked(Exception):
    """A sweep, convolution or RSA trial started."""


def worked(*args, **kwargs):
    raise Worked


COUNT_WORK = [(refl, "reflect_step"), (eff, "_convolve_sources"), (np.random, "default_rng")]

# each count entry point, as a call of the count alone returning an array, the
# argument it names, the least count it takes, and whether a valid count makes
# it run a sweep, convolution or RSA trial
COUNT_ENTRY_POINTS = {
    "run_reflections_max_iter": (
        lambda k: refl.run_reflections(CLOUD, STRAIN, max_iter=k).A_hat, "max_iter", 0, True),
    "run_reflections_fixed_n": (
        lambda k: refl.run_reflections(CLOUD, STRAIN, fixed_n=k).A_hat, "fixed_n", 1, True),
    "contraction_diagnostic": (
        lambda k: np.array(refl.contraction_diagnostic(CLOUD, STRAIN, n_levels=k)),
        "n_levels", 2, True),
    "fixed_point_vc": (
        lambda k: eff.fixed_point_vc(MODEL, STRAIN, UNIT_BOX, 4, max_iter=k)[0].values,
        "max_iter", 1, True),
    "generate_lattice": (
        lambda k: cl.generate_lattice(UNIT_BOX, k, 0.02).centers, "n_per_axis", 1, False),
    "generate_rsa_n": (
        lambda k: cl.generate_rsa(UNIT_BOX, k, 0.01, 0.05, seed=0).centers, "n", 1, True),
    "generate_rsa_seed": (
        lambda k: cl.generate_rsa(UNIT_BOX, 3, 0.01, 0.05, seed=k).centers, "seed", 0, True),
    "GridField": (lambda k: GridField(box=UNIT_BOX, n=k, values=np.zeros((3, 3, 3))).values,
                  "n", 1, False),
    "GridField.zeros": (lambda k: GridField.zeros(UNIT_BOX, k).values, "n", 1, False),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_one_count_rule(entry, monkeypatch):
    call, name, minimum, works = COUNT_ENTRY_POINTS[entry]
    # the first sweep, convolution or RSA trial raises, so a count that would
    # loop forever (fixed_n=inf) fails at once
    for owner, attr in COUNT_WORK:
        monkeypatch.setattr(owner, attr, worked)
    bad = [np.nan, np.inf, -np.inf, 2.5, minimum - 1, True]
    for count in bad + ([] if name == "fixed_n" else [None]):    # fixed_n=None: tolerance mode
        message = f"^{name} must be >= {minimum} and a whole number, got {re.escape(str(count))}$"
        with pytest.raises(ValueError, match=message):
            call(count)
    monkeypatch.undo()
    work = call_counts(monkeypatch, COUNT_WORK)
    # an integral float and a numpy integer are the count itself, to the bit
    outs = [call(count) for count in (3, 3.0, np.int64(3))]
    assert all(out.tobytes() == outs[0].tobytes() for out in outs[1:])
    assert bool(work) == works     # the counters see the work a valid count does


RESOLVED = cl.generate_lattice(UNIT_BOX, 2, 0.1)     # a grid of 20 resolves its balls

# each box entry point, as a call of the box alone, and whether a valid box
# makes it run a pair search, a convolution, an RSA trial or an allocation of cells
BOX_ENTRY_POINTS = {
    "ParticleCloud": (lambda box: cl.ParticleCloud(centers=CLOUD.centers, a=CLOUD.a, box=box,
                                                   mobilities=CLOUD.mobilities), False),
    "generate_lattice": (lambda box: cl.generate_lattice(box, 2, 0.02), False),
    "generate_rsa": (lambda box: cl.generate_rsa(box, 3, 0.01, 0.05, seed=0), True),
    "GridField": (lambda box: GridField(box=box, n=4, values=FIELD.values), False),
    "GridField.zeros": (lambda box: GridField.zeros(box, 4), True),
    "EffectiveModel": (lambda box: eff.EffectiveModel(box=box, matrix=np.eye(5)), False),
    "uniform_Meff": (lambda box: eff.uniform_Meff(box, 0.01), False),
    # the grid box of the mean-field solve, the rasterization and the H^-1 distance
    "fixed_point_vc": (lambda box: eff.fixed_point_vc(MODEL, STRAIN, box, 4), True),
    "assemble_MN": (lambda box: eff.assemble_MN(RESOLVED, box, 20), True),
    "sphere_hminus1_distance": (
        lambda box: eff.sphere_hminus1_distance(RESOLVED, MODEL, box, 20), True),
}

BAD_BOXES = {
    "nan": [[0.0, 0.0, 0.0], [1.0, np.nan, 1.0]],
    "+inf": [[0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]],
    "-inf": [[0.0, 0.0, -np.inf], [1.0, 1.0, 1.0]],
    "inverted": [[0.0, 0.0, 0.0], [-1.0, 1.0, 1.0]],
    "flat": [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
    "(3,)": [1.0, 1.0, 1.0],
    "(1, 3)": [[1.0, 1.0, 1.0]],
    "(3, 3)": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
    # boxes with no float (2, 3) form: the array of a ragged box holds its rows
    "ragged": [[0.0, 0.0, 0.0], [1.0, 1.0]],
    "string": "[[0, 0, 0], [1, 1, 1]]",
    "complex": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0 + 1.0j]],
}


@pytest.mark.parametrize("entry", BOX_ENTRY_POINTS)
def test_one_box_rule(entry, monkeypatch):
    call, works = BOX_ENTRY_POINTS[entry]
    # the cell-list searches of `pairs_within`, the convolutions, the RSA trials
    # and the cells `GridField.zeros` allocates
    work = call_counts(monkeypatch, [(np, "searchsorted"), (eff, "_convolve_sources"),
                                     (np.random, "default_rng"), (np, "zeros")])
    message = "^" + re.escape("box must be [[lo],[hi]], finite, with hi > lo per axis") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no cast warning before the refusal
        for name, box in BAD_BOXES.items():
            for form in (box, np.array(box, dtype=object if name == "ragged" else None)):
                with pytest.raises(ValueError, match=message):
                    call(form)
            assert work == {}, (name, work)
    call(UNIT_BOX.tolist())
    assert bool(work) == works     # the counters see the work a valid box does


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["one", "all"])
def test_einstein_refuses_non_finite_strains(bad, where, monkeypatch):
    strains = SOLUTION.A_hat.copy()
    strains[(3, 2) if where == "one" else ...] = bad
    work = call_counts(monkeypatch, [(eff, "apply_mobility")])
    with pytest.raises(ValueError, match="^per-particle strains must be finite$"):
        eff.einstein_coefficient(CLOUD, STRAIN, strains)
    assert work == {}
