"""The public surface: adding or removing a package name is a deliberate change here."""

import inspect

import ptbounds
from ptbounds import rand

PUBLIC_NAMES = {
    # config
    "DEFAULT_DIM_CAP", "DIM_CAP_ENV", "DimensionCapError", "TOL", "Tolerances",
    "ValidationError", "dim_cap",
    # linalg
    "CMatrix", "SystemLayout", "assert_density", "matrix_from_json", "matrix_to_json",
    "min_eigenvalue", "op_norm", "partial_transpose", "permute_factors", "psd_sqrt",
    "rel_entropy", "tensor", "trace_norm",
    # states
    "StateFamilyResult", "fourier_xy", "hiding_state", "max_entangled", "ppt_pbit",
    "private_bit", "swap_x", "werner_state",
    # bell
    "BellFunctional", "BoundReport", "Box", "MeasurementFamily", "SeesawResult",
    "box_from", "certificate_rows", "chsh", "classical_value", "d_eps_membership",
    "functional_value", "seesaw", "seesaw_bound",
    # nonlocality
    "ChainCheck", "LocalPolytope", "NlResult", "er_upper", "nonlocality_N",
    "thm2_chain_check",
    "__version__",
}

# every public callable's parameters that have a default, in signature order
PUBLIC_KNOBS = {
    "seesaw": ("restarts", "seed"),
    "nonlocality_N": ("mode", "restarts"),
    "hiding_state": ("m", "d_shield", "q"),
    "CMatrix": ("layout", "hermitian"),
    "BoundReport": ("tol",),
    "Tolerances": ("assertion", "structural", "psd", "eig_floor", "support", "verdict",
                   "fw_gap"),
}


def test_package_exports_exactly_the_public_names():
    assert len(ptbounds.__all__) == len(PUBLIC_NAMES) == 48
    assert set(ptbounds.__all__) == PUBLIC_NAMES
    assert all(hasattr(ptbounds, name) for name in PUBLIC_NAMES)


def test_rand_holds_only_the_seesaw_start_draws():
    public = {name for name, value in vars(rand).items()
              if inspect.isfunction(value) and not name.startswith("_")}
    assert public == {"random_binary_projective", "random_seesaw_starts"}


# the Bell-scenario objects are their arrays: no constructor takes a size that
# the array's shape already gives
ARRAY_CONSTRUCTORS = {
    "BellFunctional": ("coeffs",),
    "Box": ("p",),
    "MeasurementFamily": ("alice", "bob"),
    "LocalPolytope": ("vertices", "start"),
}


def test_bell_scenario_objects_take_only_their_arrays():
    params = {name: tuple(inspect.signature(getattr(ptbounds, name)).parameters)
              for name in ARRAY_CONSTRUCTORS}
    assert params == ARRAY_CONSTRUCTORS


def test_public_callables_have_exactly_the_pinned_knobs():
    knobs = {}
    for name in ptbounds.__all__:
        obj = getattr(ptbounds, name)
        # exception classes are builtin-derived and have no signature to read
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters.values()
        defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaulted:
            knobs[name] = defaulted
    assert knobs == PUBLIC_KNOBS
