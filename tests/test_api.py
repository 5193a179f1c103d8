"""The library's keyword options, pinned with the caller that sets each one,
the public names that only unit tests reach, and the module boundary around
the discrete model."""

import ast
from pathlib import Path

import stericpnp

# module.function:option -> who sets it. A new option with a default, or
# one that goes, fails the test until this list is edited, so an option
# with a single value in use shows up in review. cli.py is not scanned:
# its settings are the config keys, which test_readme_lists_every_config_key
# pins.
OPTIONS = {
    "continuation.trace_branch:directions": "run_combined, per queued seed",
    "continuation.stability_probe:t_end": "run_combined(probe_t_end)",
    "continuation.stability_probe:seed": "perfbench census; run_combined(probe_seed)",
    "continuation.run_combined:param_start": "[continue] start",
    "continuation.run_combined:ds0": "[continue] ds0",
    "continuation.run_combined:max_points": "[continue] max_points; perfbench census",
    "continuation.run_combined:max_branches": "[continue] max_branches",
    "continuation.run_combined:probe_stride": "[continue] probe_stride; perfbench census",
    "continuation.run_combined:probe_t_end": "[continue] probe_t_end",
    "continuation.run_combined:probe_seed": "[continue] probe_seed; perfbench census",
    "_fd.electrode_bc:phi_left": "[domain] phi_left",
    "_fd.electrode_bc:phi_right": "[domain] phi_right",
    "dynamics.evolve:dt0": "[evolve] dt0",
    "dynamics.evolve:dt_max": "[evolve] dt_max",
    "dynamics.evolve:steady_tol": "[evolve] steady_tol",
    "dynamics.evolve:observer": "acceptance criterion 7",
    "model.make_params:sigma": "[model] sigma",
    "trajectories.compute_trajectory:c2_min": "[trajectory] c2_min",
    "trajectories.compute_trajectory:c2_max": "[trajectory] c2_max",
    "trajectories.compute_trajectory:samples_per_leg": "[trajectory] samples_per_leg",
    "trajectories.integrate_field_ivp:E0": "[ivp] e0",
    "trajectories.integrate_field_ivp:x_span": "[ivp] x_max",
    "trajectories.integrate_field_ivp:stop_at_neutral": "[ivp] stop_at_neutral",
    "trajectories.PeriodicSolution.sample:n_per_period": "[periodic] samples",
    "trajectories.PeriodicSolution.sample:periods": "[periodic] periods",
    "trajectories.stationary_residual_fd:periodic": "perfbench analysis",
    "weakly_nonlinear.criticality_map:g_sum": "[wnl] g_sum",
    "weakly_nonlinear.criticality_map:cbar": "[wnl] cbar",
}


# module.name -> why it stays public. A name in a module's __all__ that no
# package module, no perfbench workload and no acceptance criterion refers
# to fails the test until it is listed here or deleted, so code that only
# its own unit tests reach shows up in review.
UNIT_TESTED_ONLY = {
    "continuation.load_branchset": "the reader of the continue command's branches/ directory",
    "dynamics.chemical_potential": "the public mu",
    "stability.sigma_zero_locus": "the paper's marginal locus, listed in the README",
    "trajectories.d_zero_c1": "the reference of the orbit tests' D = 0 crossings",
}


def _options(path: Path) -> list[str]:
    """module.function:option for each defaulted argument of a public function."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.extend(f"{path.stem}.{prefix}{node.name}:{name}" for name in names)

    visit(ast.parse(path.read_text()).body, "")
    return found


def test_keyword_options_are_the_listed_ones():
    package = Path(stericpnp.__file__).parent
    scanned = [
        option
        for path in sorted(package.glob("*.py"))
        if path.name != "cli.py"
        for option in _options(path)
    ]
    assert len(scanned) == len(set(scanned))
    assert sorted(scanned) == sorted(OPTIONS)


def _references(path: Path) -> set[str]:
    """Names a module loads, bare or as an attribute, outside its strings."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_public_names_that_only_unit_tests_reach_are_the_listed_ones():
    package = Path(stericpnp.__file__).parent
    root = Path(__file__).resolve().parents[1]
    callers = [*sorted(package.glob("*.py")), root / "perfbench" / "workloads.py",
               root / "tests" / "test_acceptance.py"]
    reached = set().union(*map(_references, callers))
    public = [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    assert sorted(n for n in public if n.rpartition(".")[2] not in reached) == sorted(
        UNIT_TESTED_ONLY
    )


def test_no_module_imports_a_private_name_of_the_stepper_or_the_solver():
    """The discrete model is _fd's: what dynamics and continuation keep
    private stays theirs, so no package module imports an underscore name
    from either."""
    package = Path(stericpnp.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            home = node.module.rpartition(".")[2]
            if home in ("dynamics", "continuation"):
                found += [
                    f"{path.name}: {home}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_only_the_kernel_and_the_public_wrappers_of_fd_take_the_model_parameters():
    """_fd._Kernel holds the model at (p, grid, bc): in _fd only its methods
    and the public wrappers that build one take a ModelParams, so no other
    function re-derives the model's constants. Nor does _fd hold the name
    of a continuation parameter, "sigma" or "voltage", to compare with or
    dispatch on: those names are continuation's."""
    tree = ast.parse((Path(stericpnp.__file__).parent / "_fd.py").read_text())
    kernel = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Kernel")
    allowed = {id(n) for n in kernel.body if isinstance(n, ast.FunctionDef)}
    allowed |= {
        id(n)
        for n in tree.body
        if isinstance(n, ast.FunctionDef)
        and n.name in ("solve_potential", "chemical_potential", "time_derivatives", "discrete_energy")
    }
    takes_params = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and id(node) not in allowed
        and any(
            arg.arg == "p" or (arg.annotation and "ModelParams" in ast.unparse(arg.annotation))
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    ]
    assert takes_params == []
    names = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("sigma", "voltage")
    ]
    assert names == []
