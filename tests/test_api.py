"""The library's keyword options, pinned with the caller that sets each one,
and the module boundary around the discrete model."""

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
    "trajectories.integrate_field_ivp:d_guard": "cross_d_zero (1e-13; the CLI keeps 1e-6)",
    "trajectories.PeriodicSolution.sample:n_per_period": "[periodic] samples",
    "trajectories.PeriodicSolution.sample:periods": "[periodic] periods",
    "trajectories.stationary_residual_fd:periodic": "perfbench analysis",
    "weakly_nonlinear.criticality_map:g_sum": "[wnl] g_sum",
    "weakly_nonlinear.criticality_map:cbar": "[wnl] cbar",
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
