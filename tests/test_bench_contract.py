"""The benchmark tracer binds package functions by name; keep those names valid.

bench/spans.py wraps every (module, attr) in its FUNCTIONS and METHODS tables,
reads some call arguments by parameter name, and reads attributes of train()'s
arguments and result.  The tables are read from the source with ast, so the
tracer module is neither imported nor modified.
"""

import ast
import importlib
import inspect
from pathlib import Path

from stagelab import TrainConfig, init_scaled_identity, make_reference_family, train

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# parameter names the tracer reads from bound call arguments
READ_PARAMETERS = {
    ("stagelab.network", "train"): {"state", "dist", "config", "record_spectrum"},
    ("stagelab.records", "read_records"): {"path"},
    ("stagelab.records", "write_records"): {"path", "records", "append"},
}


def tracer_table(name: str) -> tuple:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/spans.py defines no {name} table")


def test_every_traced_function_resolves():
    functions = tracer_table("FUNCTIONS")
    assert functions
    for module_name, attr, _ in functions:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_traced_method_resolves():
    methods = tracer_table("METHODS")
    assert methods
    for module_name, cls_name, attr, _ in methods:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{module_name}.{cls_name}.{attr}"


def test_traced_functions_bind_the_parameter_names_the_tracer_reads():
    traced = {(module, attr) for module, attr, _ in tracer_table("FUNCTIONS")}
    for (module_name, attr), names in READ_PARAMETERS.items():
        assert (module_name, attr) in traced
        function = getattr(importlib.import_module(module_name), attr)
        assert names <= set(inspect.signature(function).parameters), f"{module_name}.{attr}"


def test_train_results_carry_the_attributes_the_tracer_reads():
    # bench/spans.py's _train_attrs reads these from train()'s arguments and result
    family = make_reference_family()
    dist = family.distribution("pretrain")
    state = init_scaled_identity(family.n, 12.0)
    config = TrainConfig(eta=0.02, max_steps=1, probe_every=50)
    final, trajectory = train(state, dist, config, record_spectrum=False)
    assert dist.label == "pretrain"
    assert config.probe_every == 50
    assert final.step - state.step == 1
    assert len(trajectory.snapshots) == 2
