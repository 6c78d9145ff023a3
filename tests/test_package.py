"""The package namespace loads its submodules on first use: importing the
HiGHS adapter loads no other flowgraph module but the error types it
raises, while every public name, the star import and ``dir`` behave as when
the package imported everything up front.  Each check runs in a fresh
interpreter, since this one has long imported every submodule."""

import json
import os
import subprocess
import sys
import textwrap

#: the submodules whose public names the package re-exports
EXPORTING = {"bench", "cases", "csvio", "errors", "formulation", "lp", "model", "solver"}


def fresh(code: str):
    """Run ``code`` in a new interpreter; its last line of output, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_adapter_loads_no_other_flowgraph_module():
    loaded = fresh("""
        import json, sys
        import flowgraph.highs_adapter
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "flowgraph")))
    """)
    assert loaded == ["flowgraph", "flowgraph.errors", "flowgraph.highs_adapter"]


def test_every_public_name_resolves():
    missing, modules = fresh("""
        import json, sys
        import flowgraph
        missing = [name for name in flowgraph.__all__ if getattr(flowgraph, name, None) is None]
        print(json.dumps([missing, sorted(m for m in sys.modules if m.startswith("flowgraph."))]))
    """)
    assert missing == []
    # lp writes solution files and solver loads scipy's kernels through the adapter
    assert {m.split(".")[1] for m in modules} == EXPORTING | {"highs_adapter"}


def test_names_come_from_their_submodules():
    import flowgraph
    from flowgraph import formulation, lp, solver

    assert flowgraph.build_model is formulation.build_model
    assert flowgraph.LpInstance is lp.LpInstance
    assert flowgraph.solve_external is solver.solve_external
    assert flowgraph.__version__ == "1.0.0"


def test_star_import_binds_exactly_all():
    bound, public = fresh("""
        import json
        import flowgraph
        namespace = {}
        exec("from flowgraph import *", namespace)
        print(json.dumps([sorted(set(namespace) - {"__builtins__"}), sorted(flowgraph.__all__)]))
    """)
    assert bound == public
    assert len(public) == len(set(public)) == 44


def test_dir_lists_names_before_they_load():
    listed, loaded = fresh("""
        import json, sys
        import flowgraph
        print(json.dumps([dir(flowgraph), [m for m in sys.modules if m.startswith("flowgraph.")]]))
    """)
    assert loaded == []
    public = {name for name in listed if not name.startswith("_")}
    import flowgraph
    assert public == set(flowgraph.__all__) | EXPORTING
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    import flowgraph

    assert not hasattr(flowgraph, "no_such_name")
