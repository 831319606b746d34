"""Static checks on the sources of sqgev.

A static name walk over the top-level definitions of src/sqgev, from the
verbs (cli.main) and the checks (checks.ALL_CHECKS): a name, bare or as an
attribute, reaches every definition of that name in any module.  A def or
class the walk does not reach serves no verb and no check, only tests, if
anything.  Each one must be on UNREACHED_ALLOWED with the reason it stays;
ROADMAP.md item 3 (a symbol-bounds check on the paper's bilinear symbols)
is the planned caller of all of them.  The CI job's source-size step
prints the list through unreached_definitions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sqgev"

UNREACHED_ALLOWED = {
    "bilinear.BilinearSymbol": "the type of the paper's bilinear symbols",
    "bilinear.padded_product": "the reference product of the commutator tests",
    "bilinear._r_alpha_sigma": "the exponent R_alpha,sigma of the paper's symbols",
    "bilinear.make_kgtrj": "the high-high symbol of the commutator estimates",
    "bilinear.make_ksimj": "the comparable-frequency symbol of the commutator estimates",
    "bilinear._mvt_pieces": "the factors shared by the mean-value symbols mA and mB",
    "bilinear.make_mA": "the Gevrey-weight piece of the mean-value commutator symbol",
    "bilinear.make_mB": "the bump-derivative piece of the mean-value commutator symbol",
    "dyadic.smooth_step_prime": "a factor of phi0_prime",
    "dyadic.psi0_prime": "a factor of phi0_prime",
    "dyadic.phi0_prime": "the bump derivative in make_mB",
}


def unreached_definitions(src=SRC):
    """'module.name' of every top-level def or class of src that no verb or
    check reaches, in source order."""
    defs, uses, shown = {}, {}, []
    for path in sorted(pathlib.Path(src).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                shown.append((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((path.stem, name))
                uses[path.stem, name] = {getattr(n, "id", None) or getattr(n, "attr", None)
                                         for n in ast.walk(node)}
    reached, todo = set(), [("cli", "main"), ("checks", "ALL_CHECKS")]
    while todo:
        if (key := todo.pop()) not in reached:
            reached.add(key)
            todo += [k for word in uses[key] for k in defs.get(word, [])]
    return [f"{module}.{name}" for module, name in shown if (module, name) not in reached]


def test_unreached_definitions_are_allowed():
    assert set(unreached_definitions()) - set(UNREACHED_ALLOWED) == set()


def test_the_walk_starts_from_the_verbs_and_the_checks(tmp_path):
    # a definition reached only through another unreached one is unreached
    (tmp_path / "cli.py").write_text("def main():\n    return helper()\n")
    (tmp_path / "checks.py").write_text("ALL_CHECKS = ('a',)\n")
    (tmp_path / "extra.py").write_text(
        "def helper():\n    pass\n\ndef orphan():\n    return leaf()\n\ndef leaf():\n    pass\n"
    )
    assert unreached_definitions(tmp_path) == ["extra.orphan", "extra.leaf"]
