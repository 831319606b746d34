"""Static checks on the sources of sqgev.

A static name walk over the top-level definitions of src/sqgev and the
methods and properties of its classes, from the verbs (cli.main) and the
checks (checks.ALL_CHECKS): a name, bare or as an attribute, reaches every
definition of that name in any module, and a class reaches its dunder
methods.  A definition the walk does not reach serves no verb and no check,
only tests, if anything.  Each one must be on UNREACHED_ALLOWED with the
reason it stays; ROADMAP.md item 3 (a symbol-bounds check on the paper's
bilinear symbols) is the planned caller of those in bilinear and dyadic.
The CI job's source-size step prints the list through unreached_definitions."""

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
    "spectral.Grid.kx": "the lattice wavenumbers k1, read by the test oracles",
    "spectral.Grid.ky": "the lattice wavenumbers k2, read by the test oracles",
}


def unreached_definitions(src=SRC):
    """'module.name' of every top-level def or class of src, and
    'module.Class.name' of every method or property, that no verb or check
    reaches, in source order.  A dunder method is reached with its class."""
    defs, uses, shown = {}, {}, []

    def define(key, nodes):
        defs.setdefault(key[1].rpartition(".")[2], []).append(key)
        uses[key] = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for node in nodes for n in ast.walk(node)}

    for path in sorted(pathlib.Path(src).glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                members = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                rest = [n for n in node.body if n not in members]
                define((path.stem, node.name), node.bases + node.decorator_list + rest)
                shown.append((path.stem, node.name))
                for member in members:
                    define((path.stem, f"{node.name}.{member.name}"), [member])
                    shown.append((path.stem, f"{node.name}.{member.name}"))
            elif isinstance(node, ast.FunctionDef):
                define((path.stem, node.name), [node])
                shown.append((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        define((path.stem, target.id), [node])
    reached, todo = set(), [("cli", "main"), ("checks", "ALL_CHECKS")]
    while todo:
        if (key := todo.pop()) not in reached:
            reached.add(key)
            todo += [k for word in uses[key] for k in defs.get(word, [])]
    return [f"{module}.{name}" for module, name in shown if (module, name) not in reached]


def test_unreached_definitions_are_allowed():
    assert set(unreached_definitions()) - set(UNREACHED_ALLOWED) == set()


def test_the_walk_starts_from_the_verbs_and_the_checks(tmp_path):
    # a definition reached only through another unreached one is unreached;
    # a method is reached by its name, a dunder method with its class
    (tmp_path / "cli.py").write_text("def main():\n    return helper(Box().used)\n")
    (tmp_path / "checks.py").write_text("ALL_CHECKS = ('a',)\n")
    (tmp_path / "extra.py").write_text(
        "def helper(x):\n    pass\n\ndef orphan():\n    return leaf()\n\ndef leaf():\n    pass\n"
        "\nclass Box:\n    def __init__(self):\n        self.x = setup()\n\n"
        "    @property\n    def used(self):\n        pass\n\n"
        "    def unused(self):\n        return unused_leaf()\n"
        "\ndef setup():\n    pass\n\ndef unused_leaf():\n    pass\n"
    )
    assert unreached_definitions(tmp_path) == [
        "extra.orphan", "extra.leaf", "extra.Box.unused", "extra.unused_leaf"
    ]
