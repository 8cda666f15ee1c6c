"""Additive generation of integer sequences via nested summations.

The package has two faces: a row process (repeatedly drop every p-th entry,
then take prefix sums) and an equivalent family of nested-summation
programs whose bounds depend on enclosing indices. Presets package the
named sequences; oracles provide independent closed forms and recurrences
to verify them against.

Every exported name and submodule loads on first use (PEP 562), so
`import moessner`, or a CLI subcommand, loads only the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_ORIGIN = {
    name: module
    for module, names in {
        "counting": "CountingNat log_add_power_prefix log_add_power_prefix_counted sigma times_halving",
        "elision": "drop_index is_dropped keep_index",
        "engine": "EvalReport LevelSpec SummationProgram evaluate evaluate_counting evaluate_memoized is_markov"
        " program_from_dict program_from_json program_to_dict program_to_json unfold_display validate",
        "errors": "BFileParseError ConsistencyError DomainError FetchError FixtureNotFoundError MoessnerError"
        " ParameterError PreconditionError ValidationError",
        "expr": "Add Expr FloorDiv Hist IfZero Level Lit Mul Param Prev ProdHist Sub SumHist Table"
        " eval_expr expr_from_dict expr_to_dict render_expr validate_expr",
        "inverse": "check_roundtrip inverse_step run_inverse seed",
        "oeis": "BFileEntry check_preset_prefix fetch load_fixture load_manifest parse_bfile parse_manifest"
        " serialize_bfile",
        "oracles": "binomial catalan catalan_closed catalan_convolved euler_zigzag factorial fibonacci"
        " fuss_catalan long2_closed multifactorial multiset polygonal_closed pow_fast product_table",
        "polygonal": "quotient_sum quotient_sum_shifted",
        "presets": "PresetInfo build catalog expected preset_names",
        "process": "ProcessStep ProcessTrace dp_power drop_every forward_intermediate iteration_count"
        " naive_power prefix_sums required_length run_process",
        "rules": "InitRule fold_bound keep_bound parse_fold_rule",
    }.items()
    for name in names.split()
}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """An exported name from its submodule, kept here after the first lookup; or a submodule."""
    if name in _ORIGIN:
        value = globals()[name] = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        return value
    if name in _ORIGIN.values():
        return import_module(f".{name}", __name__)  # the import binds it here
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORIGIN, *_ORIGIN.values()})
