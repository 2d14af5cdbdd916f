import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axbkit
from axbkit import cli, suites
from axbkit.cli import main
from axbkit.config import (ORACLE_N_CAP, U_RANGE, Y_STEP_MAX, ConfigError, RunConfig,
                           parse_config_file)
from axbkit.corpus import build_corpus, corpus_names
from axbkit.describe import describe, operation_names
from axbkit.reporting import canonical_json
from axbkit.spectral import DENSE_CAP, KERNEL_NYQUIST, UnresolvedSpectrumWarning, clear_caches
from axbkit.suites import run_all, run_suite, suite_group


def test_config_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.grid_n == 512
    with pytest.raises(ConfigError):
        RunConfig(tol_scale=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(grid_n=4)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_config_file_rejects_non_finite_tol_scale(tmp_path, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"tol_scale = {value}\n")
    with pytest.raises(ConfigError, match="tol_scale"):
        parse_config_file(str(path))


@pytest.mark.parametrize("key", ["grid_n"])
def test_config_rejects_grid_above_dense_cap(key):
    RunConfig(**{key: DENSE_CAP})
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: DENSE_CAP + 1})


@pytest.mark.parametrize("n", [32, 33, 64, 511, 512, DENSE_CAP])
def test_coarse_rung_is_half_the_fine_grid(n):
    # the coarse rung is derived, not a key: it is never at or above the fine one
    cfg = RunConfig(grid_n=n)
    assert cfg.grid_n_coarse == n // 2
    assert "grid_n_coarse" not in cfg.to_dict()
    with pytest.raises(TypeError, match="grid_n_coarse"):
        RunConfig(grid_n=n, grid_n_coarse=n // 2)


def test_config_bounds_oracle_n():
    # construction allocates nothing, so the cap itself is cheap to accept
    assert RunConfig(oracle_n=ORACLE_N_CAP).oracle_n == ORACLE_N_CAP
    with pytest.raises(ConfigError, match="oracle_n"):
        RunConfig(oracle_n=ORACLE_N_CAP + 1)


def test_config_bounds_tau_n():
    # the spectral suite's kernel table is tau_n x 720, so tau_n shares oracle_n's cap
    assert RunConfig(tau_n=ORACLE_N_CAP).tau_n == ORACLE_N_CAP
    with pytest.raises(ConfigError, match="tau_n"):
        RunConfig(tau_n=ORACLE_N_CAP + 1)


@pytest.mark.parametrize("key, partner", [("u_min", "u_max"), ("hp_u_min", "hp_u_max"),
                                          ("u_max", "u_min"), ("hp_u_max", "hp_u_min")])
def test_config_bounds_the_log_window(key, partner):
    # log(min normal) <= u keeps x = e^u normal, 2u <= log(max float) keeps x^2 finite; a
    # window's low end meets the first bound, its high end the second
    lo, hi = U_RANGE
    assert lo == math.log(sys.float_info.min) and 2.0 * hi == math.log(sys.float_info.max)
    bound, beyond = (lo, -math.inf) if key.endswith("min") else (hi, math.inf)
    assert getattr(RunConfig(**{key: bound, partner: 0.0}), key) == bound
    with pytest.raises(ConfigError, match=rf"^{key}: .* got {math.nextafter(bound, beyond)}$"):
        RunConfig(**{key: math.nextafter(bound, beyond), partner: 0.0})


def test_config_bounds_tau_max_by_the_kernel_quadrature_nyquist_frequency():
    # the kernel quadrature samples cos(tau t) at dt = 18 / 719; above pi / dt a tau aliases
    assert KERNEL_NYQUIST == math.pi / (18.0 / 719.0) and 125.48 < KERNEL_NYQUIST < 125.49
    assert RunConfig(tau_max=KERNEL_NYQUIST).tau_max == KERNEL_NYQUIST
    beyond = math.nextafter(KERNEL_NYQUIST, math.inf)
    with pytest.raises(ConfigError, match=rf"^tau_max: .* got {beyond}$"):
        RunConfig(tau_max=beyond)


@pytest.mark.parametrize("key, window, toward", [
    # the step (y_max - y_min) / 47 reaches Y_STEP_MAX = 3 at a span of 141, from either end
    ("y_max", dict(y_min=-8.0, y_max=133.0), math.inf),
    ("y_min", dict(y_min=-133.0, y_max=8.0), -math.inf),
    # y = 0, the centre of the half-plane test function, stays in the window
    ("y_min", dict(y_min=0.0, y_max=16.0), math.inf),
    ("y_max", dict(y_min=-16.0, y_max=0.0), -math.inf),
])
def test_config_bounds_the_y_window(key, window, toward):
    assert Y_STEP_MAX == 3.0
    assert getattr(RunConfig(**window), key) == window[key]
    beyond = math.nextafter(window[key], toward)
    with pytest.raises(ConfigError, match=rf"^{key}: .* got {beyond}$"):
        RunConfig(**{**window, key: beyond})


@pytest.mark.parametrize("suite, text", [
    ("halfplane", "y_max = 133\n"),
    ("halfplane", "y_min = -133\n"),
    ("halfplane", "y_min = 0\ny_max = 16\n"),
    ("halfplane", "y_min = -45\ny_max = 0\ny_n = 16\n"),
    ("spectral", f"tau_max = {KERNEL_NYQUIST!r}\n"),
])
def test_a_window_at_its_bound_runs_without_a_traceback(tmp_path, suite, text):
    # each accepted edge runs its suite to a verdict; the checks may fail (exit 1), and at
    # the tau_max cap the kernel backend flags its inputs as unresolved
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnresolvedSpectrumWarning)
        assert main(["verify", suite, "--config", str(path), "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / f"{suite}.json").read_text())
    assert all(math.isfinite(check["value"]) for check in report["checks"])


#: ``(suite, config text, key)``: each text names one bad key and fails as the config is built
BAD_CONFIG = [
    ("spectral", "tau_max = nan\n", "tau_max"),
    ("spectral", "tau_max = inf\n", "tau_max"),
    ("halfplane", "hp_n = 8\n", "hp_n"),
    ("halfplane", "y_n = 8\n", "y_n"),
    ("halfplane", "hp_n = 100\n", "hp_n"),  # 4800 points, above halfplane.DENSE_CAP_2D
    ("halfplane", "y_min = 9\n", "y_min"),
    ("halfplane", "y_max = nan\n", "y_max"),
    ("halfplane", "hp_u_min = nan\n", "hp_u_min"),
    ("halfplane", "hp_u_max = nan\n", "hp_u_max"),
    ("spectral", "tau_n = 2000000\n", "tau_n"),  # a 10.7 GiB kernel table
    ("group", "seed = 3  # an inline comment is part of the value\n", "seed"),
    ("partition", "corpus = nosuch\n", "corpus"),
    ("group", "corpus = nosuch\n", "corpus"),
    ("group", "schema_version = 7\n", "schema_version"),  # fixed by the package, not a key
    # x = e^u underflows or x^2 overflows: each ended in a traceback before the window bound
    ("spectral", "u_min = -800\n", "u_min"),
    ("partition", "u_max = 710\n", "u_max"),
    ("halfplane", "hp_u_min = -800\n", "hp_u_min"),
    ("halfplane", "hp_u_max = 800\n", "hp_u_max"),
    # tau sinh(pi tau) overflowed in kl_inverse, and a ValueError ended the spectral suite
    ("spectral", "tau_max = 1e6\n", "tau_max"),
    ("spectral", "tau_max = 225\n", "tau_max"),
    # no y node sampled the half-plane test function, and a ZeroDivisionError ended the suite
    ("halfplane", "y_max = 1e300\n", "y_max"),
    ("halfplane", "y_min = -1e300\n", "y_min"),
    ("halfplane", "y_min = 100\ny_max = 116\n", "y_min"),
]


@pytest.mark.parametrize("text, key", [
    ("oracle_n = 400000\n", "oracle_n"),
    ("grid_n = 256\ngrid_n_coarse = 512\n", "grid_n_coarse"),
] + [(text, key) for _, text, key in BAD_CONFIG])
def test_config_file_bad_bound(tmp_path, text, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=key):
        parse_config_file(str(path))


@pytest.mark.parametrize("suite, text, key", [
    ("spectral", "oracle_n = 400000\n", "oracle_n"),
    ("besov", "grid_n = 256\ngrid_n_coarse = 512\n", "grid_n_coarse"),
    # a known name that leaves the suite's corpus empty is caught when the suite runs
    ("partition", "corpus = macdonald(tau0=1)\n", "corpus"),
] + BAD_CONFIG)
def test_cli_bad_bound_exits_2(tmp_path, capsys, suite, text, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["verify", suite, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / f"{suite}.json").exists()


@pytest.mark.parametrize("args, key", [
    (["--tol-scale", "inf"], "tol_scale"),
    (["--tol-scale", "nan"], "tol_scale"),
    (["--grid-n", "3000"], "grid_n"),
    (["--grid-n", "31"], "grid_n"),  # its coarse rung, 15, is below 16 nodes
])
def test_cli_bad_value_exits_2(tmp_path, capsys, args, key):
    assert main(["verify", "group", "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "group.json").exists()


def test_cli_grid_n_below_the_old_coarse_default_runs(tmp_path):
    # the coarse rung follows grid_n down, so a 128-node run no longer collides with it
    assert main(["verify", "group", "--grid-n", "128", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "group.json").read_text())
    assert report["config"]["grid_n"] == 128 and "grid_n_coarse" not in report["config"]


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk-scale run\n"
        "   # a comment is a whole line; a later '#' belongs to the value\n"
        "out_dir = runs#3\n"
        "grid_n = 256\n"
        "seed = 3\n"
        "tol_scale = 2.0\n"
        "corpus = log_gaussian(sigma=1,u0=-3); power_exp(alpha=1,beta=1)\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.grid_n == 256 and cfg.seed == 3 and cfg.tol_scale == 2.0
    assert cfg.grid_n_coarse == 128 and cfg.out_dir == "runs#3"
    assert cfg.corpus == ("log_gaussian(sigma=1,u0=-3)", "power_exp(alpha=1,beta=1)")
    over = parse_config_file(str(path), grid_n=192)
    assert over.grid_n == 192


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_m = 256\n")
    with pytest.raises(ConfigError, match="grid_m"):
        parse_config_file(str(path))


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid_n = many\n")
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config_file(str(path))


def _config_text(cfg: RunConfig) -> str:
    """``cfg.to_dict()`` as config-file lines; lists are semicolon-separated."""
    return "".join(f"{key} = {'; '.join(value) if isinstance(value, list) else value}\n"
                   for key, value in cfg.to_dict().items())


_finite = dict(allow_nan=False, allow_infinity=False)
run_configs = st.builds(
    RunConfig,
    u_min=st.floats(-30.0, -0.5, **_finite), u_max=st.floats(0.0, 12.0, **_finite),
    grid_n=st.integers(32, DENSE_CAP),
    oracle_n=st.integers(16, ORACLE_N_CAP),
    tau_max=st.floats(1e-3, 100.0, **_finite), tau_n=st.integers(32, 5000),
    hp_u_min=st.floats(-10.0, -0.5, **_finite), hp_u_max=st.floats(0.0, 10.0, **_finite),
    hp_n=st.integers(16, 64), y_n=st.integers(16, 64),
    y_min=st.floats(-20.0, -0.5, **_finite), y_max=st.floats(0.0, 20.0, **_finite),
    corpus=st.lists(st.sampled_from(corpus_names()), unique=True).map(tuple),
    seed=st.integers(0, 2 ** 63), tol_scale=st.floats(1e-6, 1e6, **_finite),
    out_dir=st.text("abcxyz019_-./#", min_size=1, max_size=20),
)


@given(run_configs)
@settings(max_examples=100, deadline=None)
def test_run_config_round_trips_through_a_config_file(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(cfg))
        assert parse_config_file(path) == cfg


#: the keys a diagnostic may name, besides ``--config`` and a line number
_NAMED = re.compile(r"--config|line \d+|\b(?:" + "|".join(RunConfig.__dataclass_fields__) + r")\b")
_config_lines = st.one_of(
    st.binary(max_size=24),
    st.tuples(st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
              st.one_of(st.binary(max_size=12), st.text(max_size=12).map(str.encode)))
    .map(lambda kv: kv[0].encode() + b" = " + kv[1]),
)


@given(st.lists(_config_lines, max_size=6).map(b"\n".join))
@example(b"\xff\xfegrid_n = 64\n")
@settings(max_examples=150, deadline=None)
def test_fuzzed_config_bytes_parse_or_exit_2_naming_a_key(text):
    payload = {"checks": [], "all_passed": True}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "run_suite", lambda cfg, name: payload):
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["verify", "group", "--config", path, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().startswith("configuration error: ")
        assert _NAMED.search(err.getvalue())


@pytest.mark.parametrize("content", [None, b"\xff\xfegrid_n = 64\n"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "run.cfg"
    if content is None:
        path.mkdir()  # a directory where the file should be
    else:
        path.write_bytes(content)
    assert main(["verify", "group", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "--config" in err
    assert not (tmp_path / "group.json").exists()


@pytest.mark.parametrize("via_file", [False, True])
def test_cli_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, via_file):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = str(blocker / "sub")
    args = ["verify", "group", "--out", out]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir = {out}\n")
        args = ["verify", "group", "--config", str(cfg)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "out_dir" in err


def test_cli_out_dir_with_a_nul_byte_in_the_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out_dir = a\0b\n")
    assert main(["verify", "group", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out_dir: ") and "null byte" in err, err


def test_tolerance_scaling():
    cfg = RunConfig(tol_scale=2.0)
    assert suites._threshold(cfg, "AC2") == 2e-12
    assert suites._threshold(cfg, "AC6") == pytest.approx(1.0 + 2e-8, abs=1e-15)
    assert suites._threshold(cfg, "AC12b") == -1.75  # sign-flavored, unscaled


#: every check's threshold in a ``--tol-scale 2`` report at seed 0: the scaled tolerances
#: double, AC6's excess over 1 doubles, and the rest stay put, AC9b's order bound among them
TOL_SCALE_2 = {
    "AC1": 2e-12, "AC2": 2e-12, "PART_support": 1e-15, "AC3": 2e-10, "PART_reconstruction": 2e-10,
    "AC4": 2e-4, "AC5": 2e-3, "SPEC_parseval": 2e-3, "SPEC_roundtrip": 2e-3,
    "SPEC_constant": 1e-6, "SPEC_identity": 1e-12, "SPEC_product": 1e-12,
    "SPEC_positivity": -1e-10, "SPEC_unitary": 1e-10, "SPEC_measure": 1e-12,
    "SPEC_nonneg": -1e-10, "AC6": 1.0000000199999999, "AC7": 0.02, "PW_monotone": 1e-12,
    "PW_idempotent": 1e-12, "PW_selfadjoint": 1e-12, "PW_pythagoras": 1e-12,
    "PW_schrodinger_bound": 1.000000000001, "AC9a": 2e-10, "AC9b": 1.0,
    "SMOOTH_binomial": 1e-10, "SMOOTH_m_at_zero": 1e-14, "AC8": 2e-8, "SMOOTH_unit_mass": 1e-6,
    "SMOOTH_density_mass": 1e-12, "SMOOTH_bounded": 1.0, "SMOOTH_noncommuting": 1e-8,
    "AC10a": 20.0, "AC10b": 200.0, "AC10c": 20.0, "AC10d": 200.0, "K_ineq_constants": math.inf,
    "K_reiteration": math.inf, "AC11a": 100.0, "AC11b": 0.4, "AC12a": 200.0, "AC12b": -1.75,
    "AC12c": 0.5, "FRAME_tight": 1e-10, "FRAME_redundant": 1e-10, "FRAME_parseval": 1e-10,
    "FRAME_reconstruction": 1e-10, "FRAME_dual_reconstruction": 1e-10,
    "FRAME_direct_inverse": math.inf, "AC13a": 2e-10, "AC13b": -1e-8, "AC13c": math.inf,
    "HP_commutator_left": 5e-3, "HP_commutator_right": 5e-3, "HP_expanded_left": 5e-2,
    "HP_expanded_right": 5e-2, "HP_modulus_bound": 1.0, "AC14": 0.5,
}


@pytest.fixture(scope="module")
def tol_scale_2_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tol_scale_2")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["report", "--tol-scale", "2", "--seed", "0", "--out", str(out)])
    return rc, out


def test_report_passes_at_tol_scale_2(tol_scale_2_report):
    # --tol-scale loosens checks; it must not tighten AC9b's lower bound on the order
    rc, _ = tol_scale_2_report
    assert rc == 0


def test_tol_scale_2_thresholds(tol_scale_2_report):
    _, out = tol_scale_2_report
    got = {c["id"]: float(c["threshold"]) for name in suites.SUITES
           for c in json.loads((out / f"{name}.json").read_text())["checks"]}
    assert got == TOL_SCALE_2


def test_corpus_registry(grid):
    names = corpus_names()
    assert any("log_gaussian" in n for n in names)
    pairs = build_corpus(grid, only_decaying=True)
    assert all(e.decaying for e, _ in pairs)
    with pytest.raises(KeyError):
        build_corpus(grid, names=["nonexistent"])


def test_corpus_normalized(grid):
    from axbkit.halfline import xp_norm

    for entry, f in build_corpus(grid, families={"log_gaussian", "power_exp"}):
        assert xp_norm(f) == pytest.approx(1.0, rel=1e-12)


def test_describe_contains_anchors():
    assert "An analog of the Hardy-Steklov operator" in describe("hardy_steklov")
    assert "mixed modulus of continuity" in describe("modulus_mixed")
    assert "equipped with the group operation" in describe("multiply")
    with pytest.raises(KeyError):
        describe("nonexistent_op")
    assert "hardy_steklov" in operation_names()


def test_every_public_function_and_class_is_described():
    modules = [importlib.import_module(f"axbkit.{m.name}")
               for m in pkgutil.iter_modules(axbkit.__path__)]
    names = set(operation_names())
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)):
                assert name in names, f"{mod.__name__}.{name} is not described"
                assert obj.__doc__ and describe(name).strip(), f"{mod.__name__}.{name}"


def test_every_module_export_resolves():
    modules = [axbkit] + [importlib.import_module(f"axbkit.{m.name}")
                          for m in pkgutil.iter_modules(axbkit.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_no_module_reads_the_environment():
    # the config file and the CLI flags are the only knobs; a hidden one
    # would be a read of os.environ or os.getenv
    hidden = {"environ", "environb", "getenv", "getenvb"}
    src_dir = os.path.dirname(axbkit.__file__)
    found = []
    for fname in sorted(os.listdir(src_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src_dir, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in hidden:
                found.append(f"{fname}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{fname}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in hidden]
    assert found == []


#: the functions that import from the package at call time, to break an import cycle: none,
#: since the modules import one another at module level in one chain of layers
_CYCLE_IMPORTS = set()


def test_function_level_imports_only_break_cycles():
    src_dir = os.path.dirname(axbkit.__file__)
    found = set()
    for fname in sorted(os.listdir(src_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src_dir, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(fname[:-3], fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert found == _CYCLE_IMPORTS


def _module_level_imports(tree) -> tuple[set, set]:
    """The package modules a module imports at module level, and those it imports only
    under ``if TYPE_CHECKING:``."""
    runtime, typing = set(), set()
    for stmt in tree.body:
        checking = (isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)
                    and stmt.test.id == "TYPE_CHECKING")
        for node in (ast.walk(stmt) if checking else [stmt]):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                names = ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                (typing if checking else runtime).update(names)
    return runtime, typing


def test_the_module_level_imports_form_one_chain_of_layers():
    # no cycle: the modules can be ordered so that each imports only earlier ones, and
    # halfline, the lowest representation layer, rests on grids and group alone
    src_dir = os.path.dirname(axbkit.__file__)
    graph, typing = {}, {}
    for fname in sorted(os.listdir(src_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(src_dir, fname)) as fh:
                graph[fname[:-3]], typing[fname[:-3]] = _module_level_imports(
                    ast.parse(fh.read(), fname))
    assert graph["halfline"] == {"grids", "group"}
    assert typing["halfline"] <= {"moduli"}
    order, left = [], dict(graph)
    while left:
        ready = sorted(m for m, deps in left.items() if deps <= set(order))
        assert ready, f"import cycle among {sorted(left)}"
        order += ready
        for m in ready:
            del left[m]
    chain = ["grids", "group", "halfline", "smoothing", "moduli", "spectral"]
    assert all(lower in graph[upper] for lower, upper in zip(chain, chain[1:]))


def test_the_package_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test oracle only, and
    # importing it would dominate the start-up of every command
    code = ("import sys, axbkit, axbkit.cli\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "rc = axbkit.cli.main(['verify', 'group', '--out', sys.argv[1]])\n"
            "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(rc, len(before), len(after), before[:3], after[:3])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(axbkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[-1] == "0 0 0 [] []"


def test_the_moduli_load_neither_numpy_ma_nor_numpy_polynomial():
    # both cost every process memory; numpy.ma comes with np.unique and numpy.polynomial
    # with the Gauss-Legendre tables, neither of which a modulus or K-functional needs
    code = ("import sys, numpy as np, axbkit.cli\n"
            "from axbkit import BesovParams, LogGrid, besov_norm, halfline_space, k_upper,"
            " modulus_mixed\n"
            "from axbkit.smoothing import irwin_hall_nodes\n"
            "grid = LogGrid(-8.0, 4.0, 64)\n"
            "space, f = halfline_space(grid), np.exp(-(grid.u + 2.0) ** 2)\n"
            "ladder = np.array([0.25, 0.5, 1.0])\n"
            "modulus_mixed(space, 2, ladder, f), k_upper(space, 2, ladder, f)\n"
            "besov_norm(space, f, BesovParams(1.0, 2.0, 2))\n"
            "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
            "irwin_hall_nodes(2, 1.0)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(axbkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[-2:] == ["False False", "True"]


def test_python_m_axbkit_runs_the_command(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(axbkit.__file__)))
    run = subprocess.run([sys.executable, "-m", "axbkit", "verify", "group", "--out",
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and "[pass] AC1" in run.stdout, run.stderr
    assert (tmp_path / "group.json").exists()
    bad = subprocess.run([sys.executable, "-m", "axbkit", "verify", "group", "--tol-scale", "nan"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and "tol_scale" in bad.stderr


@pytest.mark.parametrize("suite", ["partition", "kfunctional", "besov", "jackson"])
def test_a_suite_writes_identical_files_into_two_directories(tmp_path, suite):
    # the stacked eigenbasis and moduli paths, run twice at a fixed seed on small grids, each
    # run from empty caches
    cfg = RunConfig(grid_n=64, seed=3)
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        out.mkdir()
        clear_caches()
        run_suite(cfg, suite, out_dir=str(out))
    names = sorted(os.listdir(first))
    assert f"{suite}.json" in names and names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_a_warm_rerun_writes_the_same_report(tmp_path):
    # the second in-process pass reuses every cache the first one filled
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        run_all(RunConfig(seed=0, out_dir=str(out)))
    names = sorted(os.listdir(first))
    assert len(names) == 32 and names == sorted(os.listdir(second))
    for name in names:
        if name != "report.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    a, b = (json.loads((out / "report.json").read_text()) for out in (first, second))
    assert (a["config"].pop("out_dir"), b["config"].pop("out_dir")) == (str(first), str(second))
    assert a == b


def test_cli_describe_and_corpus(capsys):
    assert main(["describe", "hardy_steklov"]) == 0
    out = capsys.readouterr().out
    assert "An analog of the Hardy-Steklov operator" in out
    assert main(["describe", "not_an_op"]) == 2
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "log_gaussian" in out


def test_cli_verify_group(tmp_path, capsys):
    rc = main(["verify", "group", "--out", str(tmp_path), "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] AC1" in out
    assert (tmp_path / "group.json").exists()


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n")
    assert main(["verify", "group", "--config", str(bad)]) == 2


def test_reports_are_deterministic(tmp_path):
    cfg = RunConfig(seed=5, out_dir=str(tmp_path / "a"))
    p1 = run_suite(cfg, "group")
    cfg2 = RunConfig(seed=5, out_dir=str(tmp_path / "b"))
    p2 = run_suite(cfg2, "group")
    a = (tmp_path / "a" / "group.json").read_bytes()
    b = (tmp_path / "b" / "group.json").read_bytes()
    assert a == b
    assert canonical_json(p1) == canonical_json(p2)


def test_cli_describe_aliases(capsys):
    assert main(["describe", "laplacian_2d"]) == 0
    assert "Kronecker" in capsys.readouterr().out
    assert main(["describe", "list_corpus"]) == 0
    assert "corpus" in capsys.readouterr().out


def test_reports_differ_across_seeds(tmp_path):
    pay1 = suite_group(RunConfig(seed=1))
    pay2 = suite_group(RunConfig(seed=2))
    # different random elements, different (tiny) defects; the worst one is
    # a whole number of ulps of the largest products, so compare all three
    defects = ("associativity", "inverse", "roundtrip")
    v1 = [pay1["checks"][0][k] for k in defects]
    v2 = [pay2["checks"][0][k] for k in defects]
    assert v1 != v2


def test_profile_csv_schema(tmp_path):
    cfg = RunConfig(seed=0, out_dir=str(tmp_path))
    run_suite(cfg, "kfunctional")
    csvs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
    assert csvs, "kfunctional suite should emit profile CSVs"
    first = (tmp_path / csvs[0]).read_text().splitlines()
    assert first[0].startswith("s,")
    assert len(first) > 1


def test_besov_empty_corpus_raises():
    cfg = RunConfig(corpus=("macdonald(tau0=1)",))
    from axbkit.suites import suite_besov

    with pytest.raises(ValueError, match="empty corpus"):
        suite_besov(cfg)
