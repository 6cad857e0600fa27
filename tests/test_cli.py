import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import loadshare.cli as cli
import loadshare.estimate
import loadshare.io
import loadshare.oracle
import loadshare.simulate
from loadshare import ModelSpec, Params, RngState, sample_dataset
from loadshare.cli import main
from loadshare.errors import LoadShareError, NoConvergence
from loadshare.io import write_dataset
from loadshare.simulate import _BLOCK_UNIFORMS
from loadshare.writer import _WRITE_BLOCK_VALUES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SIMULATE = ["simulate", "--model", "kim-kvam", "--k", "2", "--theta", "1", "--lambda", "1"]
CHILD_TIMEOUT = 120  # seconds: a child that runs on fails its test instead of hanging the suite


@contextlib.contextmanager
def killed_after_timeout(child):
    """Kill ``child`` once CHILD_TIMEOUT seconds have passed, or on leaving: a read of its
    pipes then ends at EOF instead of waiting for output that never comes."""
    timer = threading.Timer(CHILD_TIMEOUT, child.kill)
    timer.start()
    try:
        yield child
    finally:
        timer.cancel()
        child.kill()


def closed_stdout_run(argv, lines_read):
    """Run the CLI with stdout a pipe closed after ``lines_read`` lines; (exit code, stderr)."""
    with killed_after_timeout(subprocess.Popen(
            [sys.executable, "-m", "loadshare", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)) as child:
        for _ in range(lines_read):
            child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        return child.wait(timeout=CHILD_TIMEOUT), err


class TestWriteFaults:
    """A fault writing the output exits 2 with one error line: no traceback, and nothing
    about an exception ignored at exit."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("to", ["out", "stdout", "help"])
    def test_full_device_exits_2(self, tmp_path, to):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n")
        argv = {"out": SIMULATE + ["--n", "5", "--out", "/dev/full"], "help": ["fit", "--help"],
                "stdout": ["fit", "--model", "kim-kvam", "--data", str(data)]}[to]
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "loadshare", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
        expected = "cannot write output file" if to == "out" else "cannot write output"
        assert done.returncode == 2
        assert done.stderr == f"error: {expected}: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("argv, lines_read", [
        (["fit", "--model", "kim-kvam", "--data", "DATA"], 0),
        (SIMULATE + ["--n", "100000"], 1),
        (["verify", "--model", "kim-kvam", "--random", "--instances", "2"], 0),
    ], ids=["fit", "simulate", "verify"])
    def test_closed_pipe_exits_2(self, tmp_path, argv, lines_read):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n")
        code, err = closed_stdout_run([str(data) if a == "DATA" else a for a in argv], lines_read)
        assert code == 2
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_other_os_errors_are_not_write_faults(self, tmp_path, monkeypatch, capsys):
        # Only a failed write to stdout is worded as an output fault, and main gives
        # sys.stdout back as it found it.
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n")

        def fail(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(loadshare.estimate, "closed_form_mle", fail)
        stdout = sys.stdout
        with pytest.raises(OSError, match="Input/output error"):
            main(["fit", "--model", "kim-kvam", "--data", str(data)])
        assert sys.stdout is stdout
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, exit_code, line", [
    (["fit", "--model", "kim-kvam", "--data", "d.csv"], 0, "theta_hat: 0.25"),
    (["fit", "--model", "kim-kvam"], 2,
     "loadshare fit: error: the following arguments are required: --data"),
], ids=["fit", "usage-error"])
def test_entry_point_ends_the_process_without_teardown(tmp_path, monkeypatch, capsys, argv,
                                                       exit_code, line):
    # entry_point flushes both streams and leaves by os._exit, so no atexit handler runs; the
    # child's exit code, stdout and stderr are main's.
    (tmp_path / "d.csv").write_text("t1,t2\n1,2\n3,5\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    code = ("import atexit, sys; from loadshare import cli; "
            "atexit.register(lambda: print('teardown ran', file=sys.stderr)); cli.entry_point()")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)
    assert done.returncode == exit_code
    assert line in (done.stdout if exit_code == 0 else done.stderr).splitlines()
    assert "teardown ran" not in done.stderr


MC_STUDY = ["mc-study", "--model", "ssk", "--k", "3", "--s", "2", "--theta", "1", "--lambda",
            "1,1", "--n", "10", "--reps", "200", "--format", "json"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_entry_point_maps_no_libcrypto(capsys):
    # numpy.random imports secrets, whose hmac would load _hashlib and with it OpenSSL's
    # libcrypto; entry_point blocks _hashlib first, so the program's process never maps it.
    code = ("import os, sys; from loadshare import cli; _exit = os._exit\n"
            "def leave(code):\n"
            "    with open('/proc/self/maps') as maps:\n"
            "        os.write(2, f'libcrypto mapped: {\"libcrypto\" in maps.read()}'.encode())\n"
            "    _exit(code)\n"
            "os._exit = leave; cli.entry_point()")
    done = subprocess.run([sys.executable, "-c", code, *MC_STUDY], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    assert (done.returncode, done.stdout) == run_cli(capsys, *MC_STUDY)[:2]
    assert done.stderr == "libcrypto mapped: False"


def test_fit_verify_and_help_load_no_numpy_random(tmp_path):
    # Only the commands that draw (simulate, mc-study, verify --random) pay for numpy.random's
    # import and its extension modules, so fit and verify --data start from a lower floor.
    data = tmp_path / "d.csv"
    data.write_text("t1,t2,t3\n1,2,3\n3,5,1\n")
    argvs = [["fit", "--model", "ssk", "--s", "2", "--data", str(data)],
             ["verify", "--model", "kim-kvam", "--data", str(data)], ["--help"]]
    code = ("import json, sys; from loadshare import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    assert done.stderr == "[0, 0, 0] False\n"


def _bench_inputs(tmp_path) -> dict[str, list[str]]:
    """Small forms of the benchmark's four command lines, with their input files written."""
    rng = np.random.default_rng(27)
    lifetimes, spacings = tmp_path / "lifetimes.csv", tmp_path / "spacings.csv"
    for path, letter in ((lifetimes, "x"), (spacings, "t")):
        rows = rng.exponential(size=(40, 5)).tolist()
        path.write_text(",".join(f"{letter}{j}" for j in range(1, 6)) + "\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return {
        "fit": ["fit", "--model", "ssk", "--s", "2", "--format", "json", "--data", str(lifetimes)],
        "verify-kim-kvam": ["verify", "--model", "kim-kvam", "--data", str(spacings)],
        "verify-ssk": ["verify", "--model", "ssk", "--s", "2", "--data", str(spacings)],
        "mc-study": MC_STUDY,
        "simulate": ["simulate", "--model", "ssk", "--k", "5", "--s", "2", "--theta", "1",
                     "--lambda", "1.5,0.8,2,1.2", "--n", "5000", "--out", str(tmp_path / "out.csv")],
    }


@pytest.mark.parametrize("command", ["fit", "verify-kim-kvam", "verify-ssk", "mc-study",
                                     "simulate"])
def test_main_keeps_to_the_in_process_contract(tmp_path, capfd, monkeypatch, command):
    # The traced benchmark calls main in-process under redirect_stdout and redirect_stderr and
    # catches only Exception. So main returns an int and raises nothing (pytest fails a test
    # on any exception, SystemExit too), ends no process, writes around neither redirect, and
    # leaves the caller's _hashlib as it found it.
    argv = _bench_inputs(tmp_path)[command]
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code}) called"))
    hashlib_module = sys.modules.get("_hashlib")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert type(code) is int and code == 0, err.getvalue()
    assert capfd.readouterr() == ("", "")
    assert sys.modules.get("_hashlib") is hashlib_module
    if command == "simulate":
        assert err.getvalue() == "n=5000 k=5 seed=0\n"
    else:
        assert out.getvalue()


def test_every_error_class_has_an_exit_code():
    # main exits with the exit_code of the LoadShareError it catches, so every subclass, the
    # command line's own included, must carry one of the documented codes.
    classes, stack = {}, [LoadShareError]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("loadshare."):
            classes[cls.__name__] = cls.exit_code
        stack.extend(cls.__subclasses__())
    assert classes == {
        "LoadShareError": 2, "InvalidModel": 2, "InvalidParams": 2, "DimensionMismatch": 2,
        "InvalidSampleSize": 2, "_UsageError": 2, "_WriteFault": 2,
        "DataFileError": 1, "NonPositiveLifetime": 1, "DuplicateLifetime": 1, "NoConvergence": 3,
    }


def _cap_address_space():
    # In the child only: a request past 2 GiB then fails at once, where a host that
    # overcommits memory would grant it and kill the process later.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestOutOfMemory:
    """A request too large for memory exits 2 with one error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["mc-study", *SIMULATE[1:], "--n", "100000000000", "--reps", "1"],
    ], ids=["mc-study"])
    def test_exits_2_with_one_error_line(self, argv):
        # A block holds at least one replication, so mc-study still draws its n * k uniforms at once.
        pytest.importorskip("resource")
        done = subprocess.run([sys.executable, "-m", "loadshare", *argv], capture_output=True,
                              text=True, preexec_fn=_cap_address_space, timeout=CHILD_TIMEOUT)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: out of memory: Unable to allocate 1.46 TiB")

    def test_simulate_past_memory_streams_until_the_pipe_closes(self):
        # simulate holds one block at a time, so 10**11 rows (1.46 TiB as one matrix) start
        # at once under the same limit; closing the pipe after the header ends the run.
        pytest.importorskip("resource")
        with killed_after_timeout(subprocess.Popen(
                [sys.executable, "-m", "loadshare", *SIMULATE, "--n", "100000000000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=_cap_address_space)) as child:
            assert child.stdout.readline() == "t1,t2\n"
            child.stdout.close()
            code = child.wait(timeout=10)
        err = child.stderr.read()
        child.stderr.close()
        assert code == 2
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_study_past_memory_runs_block_by_block(self):
        # mc-study summarises each block as it is made, so no array grows with reps: 10**11
        # replications (1.46 TiB of estimates as one array) run under the same limit, with
        # nothing on either stream, until they are stopped.
        pytest.importorskip("resource")
        argv = ["mc-study", *SIMULATE[1:], "--n", "2", "--reps", "100000000000"]
        child = subprocess.Popen([sys.executable, "-m", "loadshare", *argv], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, preexec_fn=_cap_address_space)
        try:
            with pytest.raises(subprocess.TimeoutExpired):
                child.wait(timeout=1.5)
        finally:
            child.kill()
        assert child.communicate(timeout=CHILD_TIMEOUT) == ("", "")

    def test_memory_error_is_caught_in_process(self, capsys, monkeypatch):
        def fail(*args):
            raise MemoryError()

        monkeypatch.setattr(loadshare.simulate, "_sample_blocks", fail)
        code, out, err = run_cli(capsys, *SIMULATE, "--n", "3")
        assert (code, out, err) == (2, "", "error: out of memory: the request is too large\n")


def test_import_builds_no_parse_table():
    # Start-up stays lean: no fractions or decimal module, and the parse kernel's table of
    # powers of ten is built on the first read, not at import.
    code = ("import sys, loadshare.cli, loadshare.io as io; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)), io._powers.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT)
    assert done.stdout == "[] 0\n"


LAYERS = ["errors", "estimate", "model", "oracle", "simulate"]


@pytest.mark.parametrize("ask", ["from loadshare import LoadShareError", "loadshare.mc_study",
                                 "from loadshare import *"], ids=["first", "last", "star"])
def test_import_loads_no_module_until_a_public_name_is_asked_for(ask):
    # Importing the package loads none of its modules. The first public name asked for loads
    # the five layers, and neither the file formats nor the command line.
    code = ("import sys, loadshare\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('loadshare.'))\n"
            f"before = loaded()\n{ask}\nprint(before, loaded())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT)
    assert done.stdout == f"[] {[f'loadshare.{name}' for name in LAYERS]}\n"


@pytest.mark.parametrize("argv, exit_code, layers, stdlib", [
    (["--help"], 0, [], []),
    (["fit", "--model", "kim-kvam"], 2, [], []),
    (["fit", "--model", "kim-kvam", "--data", "DATA"], 0, ["estimate", "io", "writer"], ["csv"]),
    (["verify", "--model", "kim-kvam", "--data", "DATA"], 0,
     ["estimate", "io", "oracle", "writer"], ["csv"]),
    (["verify", "--model", "kim-kvam", "--random", "--instances", "2"], 0,
     ["estimate", "oracle", "simulate"], []),
    ([*SIMULATE, "--n", "3"], 0, ["simulate", "writer"], []),
    (MC_STUDY, 0, ["simulate"], ["json"]),
    ([*MC_STUDY, "--format", "text"], 0, ["simulate"], []),
], ids=["help", "usage-error", "fit", "verify-data", "verify-random", "simulate", "mc-study",
        "mc-study-text"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, exit_code, layers, stdlib):
    # A checkout without bytecode compiles every module a command imports at every start, so
    # each command imports only the layers it runs, and csv and json only where it reads a
    # dataset or writes JSON. --help still loads numpy, through the model's kinds, which are
    # --model's choices.
    data = tmp_path / "d.csv"
    data.write_text("t1,t2\n1,2\n3,5\n")
    argv = [str(data) if a == "DATA" else a for a in argv]
    code = ("import contextlib, io, sys; from loadshare import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('loadshare.')), "
            "'numpy' in sys.modules, sorted({'csv', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT)
    loaded = sorted(f"loadshare.{name}" for name in ["cli", "errors", "model", *layers])
    assert done.stdout == f"{exit_code} {loaded} True {stdlib}\n"


def test_writer_loads_no_reader():
    # simulate compiles the writer alone: it imports nothing of io, csv or json.
    code = ("import sys, loadshare.writer\n"
            "print(sorted({'loadshare.io', 'csv', 'json'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT)
    assert done.stdout == "[]\n"


class TestSimulate:
    def test_csv_shape_contract(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "3",
            "--theta", "1", "--lambda", "1,1", "--n", "5", "--seed", "7",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t1,t2,t3"
        assert len(lines) == 6
        assert "n=5" in err and "k=3" in err and "seed=7" in err

    def test_invalid_switch_index_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "ssk", "--k", "3", "--s", "3",
            "--theta", "1", "--lambda", "1,1", "--n", "2",
        )
        assert code == 2
        assert "2 <= s <= k-1" in err

    def test_k_below_two_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "1",
            "--theta", "1", "--lambda", "", "--n", "2",
        )
        assert code == 2

    def test_byte_identical_runs(self, tmp_path, capsys):
        args = [
            "simulate", "--model", "ssk", "--k", "4", "--s", "2",
            "--theta", "0.5", "--lambda", "1,2,0.5", "--n", "20", "--seed", "3",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("where", ["dir", "missing"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        out = tmp_path if where == "dir" else tmp_path / "missing" / "a.csv"
        code, stdout, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "2",
            "--theta", "1", "--lambda", "1", "--n", "2", "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.startswith("error: cannot write output file:") and "Traceback" not in err

    def test_lambda_count_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "3",
            "--theta", "1", "--lambda", "1", "--n", "2",
        )
        assert code == 2
        assert "multipliers" in err

    def test_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0, 1.0], "model": "kim-kvam", "k": 3}')
        code, out, _ = run_cli(
            capsys, "simulate", "--params", str(pfile), "--n", "4", "--seed", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "t1,t2,t3"

    def test_params_file_conflicts_with_flags(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2}')
        code, _, err = run_cli(
            capsys, "simulate", "--params", str(pfile), "--model", "kim-kvam", "--n", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("command,extra", [("simulate", []), ("mc-study", ["--reps", "3"])])
    def test_params_file_bom_is_ignored(self, tmp_path, capsys, command, extra):
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text('{"theta": 1.0, "lambda": [1.0, 2.0], "model": "ssk", "k": 3, "s": 2}')
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        args = [command, "--n", "4", "--seed", "5", *extra, "--params"]
        code_plain, out_plain, _ = run_cli(capsys, *args, str(plain))
        code_bom, out_bom, err = run_cli(capsys, *args, str(bom))
        assert code_plain == code_bom == 0, err
        assert out_bom == out_plain

    @pytest.mark.parametrize("command,extra", [("simulate", []), ("mc-study", ["--reps", "3"])])
    def test_params_file_not_utf8_exits_2(self, tmp_path, capsys, command, extra):
        pfile = tmp_path / "params.json"
        pfile.write_bytes(b'{"theta": 1, "lambda": [1], "model": "kim-kvam", "k": 2, "x": "\xff"}')
        code, out, err = run_cli(capsys, command, "--params", str(pfile), "--n", "3", *extra)
        assert code == 2 and out == ""
        assert "error: parameter file is not UTF-8 text (invalid start byte b'\\xff')" in err
        assert "Traceback" not in err

    def test_params_file_unknown_key_exits_2(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2, "x": 0}')
        code, _, err = run_cli(capsys, "simulate", "--params", str(pfile), "--n", "2")
        assert code == 2 and "unknown keys" in err

    # At ssk k = 4 these are the edges of the draw blocks of _BLOCK_UNIFORMS // 4 rows, two
    # writer slices each; kim-kvam k = 3 has its own (test_streamed_bytes_at_every_edge_of_k).
    @pytest.mark.parametrize("n", [1, _BLOCK_UNIFORMS // 4 - 1, _BLOCK_UNIFORMS // 4,
                                   _BLOCK_UNIFORMS // 4 + 1, _BLOCK_UNIFORMS // 2 + 3])
    @pytest.mark.parametrize("spec, flags", [
        (ModelSpec.kim_kvam(3), ["--model", "kim-kvam", "--k", "3"]),
        (ModelSpec.ssk(4, 2), ["--model", "ssk", "--k", "4", "--s", "2"]),
    ], ids=["kim-kvam", "ssk"])
    def test_streamed_bytes_equal_the_matrix_written(self, tmp_path, capsys, spec, flags, n):
        # simulate writes each block as it is drawn; the bytes are those of the whole matrix.
        params = Params(0.8, (1.5, 0.6, 2.5)[: spec.k - 1])
        expected = io.StringIO()
        write_dataset(sample_dataset(spec, params, n, RngState(11)), expected)
        argv = ["simulate", *flags, "--theta", "0.8", "--lambda", ",".join(map(str, params.lambdas)),
                "--n", str(n), "--seed", "11"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == expected.getvalue()
        path = tmp_path / "out.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("k", [3, 20, 50])
    def test_streamed_bytes_at_every_edge_of_k(self, capsys, k):
        # simulate draws blocks of _BLOCK_UNIFORMS // k rows and writes slices of
        # _WRITE_BLOCK_VALUES // k; at each edge of either the bytes are those of the matrix.
        params = Params(0.8, (1.5,) * (k - 1))
        draw, write = _BLOCK_UNIFORMS // k, _WRITE_BLOCK_VALUES // k
        expected = io.StringIO()
        write_dataset(sample_dataset(ModelSpec.kim_kvam(k), params, 2 * draw + 3, RngState(11)), expected)
        lines = expected.getvalue().splitlines(keepends=True)
        argv = ["simulate", "--model", "kim-kvam", "--k", str(k), "--theta", "0.8",
                "--lambda", ",".join(map(str, params.lambdas)), "--seed", "11", "--n"]
        for n in (write - 1, write, write + 1, draw - 1, draw, draw + 1, 2 * draw + 3):
            code, out, _ = run_cli(capsys, *argv, str(n))
            assert code == 0 and out == "".join(lines[: n + 1]), n

    @pytest.mark.parametrize("seed", range(20))
    def test_a_spacing_that_could_overflow_is_rejected_before_output(self, tmp_path, capsys, seed):
        # The stage-1 rate 2e-307 is valid, and most draws give a finite spacing; the largest
        # exposure, -log(2**-53), overflows. So every seed is refused, and nothing is written.
        path = tmp_path / "out.csv"
        argv = ["simulate", "--model", "kim-kvam", "--k", "2", "--theta", "1e-307", "--lambda", "1",
                "--n", "3", "--seed", str(seed)]
        expected = ("error: theta=1e-307 and lambda=1 give stage 1 a sampled spacing outside "
                    "the float64 range\n")
        assert run_cli(capsys, *argv) == (2, "", expected)
        assert run_cli(capsys, *argv, "--out", str(path)) == (2, "", expected)
        assert not path.exists()


class TestSimulateMemory:
    """simulate draws and writes one block at a time, so its peak memory does not grow with
    the rows."""

    def test_peak_does_not_grow_with_rows(self, tmp_path, capsys):
        def simulate(n):
            return main(["simulate", "--model", "ssk", "--k", "5", "--s", "2", "--theta", "1",
                         "--lambda", "1.5,0.8,2,1.2", "--n", str(n), "--seed", "3",
                         "--out", str(tmp_path / f"{n}.csv")])

        simulate(10)  # warm up
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                code = simulate(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().out == ""
        # The 200k x 5 matrix alone would differ by 7.2 MB.
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_peak_does_not_grow_with_k(self, tmp_path, capsys):
        # The draw blocks and the writer's slices are sized in values, so 50 stages peak within
        # 1 MB of 5 with the same n * k; writer blocks of 4,096 rows put them 28 MB apart.
        def simulate(k, n):
            return main(["simulate", "--model", "kim-kvam", "--k", str(k), "--theta", "1",
                         "--lambda", ",".join(["1.5"] * (k - 1)), "--n", str(n), "--seed", "3",
                         "--out", str(tmp_path / f"{k}.csv")])

        simulate(2, 10)  # warm up
        peaks = []
        for k, n in ((5, 40_000), (50, 4_000)):
            tracemalloc.start()
            try:
                code = simulate(k, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().out == ""
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


class TestFit:
    def test_unit_spacing_pair(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(data), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_hat"] == 0.5
        assert payload["lambda_hat"] == [2.0]
        assert payload["n"] == 1 and payload["k"] == 2
        assert payload["model"] == "kim-kvam" and "s" not in payload

    def test_two_system_example(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,2,3\n3,2,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(data), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["theta_hat"] == pytest.approx(1 / 6, rel=1e-15)
        assert payload["lambda_hat"] == pytest.approx([1.5, 3.0], rel=1e-15)

    def test_ssk_fit_reports_s(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,1,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "ssk", "--s", "2", "--data", str(data), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["s"] == 2
        assert payload["theta_hat"] == pytest.approx(1 / 3, rel=1e-15)
        assert payload["lambda_hat"] == pytest.approx([1.5, 6.0], rel=1e-15)

    @pytest.mark.parametrize("model", [["kim-kvam"], ["ssk", "--s", "2"]], ids=["kim-kvam", "ssk"])
    def test_json_and_text_hold_the_same_fields_bit_for_bit(self, tmp_path, capsys, model):
        data = tmp_path / "d.csv"
        with data.open("w") as handle:
            write_dataset(np.random.default_rng(3).exponential(size=(7, 4)), handle)
        reports = {}
        for fmt in ("json", "text"):
            code, out, _ = run_cli(capsys, "fit", "--model", *model, "--data", str(data), "--format", fmt)
            assert code == 0
            reports[fmt] = out
        payload = json.loads(reports["json"])
        lambdas = payload.pop("lambda_hat")
        payload.update((f"lambda_hat_{j}", lam) for j, lam in enumerate(lambdas, start=1))
        text = dict(line.split(": ") for line in reports["text"].splitlines())
        assert text.keys() == payload.keys()
        for name, value in payload.items():
            if isinstance(value, float):
                assert float(text[name]).hex() == value.hex(), name
            else:
                assert text[name] == str(value), name

    def test_ssk_without_s_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,1,1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "ssk", "--data", str(data))
        assert code == 2 and "--s" in err

    @pytest.mark.parametrize("s", [["--s", "9"], []], ids=["s-out-of-range", "no-s"])
    def test_bad_cell_in_a_later_chunk_comes_before_the_model_fault(self, tmp_path, capsys,
                                                                   monkeypatch, s):
        monkeypatch.setattr(loadshare.io, "_CHUNK_CHARS", 4)
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n" + "1,2,3\n" * 4 + "1,x,3\n")
        code, out, err = run_cli(capsys, "fit", "--model", "ssk", *s, "--data", str(data))
        assert (code, out, err) == (1, "", "error: row 6, column 2: 'x' is not a number\n")

    def test_zero_entry_exits_1_citing_cell(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n0,1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1
        assert "row 3" in err and "column 1" in err

    def test_duplicate_lifetimes_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,x3\n2,2,3\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and "twice" in err

    def test_ragged_rows_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and "row 3" in err

    @pytest.mark.parametrize(
        "model,text,cited",
        [
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e200\n1,1,2e200\n", "column 3"),
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e-200\n1,1,2e-200\n", "column 3"),
            (["kim-kvam"], "t1,t2\n1e308,1\n1e308,1\n", "column 1"),
            # squares are subnormal but positive; lambda_2 = S_1 / S_3 overflows
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e-160\n1,1,1e-160\n", "lambda_2"),
        ],
        ids=["ssk-overflow", "ssk-underflow", "kim-kvam-overflow", "ratio-overflow"],
    )
    def test_out_of_range_totals_exit_1(self, tmp_path, capsys, model, text, cited):
        data = tmp_path / "d.csv"
        data.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--model", *model, "--data", str(data))
        assert code == 1 and out == ""
        assert cited in err and "Warning" not in err

    def test_utf8_bom_is_ignored(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"t1,t2,t3\r\n1,2,3\r\n3,2,1\r\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        args = ["fit", "--model", "kim-kvam", "--format", "json", "--data"]
        code_plain, out_plain, _ = run_cli(capsys, *args, str(plain))
        code_bom, out_bom, _ = run_cli(capsys, *args, str(bom))
        assert code_plain == code_bom == 0 and out_bom == out_plain

    @pytest.mark.parametrize("command", ["fit", "verify"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfet1,t2\n1,2\n", b"t1,t2\n1,2\n\xff,3\n"],
        ids=["header", "row"],
    )
    def test_non_utf8_exits_1(self, tmp_path, capsys, command, content):
        data = tmp_path / "d.csv"
        data.write_bytes(content)
        code, out, err = run_cli(capsys, command, "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and out == ""
        assert "error: dataset is not UTF-8 text (invalid start byte b'\\xff')" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "verify"])
    @pytest.mark.parametrize(
        "content,extra",
        [("t1\n1\n2\n", []), ("x1\n1\n", []), ("1\n2\n", ["--lifetimes"])],
        ids=["spacings", "lifetimes", "headerless"],
    )
    def test_one_column_exits_1(self, tmp_path, capsys, command, content, extra):
        # The fault is the file's, not the flags': no model has k = 1.
        data = tmp_path / "d.csv"
        data.write_text(content)
        code, out, err = run_cli(
            capsys, command, "--model", "kim-kvam", "--data", str(data), *extra
        )
        assert code == 1 and out == ""
        assert "error: dataset has 1 column" in err

    @pytest.mark.parametrize("command", ["fit", "verify"])
    @pytest.mark.parametrize("content, line", [
        ('t1,t2\n1,2\n\n3,"{}"\n', 4), ('"t1{}",t2\n1,2\n', 1), ('t1,t2\n1,2\n{}2,3\n', 3),
    ], ids=["quoted-cell", "header", "plain-cell"])
    def test_cell_past_csv_field_limit_exits_1(self, tmp_path, capsys, command, content, line):
        data = tmp_path / "d.csv"
        data.write_text(content.format("1" * 200_000))
        code, out, err = run_cli(capsys, command, "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and out == ""
        assert err == f"error: line {line}: field larger than field limit (131072)\n"

    def test_long_mantissa_fits_as_quoted(self, tmp_path, capsys):
        # The parse kernel reads the first cell; quoted, the per-cell parser does. They must agree.
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("t1,t2\n100001234567890123.456789,1\n2,3\n")
        quoted.write_text('t1,t2\n"100001234567890123.456789",1\n2,3\n')
        fits = [run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(path)) for path in (plain, quoted)]
        assert fits[0] == fits[1] and fits[0][0] == 0
        assert "theta_hat: 9.9998765447351265e-18\n" in fits[0][1]

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", "/no/such.csv")
        assert code == 1

    def test_lifetimes_and_spacings_modes_agree(self, tmp_path, capsys):
        lifetimes = tmp_path / "x.csv"
        lifetimes.write_text("x1,x2,x3\n5,1,2\n1,2,4\n")
        spacings = tmp_path / "t.csv"
        spacings.write_text("t1,t2,t3\n1,1,3\n1,1,2\n")
        _, out_x, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(lifetimes), "--format", "json"
        )
        _, out_t, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(spacings), "--format", "json"
        )
        assert out_x == out_t

    def test_headerless_requires_override(self, tmp_path, capsys):
        data = tmp_path / "legacy.csv"
        data.write_text("3,1,2\n")
        code, _, _ = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1
        code, out, _ = run_cli(
            capsys,
            "fit", "--model", "kim-kvam", "--data", str(data), "--lifetimes",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_text_format(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "theta_hat: 0.5" in out
        assert "lambda_hat_1: 2" in out
        assert "loglik:" in out


class TestFitMemory:
    """fit folds each block of the file into running sums as it is read, so its peak memory
    does not grow with the rows, whether the parse kernel or the per-cell parser reads them."""

    @pytest.mark.parametrize("rows, quoted", [((20_000, 100_000), False), ((4_000, 20_000), True)],
                             ids=["kernel", "per-cell"])
    def test_peak_does_not_grow_with_rows(self, tmp_path, capsys, rows, quoted):
        peaks = []
        for n in rows:
            text = io.StringIO()
            write_dataset(np.random.default_rng(n).exponential(size=(n, 5)), text)
            head, *lines = text.getvalue().splitlines()
            if quoted:  # the kernel turns down every chunk; the per-cell parser reads them all
                lines = ['"{}",{}'.format(*line.split(",", 1)) for line in lines]
            path = tmp_path / f"{n}.csv"
            path.write_text("\n".join([head.replace("t", "x"), *lines, ""]))
            tracemalloc.start()
            try:
                code = main(["fit", "--model", "ssk", "--s", "2", "--data", str(path)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().err == ""
        # The n x 5 matrix alone would differ by 3.2 MB (kernel) or 0.64 MB (per-cell).
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


class TestVerify:
    def test_single_dataset(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "max param discrepancy" in out
        assert "verified 1/1" in out

    @pytest.mark.parametrize(
        "scale,closed",
        [("e-300", "2.2222222222222223e+299 1.5 2"), ("e300", "2.2222222222222219e-301 1.5 2")],
        ids=["tiny", "huge"],
    )
    def test_extreme_magnitudes_leak_no_warning(self, tmp_path, capsys, scale, closed):
        data = tmp_path / "d.csv"
        data.write_text(f"t1,t2,t3\n1{scale},2{scale},3{scale}\n2{scale},1{scale},1.5{scale}\n")
        code, out, err = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "Warning" not in err and "Traceback" not in err
        assert f"  closed:  {closed}\n" in out

    @pytest.mark.parametrize(
        "rows",
        [
            "2.78137e-309,5.56274e-309",  # theta_hat = 1.797675e308, near float max
            "5e307,1e308",  # S_1 + S_2 overflows though theta * S_j does not
        ],
        ids=["theta-near-max", "exposure-sum-overflows"],
    )
    def test_extreme_kim_kvam_files_certify(self, tmp_path, capsys, rows):
        data = tmp_path / "d.csv"
        data.write_text(f"t1,t2\n{rows}\n")
        code, out, err = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 0, out
        assert "verified 1/1" in out and err == ""

    def test_ssk_file_scaled_by_1e_120_certifies(self, tmp_path, capsys):
        # Lambda_2 and lambda_3 come out near 1e120: far from the start lambda = 1.
        code, out, _ = run_cli(
            capsys,
            "simulate", "--model", "ssk", "--k", "4", "--s", "2",
            "--theta", "1", "--lambda", "1,1,1", "--n", "20", "--seed", "1",
        )
        assert code == 0
        rows = np.loadtxt(out.splitlines()[1:], delimiter=",") * 1e-120
        data = tmp_path / "d.csv"
        np.savetxt(data, rows, fmt="%.17g", delimiter=",", header="t1,t2,t3,t4", comments="")
        code, out, err = run_cli(capsys, "verify", "--model", "ssk", "--s", "2", "--data", str(data))
        assert code == 0, out
        assert "verified 1/1" in out and err == ""

    @pytest.mark.parametrize("model", ["kim-kvam", "ssk"])
    def test_random_instances(self, capsys, model):
        code, out, _ = run_cli(
            capsys,
            "verify", "--model", model, "--random", "--instances", "5", "--seed", "1",
        )
        assert code == 0
        assert "verified 5/5" in out

    def test_random_instance_is_checked_before_the_next_is_drawn(self, capsys, monkeypatch):
        oracle = loadshare.oracle
        events, draw, check = [], oracle._random_instance, oracle.crosscheck
        monkeypatch.setattr(oracle, "_random_instance",
                            lambda *a: events.append(f"draw {a[-1] + 1}") or draw(*a))
        monkeypatch.setattr(oracle, "crosscheck", lambda *a: events.append("check") or check(*a))
        code, out, _ = run_cli(capsys, "verify", "--model", "kim-kvam", "--random",
                               "--instances", "3", "--seed", "1")
        assert code == 0 and "verified 3/3" in out
        assert events == ["draw 1", "check", "draw 2", "check", "draw 3", "check"]

    def test_s_with_random_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--model", "ssk", "--s", "2", "--random", "--instances", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_random_request_exits_2(self, capsys, count):
        code, out, err = run_cli(
            capsys, "verify", "--model", "kim-kvam", "--random", "--instances", count
        )
        assert code == 2 and "--instances" in err and "verified" not in out

    def test_data_and_random_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--model", "kim-kvam", "--data", "x.csv", "--random"
        )
        assert code == 2

    def test_tolerance_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        class FakeResult:
            ok = False
            max_param_rel_discrepancy = 1.0
            loglik_gap = 1.0

            class closed:
                class params_hat:
                    @staticmethod
                    def as_array():
                        return np.array([1.0, 1.0])

                loglik_at_mle = 0.0

            class numeric:
                class params_hat:
                    @staticmethod
                    def as_array():
                        return np.array([2.0, 2.0])

                loglik_at_mle = -1.0

        monkeypatch.setattr(loadshare.oracle, "crosscheck", lambda spec, data: FakeResult())
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 3
        assert "FAIL" in out

    def test_no_convergence_is_reported_and_exits_3(self, capsys, monkeypatch):
        calls, check = [], loadshare.oracle.crosscheck

        def first_fails(spec, data):
            calls.append(spec)
            if len(calls) == 1:
                raise NoConvergence("stalled after 3 sweeps")
            return check(spec, data)

        monkeypatch.setattr(loadshare.oracle, "crosscheck", first_fails)
        code, out, err = run_cli(capsys, "verify", "--model", "ssk", "--random",
                                 "--instances", "2", "--seed", "4")
        lines = out.splitlines()
        spec = calls[0]
        assert code == 3 and err == "" and len(calls) == 2
        assert lines[0].startswith(f"instance 1: model=ssk k={spec.k} s={spec.s} n=")
        assert lines[1] == "  FAIL numeric maximizer did not converge: stalled after 3 sweeps"
        assert lines[2].startswith("instance 2: ") and lines[-2].endswith("[ok]")
        assert lines[-1].startswith("verified 1/2 instance(s) within tolerances")


class TestMcStudy:
    def test_n_below_two_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "1", "--reps", "10",
        )
        assert code == 2
        assert "n >= 2" in err

    def test_text_output_includes_reference_mean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "10", "--reps", "200", "--seed", "42",
        )
        assert code == 0
        assert "ref_mean" in out and "theta" in out and "lambda_1" in out

    def test_json_output_and_determinism(self, capsys):
        args = [
            "mc-study", "--model", "ssk", "--k", "3", "--s", "2", "--theta", "1",
            "--lambda", "1,1", "--n", "10", "--reps", "300", "--seed", "9",
            "--format", "json",
        ]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["model"] == "ssk" and payload["s"] == 2
        assert len(payload["mean"]) == 3
        ref = 10 / 9
        assert payload["reference_mean"] == pytest.approx([ref, ref, ref], rel=1e-12)

    @pytest.mark.parametrize(
        "model", [["kim-kvam", "--lambda", "2,0.5"], ["ssk", "--s", "2", "--lambda", "1.5,3"]],
        ids=["kim-kvam", "ssk"],
    )
    def test_text_table_is_the_json_at_the_printed_precision(self, capsys, model):
        args = ["mc-study", "--model", *model, "--k", "3", "--theta", "0.7", "--n", "6", "--reps", "40"]
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        head, columns, *rows, note = out.splitlines()
        assert dict(field.split(": ") for field in head.split("  ")) == {
            name: str(payload[name]) for name in ("model", "k", "s", "n", "reps", "seed") if name in payload
        }
        assert columns.split() == ["parameter", "truth", "mean", "bias", "mse", "ref_mean"]
        assert note.startswith("ref_mean is")
        precision = {"truth": ".6g", "mean": ".8g", "bias": ".6g", "mse": ".6g", "reference_mean": ".8g"}
        assert [row.split()[0] for row in rows] == ["theta", "lambda_1", "lambda_2"]
        for i, row in enumerate(rows):
            cells = row.split()[1:]
            assert cells == [format(payload[name][i], fmt) for name, fmt in precision.items()]

    def test_single_replication_json_is_valid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "3", "--reps", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reps"] == 1 and payload["se_mean"] == [None, None]

    def test_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2}')
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--params", str(pfile), "--n", "5", "--reps", "50",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["k"] == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "kim-kvam", "--n", "2")
        assert code == 2 and "missing required flags" in err

    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_model_required_for_data_commands(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--data", "x.csv")
        assert code == 2 and "--model" in err

    @pytest.mark.parametrize("command,extra", [("simulate", []), ("mc-study", ["--reps", "5"])])
    def test_degenerate_stage_rates_exit_2(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys,
            command, "--model", "kim-kvam", "--k", "2",
            "--theta", "1e-300", "--lambda", "1e-300", "--n", "3", *extra,
        )
        assert code == 2 and out == ""
        assert "theta=1e-300" in err and "lambda=1e-300" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "command,theta,lam,reps",
        [
            ("simulate", "1e-310", "1", None),  # valid rates, but the spacings overflow
            ("simulate", "1e308", "1", None),  # the stage-1 rate overflows
            ("mc-study", "1e-310", "1", "5"),
            ("mc-study", "5e307", "1", "200"),  # some theta estimate overflows
            ("mc-study", "1e300", "1e8", "2"),  # the squared errors overflow
        ],
        ids=["simulate-low", "simulate-high", "mc-study-low", "mc-study-high", "mc-study-summary"],
    )
    def test_extreme_parameters_exit_2(self, capsys, command, theta, lam, reps):
        extra = [] if reps is None else ["--reps", reps]
        code, out, err = run_cli(
            capsys,
            command, "--model", "kim-kvam", "--k", "2",
            "--theta", theta, "--lambda", lam, "--n", "3", *extra,
        )
        assert code == 2 and out == ""
        assert f"theta={float(theta):g}" in err and f"lambda={float(lam):g}" in err
        assert "Warning" not in err

    def test_bad_model_choice(self, capsys):
        assert main(["fit", "--model", "weibull", "--data", "x.csv"]) == 2
        capsys.readouterr()

    def test_stdout_carries_only_artifact(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "2",
            "--theta", "1", "--lambda", "1", "--n", "3", "--seed", "0",
        )
        assert code == 0
        for line in out.splitlines():
            assert line.startswith("t1") or line[0].isdigit()
        assert "seed=0" in err
