"""Command-line tests: the trained bytes, their independence of the BLAS
thread count, one table of error cases, and the cases that need a patch or
a warnings capture.

Every test runs on the tiny corpus and config below. As a script,
`python tests/test_cli.py <dir>` runs the determinism table in `<dir>`;
`test_outputs_do_not_depend_on_the_blas_thread_count` starts it twice.
"""

import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from xmodal import cli, harness
from xmodal.data import SynthConfig, generate_synthetic, save_dataset
from xmodal.harness import ABLATION_ARMS, load_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"

# 6 identities, 3 rows per identity and modality, 36 rows of dimension 6
SYNTH = {"num_identities": 6, "per_identity_per_modality": 3, "input_dim": 6, "seed": 0}
TRAIN = {"encoder": {"input_dim": 6, "num_classes": 0, "stage_dims": [8, 8], "tap_stage": 1, "d": 5},
         "P": 3, "K": 2, "epochs": 2, "freeze_stage_epochs": 1, "lr_decay_epoch": 1, "seed": 0}


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc) + "\n")


def with_encoder(**keys):
    return {**TRAIN, "encoder": {**TRAIN["encoder"], **keys}}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The corpus, its configs and a checkpoint trained on it, made once."""
    folder = tmp_path_factory.mktemp("base")
    write_json(folder / "synth.json", SYNTH)
    write_json(folder / "train.json", TRAIN)
    data, ckpt = folder / "data.txt", folder / "model.ckpt"
    assert cli.main(["synth", "--config", str(folder / "synth.json"), "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--config", str(folder / "train.json"),
                     "--out", str(ckpt)]) == 0
    return folder


@pytest.fixture
def workdir(base, tmp_path, monkeypatch):
    """A fresh current directory holding a copy of `base`'s files."""
    for path in base.iterdir():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Trained bytes
# ---------------------------------------------------------------------------

# sha256 of `xmodal train`'s checkpoint and report for TRAIN, with one encoder
# key set by arm: the skip-branch arm, the backbone arm, the skip-branch arm
# without the backbone loss, and the skip-branch arm fused by sum. A change
# that moves trained bits updates them on purpose and says so in CHANGES.md.
TRAINED_DIGESTS = {
    True: ({"mfi_enabled": True},
           "8c1fb117fc87169a362a23532bd8cbb10c86a33b96f72cd2e3aea254ded28e6c",
           "8b139aef30d7f2fe5f6440efb51568751f3ba8b208929270c42acbdfe13e75dc"),
    False: ({"mfi_enabled": False},
            "0204ba114fa4e74253cee1f0ceb1547a8570a15cf6eec95cf0185a931291ec49",
            "38d5b5d9ea893458b230fc49c89ab7ee88bbf83425ed38a718b91bf7e92f8e00"),
    "no_backbone_loss": ({"backbone_loss_enabled": False},
                         "57010e00c0ebb749e5498006715a5099931c86883a26e589ed6aac64f6032bd7",
                         "20188b4c144edfe363184403df528f7496b843ab4986180393e4f61ad3144d24"),
    "sum": ({"fusion": "sum"},
            "ea78d2c6207995fd58ba7450dc44a2be8702d82ac4c469604542cdc5c0fdb1cd",
            "97b8edc1ad00d35aeb11d1d70ec070fbc3ce525a1d9be2edad4b77a83aee594f"),
}


@pytest.mark.parametrize("arm", TRAINED_DIGESTS)
def test_trained_bytes_are_pinned(arm, workdir):
    keys, *want = TRAINED_DIGESTS[arm]
    write_json("arm.json", with_encoder(**keys))
    assert cli.main(["train", "--data", "data.txt", "--config", "arm.json", "--out", "arm.ckpt",
                     "--report", "arm-report.json"]) == 0
    assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in ("arm.ckpt", "arm-report.json")] == want


# ---------------------------------------------------------------------------
# Thread-count determinism
# ---------------------------------------------------------------------------

# the configs the determinism table reads; dup.json's corpus has no noise, so
# that every gallery row has duplicates, which must tie by index
CONFIGS = {"synth.json": SYNTH, "dup.json": {**SYNTH, "cluster_std": 0, "noise_std": 0},
           "train.json": TRAIN, "no_mfi.json": with_encoder(mfi_enabled=False),
           "sum.json": with_encoder(fusion="sum"), "k4.json": {**TRAIN, "K": 4}}

# name -> argv, run in this order in one directory; a case's stdout goes to
# <name>.out. The stacked sweeps, the (2, n, D) train step and the ranking
# GEMMs run many matmuls whose results must not depend on the thread count.
# K=4 exceeds the 3 rows of every pool, which then draws with replacement.
DETERMINISM = {
    "gradcheck": "gradcheck --trials 3 --seed 27",
    "synth": "synth --config synth.json --out data.txt",
    **{f"train-{arm}": f"train --data data.txt --config {arm}.json --out {arm}.ckpt "
                       f"--report {arm}-report.json" for arm in ("train", "no_mfi", "sum", "k4")},
    "ablation": "ablation --data-config synth.json --config train.json --seeds 0,1 --report ablation.json",
    **{f"eval-{q}-{mode}": f"eval --checkpoint train.ckpt --data data.txt --query-modality {q} {flags}"
       for q in "VT" for mode, flags in (("trials1", "--trials 1"), ("trials3", "--trials 3"),
                                         ("single-shot", "--single-shot --trials 10 --seed 3"))},
    "synth-dup": "synth --config dup.json --out dup.txt",
    **{f"eval-dup-{q}": f"eval --checkpoint train.ckpt --data dup.txt --query-modality {q}" for q in "VT"},
}

# the variables bench/run.py pins: each names the thread count of one BLAS build
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def determinism_files():
    """The files compared: each case's --out and --report files, or its
    stdout if it writes none (a train run's stdout holds its wall-clock time)."""
    files = []
    for name, argv in DETERMINISM.items():
        words = argv.split()
        outputs = [path for flag, path in zip(words, words[1:]) if flag in ("--out", "--report")]
        files += outputs or [f"{name}.out"]
    return files


def run_determinism_table(folder):
    """Run every case of DETERMINISM in `folder` through `cli.main`, in this process."""
    import xmodal
    assert Path(xmodal.__file__).resolve().parent.parent == SRC, f"xmodal imported from {xmodal.__file__}"
    os.chdir(folder)
    for name, doc in CONFIGS.items():
        write_json(name, doc)
    for name, argv in DETERMINISM.items():
        with open(f"{name}.out", "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            assert cli.main(argv.split()) == 0, name


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # numpy fixes its BLAS thread count when it loads: one child process per count
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), **dict.fromkeys(BLAS_THREAD_VARIABLES, threads)}
        child = subprocess.run([sys.executable, __file__, str(tmp_path / threads)], env=env, timeout=300,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert child.returncode == 0, f"{threads} threads:\n{child.stdout}"
    files = determinism_files()
    missing = [f"{threads}/{name}" for threads in ("1", "2") for name in files
               if not (tmp_path / threads / name).is_file()]
    assert not missing, f"missing: {missing}"
    differ = [name for name in files
              if (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()]
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"


# ---------------------------------------------------------------------------
# Error cases
# ---------------------------------------------------------------------------

def edit_json(name, change):
    """Rewrite the JSON file `name` as change(its document)."""
    return lambda: write_json(name, change(json.loads(Path(name).read_text())))


def edit_train(change):
    return edit_json("train.json", change)


def edit_synth(change):
    return edit_json("synth.json", change)


def edit_encoder(**keys):
    return edit_train(lambda d: {**d, "encoder": {**d["encoder"], **keys}})


def edit_checkpoint(change):
    """Rewrite model.ckpt after change(its document), an edit in place."""
    def edit():
        header, body = Path("model.ckpt").read_text().split("\n", 1)
        doc = json.loads(body)
        change(doc)
        Path("model.ckpt").write_text(header + "\n" + json.dumps(doc) + "\n")
    return edit


def edit_rows(change):
    """Rewrite each row of data.txt, split at its commas, as change(fields); None drops it."""
    def edit():
        header, *rows = Path("data.txt").read_text().splitlines()
        rows = [",".join(fields) for fields in map(change, (row.split(",") for row in rows)) if fields]
        Path("data.txt").write_text("\n".join([header, *rows]) + "\n")
    return edit


def write_file(name, content):
    """Write `content`, bytes or text, to the file `name`."""
    data = content if isinstance(content, bytes) else content.encode()
    return lambda: Path(name).write_bytes(data)


def synth_data(**keys):
    """Replace data.txt with the corpus of SYNTH with `keys` changed."""
    return lambda: save_dataset(generate_synthetic(SynthConfig(**{**SYNTH, **keys})), "data.txt")


TRAIN_ARGV = "train --data data.txt --config train.json --out m.ckpt"
SYNTH_ARGV = "synth --config synth.json --out d.txt"
EVAL_ARGV = "eval --checkpoint model.ckpt --data data.txt"
ABLATION_ARGV = "ablation --data-config synth.json --config train.json --seeds 0"
ENOENT = "No such file or directory"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position"
NOT_AN_ARRAY = "needs a 'shape' list of integers and a flat 'values' list of numbers"
TOO_BIG = "array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size."


def cannot_allocate(owner, size, shape):
    return (f"config error: {owner}: its sizes cannot be allocated (Unable to allocate {size} PiB "
            f"for an array with shape {shape} and data type float64)\n")


# id -> (argv, edit of the working copy or None, exit code, exact stderr).
# Every case runs in a fresh copy of `base`'s files, must print nothing to
# stdout and must leave the directory as it found it, each file's bytes too.
ERRORS = {
    "gradcheck-trials-0": ("gradcheck --trials 0", None, 1,
                           "config error: gradcheck: trials must be >= 1, got 0\n"),
    "gradcheck-trials-negative": ("gradcheck --trials -3", None, 1,
                                  "config error: gradcheck: trials must be >= 1, got -3\n"),
    "gradcheck-seed-negative": ("gradcheck --seed -1", None, 1,
                                "config error: gradcheck: seed must be >= 0, got -1\n"),
    "eval-seed-negative": (EVAL_ARGV + " --seed -2", None, 1,
                           "config error: EvalProtocol: seed must be >= 0, got -2\n"),
    "eval-trials-0": (EVAL_ARGV + " --trials 0", None, 1,
                      "config error: EvalProtocol: trials must be >= 1\n"),
    "train-seed-negative": (TRAIN_ARGV, edit_train(lambda d: {**d, "seed": -1}), 1,
                            "config error: TrainConfig: seed must be >= 0, got -1\n"),
    "synth-seed-negative": (SYNTH_ARGV, edit_synth(lambda d: {**d, "seed": -3}), 1,
                            "config error: SynthConfig: seed must be >= 0, got -3\n"),
    "ablation-seed-negative": ("ablation --data-config synth.json --config train.json --seeds -1", None, 1,
                               "config error: run_ablation: seed must be >= 0, got -1\n"),
    "ablation-seed-not-an-integer": (ABLATION_ARGV + ",x", None, 1,
                                     "config error: --seeds: 'x' is not an integer\n"),
    "usage-missing-arguments": ("train --data x", None, 1,
                                "usage error: the following arguments are required: --config, --out\n"),
    # the branch flags belong to the encoder section alone; the config is
    # read before the data, so the absent data file is never opened
    **{f"train-{flag}-in-loss-section": ("train --data absent.txt --config train.json --out m.ckpt",
                                         edit_train(lambda d, flag=flag: {**d, "loss": {flag: False}}), 1,
                                         f"config error: LossConfig: unknown keys ['{flag}']\n")
       for flag in ("mfi_enabled", "backbone_loss_enabled")},
    **{f"train-{name}": (TRAIN_ARGV, edit_train(change), 1, f"config error: {message}\n")
       for name, change, message in [
        ("loss-null", lambda d: {**d, "loss": None}, "TrainConfig: loss must be a JSON object, got null"),
        ("encoder-number", lambda d: {**d, "encoder": 5},
         "TrainConfig: encoder must be a JSON object, got 5"),
        ("P-string", lambda d: {**d, "P": "3"}, 'TrainConfig: P must be an integer, got "3"'),
        ("rho-string", lambda d: {**d, "loss": {"rho": "x"}},
         'LossConfig: rho must be a finite number, got "x"'),
        ("learning_rate-nan", lambda d: {**d, "learning_rate": math.nan},
         "TrainConfig: learning_rate must be a finite number, got NaN"),
        ("rho-nan", lambda d: {**d, "loss": {"rho": math.nan}},
         "LossConfig: rho must be a finite number, got NaN"),
        ("lambda2-inf", lambda d: {**d, "loss": {"lambda2": math.inf}},
         "LossConfig: lambda2 must be a finite number, got Infinity"),
        ("bn_epsilon-nan", lambda d: {**d, "encoder": {**d["encoder"], "bn_epsilon": math.nan}},
         "EncoderConfig: bn_epsilon must be a finite number, got NaN"),
        ("lr_decay_factor-huge-int", lambda d: {**d, "lr_decay_factor": 10 ** 400},
         "TrainConfig: lr_decay_factor must be a finite number, got 1" + "0" * 36 + "..."),
        ("stage_dims-number", lambda d: {**d, "encoder": {**d["encoder"], "stage_dims": 8}},
         "EncoderConfig: stage_dims must be a list of integers, got 8"),
        ("array", lambda d: [1, 2], "TrainConfig: expected a JSON object, got [1, 2]"),
        ("P-8", lambda d: {**d, "P": 8},
         "P 8 exceeds the 6 training identities with rows in both modalities"),
        # 36 rows; at K = 100000 the loss's pool masks alone would need 335 GiB
        ("K-13", lambda d: {**d, "K": 13}, "P 3 times K 13 exceeds the 36 rows of the dataset"),
        ("K-100000", lambda d: {**d, "K": 100000}, "P 3 times K 100000 exceeds the 36 rows of the dataset"),
    ]},
    "train-one-identity": (TRAIN_ARGV, synth_data(num_identities=1), 1,
                           "config error: P 3 exceeds the 1 training identities "
                           "with rows in both modalities\n"),
    **{f"synth-{name}": (SYNTH_ARGV, edit_synth(change), 1, f"config error: SynthConfig: {message}\n")
       for name, change, message in [
        ("num_identities-string", lambda d: {**d, "num_identities": "6"},
         'num_identities must be an integer, got "6"'),
        ("array", lambda d: [1, 2], "expected a JSON object, got [1, 2]"),
        ("cluster_std-inf", lambda d: {**d, "cluster_std": math.inf},
         "cluster_std must be a finite number, got Infinity"),
        ("noise_std-nan", lambda d: {**d, "noise_std": math.nan},
         "noise_std must be a finite number, got NaN"),
        ("train_fraction-string", lambda d: {**d, "train_fraction": "0.5"},
         'train_fraction must be a finite number, got "0.5"'),
        # the corpus's cross-modality transform is drawn from its seed: no key sets it
        ("pixels", lambda d: {**d, "pixels": 9}, "unknown keys ['pixels']"),
        ("modality_transform", lambda d: {**d, "modality_transform": [[1, 0], [0, 1]]},
         "unknown keys ['modality_transform']"),
        ("modality_offset", lambda d: {**d, "modality_offset": [1, 0, 0, 0, 0, 0]},
         "unknown keys ['modality_offset']"),
    ]},
    **{f"ablation-{name}": (ABLATION_ARGV, edit_synth(change), 1, f"config error: split: {message}\n")
       for name, change, message in [
        ("train_fraction-above-1", lambda d: {**d, "train_fraction": 1.5},
         "train_fraction must lie in (0, 1)"),
        ("one-identity", lambda d: {**d, "num_identities": 1}, "need at least 2 identities"),
    ]},
    # sizes past the 2^47-byte user address space: numpy refuses them at once
    # on any machine, so no test run ever fills memory
    "synth-num_identities-oversized": (SYNTH_ARGV, edit_synth(lambda d: {**d, "num_identities": 10 ** 20}), 1,
                                       "config error: SynthConfig: its sizes cannot be allocated "
                                       "(Maximum allowed dimension exceeded)\n"),
    "synth-input_dim-oversized": (SYNTH_ARGV, edit_synth(lambda d: {**d, "input_dim": 10 ** 15}), 1,
                                  cannot_allocate("SynthConfig", "256.", (36, 10 ** 15))),
    "train-stage_dims-oversized": (TRAIN_ARGV, edit_encoder(stage_dims=[10 ** 15], tap_stage=1), 1,
                                   cannot_allocate("EncoderConfig", "42.6", (6, 10 ** 15))),
    "train-stage_dims-oversized-with-report": (TRAIN_ARGV + " --report r.json",
                                               edit_encoder(stage_dims=[10 ** 15], tap_stage=1), 1,
                                               cannot_allocate("EncoderConfig", "42.6", (6, 10 ** 15))),
    "train-d-oversized": (TRAIN_ARGV, edit_encoder(d=10 ** 15), 1,
                          cannot_allocate("EncoderConfig", "56.8", (8, 10 ** 15))),
    "train-stage_dims-past-numpy-limit": (TRAIN_ARGV, edit_encoder(stage_dims=[10 ** 18], tap_stage=1), 1,
                                          f"config error: EncoderConfig: its sizes cannot be allocated "
                                          f"({TOO_BIG})\n"),
    "ablation-stage_dims-oversized": (ABLATION_ARGV + " --report r.json",
                                      edit_encoder(stage_dims=[10 ** 15], tap_stage=1), 1,
                                      cannot_allocate("EncoderConfig", "42.6", (6, 10 ** 15))),
    # JSON text is UTF-8: other bytes are invalid JSON, not a UnicodeDecodeError
    "synth-config-not-json": ("synth --config bad.json --out d.txt",
                              write_file("bad.json", b"{not json\n"), 1,
                              "config error: bad.json: invalid JSON (Expecting property name enclosed in "
                              "double quotes: line 1 column 2 (char 1))\n"),
    "synth-config-not-utf8": ("synth --config bad.json --out d.txt",
                              write_file("bad.json", b"\xff\xfe{}\n"), 1,
                              f"config error: bad.json: invalid JSON ({NOT_UTF8} 0: invalid start byte)\n"),
    "eval-checkpoint-not-utf8": ("eval --checkpoint bad.ckpt --data absent.txt",
                                 write_file("bad.ckpt", b"xmodal-checkpoint v1\n\xff\n"), 1,
                                 f"config error: bad.ckpt: invalid JSON "
                                 f"({NOT_UTF8} 21: invalid start byte)\n"),
    # the dataset format is UTF-8 text: other bytes are a data error, not a UnicodeDecodeError
    "train-data-absent": ("train --data absent.txt --config train.json --out m.ckpt", None, 2,
                          f"data error: cannot read absent.txt: [Errno 2] {ENOENT}: 'absent.txt'\n"),
    **{f"{command}-data-{name}": (argv, write_file("data.txt", content), 2,
                                  f"data error: cannot read data.txt: {NOT_UTF8} {at}: invalid start byte\n")
       for command, argv in (("train", TRAIN_ARGV), ("eval", EVAL_ARGV + " --report r.json"))
       for name, content, at in [("not-utf8", b"\xff\xfe", 0),
                                 ("row-not-utf8", b"# xmodal-dataset v1 dim=6\n\xff,0,V,1,2,3,4,5,6\n", 26)]},
    **{f"{command}-data-dim-{name}": (argv, write_file("data.txt", f"# xmodal-dataset v1 dim={dim}\n{rows}"),
                                      2, f"data error: data.txt:1: {message}\n")
       for command, argv in (("train", TRAIN_ARGV), ("eval", EVAL_ARGV))
       for name, dim, rows, message in [
        ("0", 0, "0,0,V\n1,0,T\n", "dimension must be >= 1, got 0"),
        ("negative", -1, "0,0,V\n1,0,T\n", "dimension must be >= 1, got -1"),
        # a dimension past numpy's limits, refused before any allocation
        ("1e20", 10 ** 20, "0,0,V,1\n",
         f"dimension {10 ** 20} is too large (Maximum allowed dimension exceeded)"),
        ("2^62", 2 ** 62, "0,0,V,1\n", f"dimension {2 ** 62} is too large ({TOO_BIG})"),
    ]},
    **{f"eval-{q}-without-thermal-rows": (
        f"{EVAL_ARGV} --query-modality {q}", edit_rows(lambda f: f if f[2] == "V" else None), 2,
        "data error: evaluation: the dataset has no samples with modality T\n") for q in "VT"},
    # thermal rows move to identities that no visible row has
    **{f"eval-{q}-without-a-cross-modality-match": (
        f"{EVAL_ARGV} --query-modality {q}",
        edit_rows(lambda f: f if f[2] == "V" else [f[0], str(int(f[1]) + 1000), *f[2:]]), 2,
        "data error: evaluation: every query lacked a gallery match\n") for q in "VT"},
    "eval-data-of-another-dimension": (EVAL_ARGV, synth_data(input_dim=5), 1,
                                       "config error: input_dim 6 does not match dataset dim 5\n"),
    # an unwritable output path is a usage error, not a traceback
    **{f"{command}-unwritable-output": (f"{argv} {path}", None, 1,
                                        f"usage error: cannot write {path}: {ENOENT}\n")
       for command, argv, path in [
        ("synth", "synth --config synth.json --out", "missing/dir/d.txt"),
        ("train", "train --data data.txt --config train.json --out", "missing/dir/m.ckpt"),
        ("eval", EVAL_ARGV + " --report", "missing/dir/r.json"),
    ]},
    # an output path that names an input or another output, by any spelling,
    # a symlink or a hard link, is refused before any work, and the file is left as it was
    **{name: (argv, edit, 1, f"usage error: {first} and {flag} name one file, {shown}: "
                             f"{flag} would write over {first}\n")
       for name, argv, edit, first, flag, shown in [
        ("eval-report-over-data", EVAL_ARGV + " --report data.txt", None, "--data", "--report", "data.txt"),
        ("eval-report-over-checkpoint", EVAL_ARGV + " --report ./model.ckpt", None, "--checkpoint",
         "--report", "model.ckpt"),
        ("eval-report-over-data-symlink", EVAL_ARGV + " --report link.txt",
         lambda: os.symlink("data.txt", "link.txt"), "--data", "--report", "data.txt"),
        ("eval-report-over-data-hardlink", EVAL_ARGV + " --report hard.txt",
         lambda: os.link("data.txt", "hard.txt"), "--data", "--report", "data.txt"),
        ("train-out-over-data-hardlink", "train --data data.txt --config train.json --out hard.txt",
         lambda: os.link("data.txt", "hard.txt"), "--data", "--out", "data.txt"),
        ("train-out-over-data", "train --data data.txt --config train.json --out data.txt", None, "--data",
         "--out", "data.txt"),
        ("train-report-over-config", TRAIN_ARGV + " --report train.json", None, "--config", "--report",
         "train.json"),
        ("synth-out-over-config", "synth --config synth.json --out synth.json", None, "--config", "--out",
         "synth.json"),
        ("ablation-report-over-data-config", ABLATION_ARGV + " --report synth.json", None, "--data-config",
         "--report", "synth.json"),
    ]},
    # faults of the checkpoint, found at load before any array is made
    **{f"eval-checkpoint-{name}": (EVAL_ARGV, edit_checkpoint(change), 1,
                                   f"config error: model.ckpt: {message}\n") for name, change, message in [
        ("missing_bn_state", lambda doc: doc.pop("bn_state"), "missing section 'bn_state'"),
        ("truncated_values", lambda doc: doc["params"]["head.fc.W"]["values"].pop(),
         "params.head.fc.W: 39 values for shape [8, 5], which needs 40"),
        ("nan_weight", lambda doc: doc["params"]["visible.stage1.W"]["values"].__setitem__(3, math.nan),
         "params.visible.stage1.W: non-finite value"),
        # JSON reads 8.0 as a float, which reshape does not take
        ("float_shape", lambda doc: doc["params"]["head.fc.W"].__setitem__("shape", [8.0, 5.0]),
         f"params.head.fc.W: {NOT_AN_ARRAY}"),
        # numpy would parse "0.18" and read true as 1.0
        ("string_values", lambda doc: doc["params"]["head.fc.W"].__setitem__(
            "values", [True] + [str(v) for v in doc["params"]["head.fc.W"]["values"][1:]]),
         f"params.head.fc.W: {NOT_AN_ARRAY}"),
        ("bool_value", lambda doc: doc["params"]["thermal.stage1.b"]["values"].__setitem__(0, False),
         f"params.thermal.stage1.b: {NOT_AN_ARRAY}"),
        ("nan_encoder_config", lambda doc: doc["encoder_config"].__setitem__("bn_epsilon", math.nan),
         "encoder_config: EncoderConfig: bn_epsilon must be a finite number, got NaN"),
        # a running variance is never negative: a corrupt file, not a diverged run
        ("negative_mid_running_var",
         lambda doc: doc["bn_state"]["mid.bn.running_var"]["values"].__setitem__(0, -1.0),
         "bn_state.mid.bn.running_var: negative running variance"),
        ("negative_head_running_var",
         lambda doc: doc["bn_state"]["head.bn.running_var"]["values"].__setitem__(2, -1e-300),
         "bn_state.head.bn.running_var: negative running variance"),
        # JSON reads 10**400 as an int, which no float64 holds
        ("huge_int_value", lambda doc: doc["params"]["head.fc.W"]["values"].__setitem__(0, 10 ** 400),
         "params.head.fc.W: a value too large for float64"),
        # shapes no array can take: checked against the config before any array is made
        ("too_big_encoder_config",
         lambda doc: doc["encoder_config"].update(input_dim=10 ** 10, stage_dims=[10 ** 10, 8]),
         "params.visible.stage1.W: shape [6, 8], the encoder config needs [10000000000, 10000000000]"),
    ]},
}


@pytest.mark.parametrize("case", ERRORS)
def test_error_case(case, workdir, capsys):
    argv, edit, code, err = ERRORS[case]
    if edit:
        edit()
    before = directory_bytes(workdir)
    capsys.readouterr()
    assert cli.main(argv.split()) == code
    assert capsys.readouterr() == ("", err)
    assert directory_bytes(workdir) == before


def directory_bytes(folder):
    """Every path under `folder`, with a file's bytes (through a symlink)."""
    return {p: p.read_bytes() if p.is_file() else None for p in folder.rglob("*")}


# ---------------------------------------------------------------------------
# Runs that succeed, and errors that need a patch or a warnings capture
# ---------------------------------------------------------------------------

def test_synth_train_eval_pipeline(workdir, capsys):
    assert cli.main(["synth", "--config", "synth.json", "--out", "new.txt"]) == 0
    assert Path("new.txt").read_bytes() == Path("data.txt").read_bytes()
    assert cli.main(["train", "--data", "new.txt", "--config", "train.json", "--out", "new.ckpt",
                     "--report", "report.json"]) == 0
    assert Path("new.ckpt").exists()
    assert len(json.loads(Path("report.json").read_text())["epochs"]) == 2
    for modality in ("V", "T"):
        assert cli.main(["eval", "--checkpoint", "new.ckpt", "--data", "new.txt",
                         "--query-modality", modality, "--trials", "2", "--single-shot"]) == 0
    assert '"map"' in capsys.readouterr().out


def test_eval_report_file_matches_stdout(workdir, capsys):
    capsys.readouterr()
    assert cli.main(EVAL_ARGV.split() + ["--report", "eval.json"]) == 0
    assert capsys.readouterr().out == Path("eval.json").read_text()


def test_ablation_command(workdir, capsys):
    write_json("synth.json", {**SYNTH, "train_fraction": 0.5})
    assert cli.main(ABLATION_ARGV.split() + ["--report", "ablation.json"]) == 0
    assert set(json.loads(Path("ablation.json").read_text())["arms"]) == set(ABLATION_ARMS)
    assert "EDFL" in capsys.readouterr().out


def test_gradcheck_command_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS",
                        {"dense": harness.GRADCHECK_COMPONENTS["dense"]})
    assert cli.main(["gradcheck", "--trials", "2"]) == 0
    monkeypatch.setattr(harness, "GRADCHECK_COMPONENTS",
                        {"broken": lambda rng: 1.0})
    assert cli.main(["gradcheck", "--trials", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("command, flag, path, reason", [
    ("train", "--out", "missing/dir/m.ckpt", ENOENT),
    ("train", "--report", "missing/dir/r.json", ENOENT),
    ("train", "--out", ".", "Is a directory"),
    ("ablation", "--report", "missing/dir/a.json", ENOENT),
])
def test_unwritable_output_path_is_found_before_the_run(command, flag, path, reason,
                                                        workdir, monkeypatch, capsys):
    # a typo in an output path must not cost a whole run, nor leave the
    # other output behind
    def run(*args, **kwargs):
        raise AssertionError(f"{command} ran before its output paths were checked")

    monkeypatch.setattr(cli, "train", run)
    monkeypatch.setattr(cli, "run_ablation", run)
    outputs = {"--out": "m.ckpt", "--report": "r.json", flag: path}
    argv = {
        "train": ["train", "--data", "data.txt", "--config", "train.json",
                  "--out", outputs["--out"], "--report", outputs["--report"]],
        "ablation": ABLATION_ARGV.split() + ["--report", outputs["--report"]],
    }[command]
    before = sorted(p.name for p in workdir.iterdir())
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: cannot write {path}: {reason}\n"
    assert sorted(p.name for p in workdir.iterdir()) == before


@pytest.mark.parametrize("report", ["m.ckpt", "./m.ckpt"])
def test_report_over_the_checkpoint_is_found_before_the_run(report, workdir, monkeypatch, capsys):
    # the report would replace the model it was written after
    def run(*args, **kwargs):
        raise AssertionError("train ran before its output paths were checked")

    monkeypatch.setattr(cli, "train", run)
    before = sorted(p.name for p in workdir.iterdir())
    capsys.readouterr()
    assert cli.main(TRAIN_ARGV.split() + ["--report", report]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: --out and --report name one file, m.ckpt: --report would write over --out\n"
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_plain_value_error_propagates(workdir, monkeypatch):
    # a ValueError that is no config or data fault is a bug: it must
    # show as a traceback, not as "config error"
    def broken(dataset, config):
        raise ValueError("a bug in training")

    monkeypatch.setattr(cli, "train", broken)
    with pytest.raises(ValueError, match="a bug in training"):
        cli.main(TRAIN_ARGV.split())


def test_a_diverged_run_exits_4(workdir, capsys):
    # a finite but huge learning rate overflows the parameters, so the
    # next loss is NaN: a numeric error that names the cause, not a
    # traceback, and no checkpoint
    write_json("train.json", {**TRAIN, "learning_rate": 1e300})
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(TRAIN_ARGV.split())
    assert code == 4
    # the numeric error line alone: numpy's overflow warnings stay silent
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == "" and not Path("m.ckpt").exists()
    assert err == ("numeric error: total_loss: non-finite loss nan: the run diverged, "
                   "or its inputs are too large for float64\n")


def test_eval_of_overflowing_weights_exits_4(workdir, capsys):
    # finite stage weights scaled by 1e200 overflow the test features
    params, enc_cfg = load_checkpoint("model.ckpt")
    for name, v in params.values.items():
        if ".stage" in name:
            v *= 1e200
    save_checkpoint(params, enc_cfg, "huge.ckpt")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["eval", "--checkpoint", "huge.ckpt", "--data", "data.txt"])
    assert code == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numeric error: evaluation: non-finite query feature: the run diverged, "
                   "or its inputs are too large for float64\n")


if __name__ == "__main__":
    run_determinism_table(sys.argv[1])
