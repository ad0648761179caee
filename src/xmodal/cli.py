"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 verification
failure, 4 a non-finite number computed from finite inputs (the run
diverged, or its inputs are too large for float64).
"""

import argparse
import errno
import os
import sys

import numpy as np

from .config import ConfigError, build_config, json_text, read_json
from .data import DataError, SynthConfig, generate_synthetic, load_dataset, save_dataset
from .evaluation import EvalProtocol, evaluate
from .harness import (
    TrainConfig,
    ablation_text,
    gradcheck,
    gradcheck_text,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)
from .losses import THERMAL, VISIBLE
from .numerics import NonFiniteError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _save_text(text, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write(path, save, *args):
    """save(*args, path): every output file is written here, and a path
    that cannot be written is a usage error."""
    try:
        save(*args, path)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from None


def _check_paths(args):
    """Usage errors found before any work, creating no file: an output path
    that names an input or another output (a file that exists by its device
    and inode, so a hard link, a symlink or another spelling counts; a new
    one by `os.path.realpath`), or one `_write` would fail on, whose
    directory is missing or read-only, or which is a directory."""
    paths = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in args.inputs + args.outputs}
    seen = {}  # file -> the first flag that names it
    for flag, path in paths.items():
        if path is None:
            continue
        try:
            info = os.stat(path)
            key = (info.st_dev, info.st_ino)
        except OSError:  # not there yet
            key = os.path.realpath(path)
        if key in seen and flag in args.outputs:
            first = seen[key]
            raise _UsageError(f"{first} and {flag} name one file, {paths[first]}: {flag} would write over {first}")
        seen.setdefault(key, flag)
    for path in filter(None, map(paths.get, args.outputs)):
        folder = os.path.dirname(path) or "."
        code = (errno.ENOENT if not os.path.exists(folder)
                else errno.ENOTDIR if not os.path.isdir(folder)
                else errno.EISDIR if os.path.isdir(path)
                else errno.EACCES if not os.access(path if os.path.exists(path) else folder, os.W_OK)
                else None)
        if code is not None:
            raise _UsageError(f"cannot write {path}: {os.strerror(code)}")


def _cmd_synth(args):
    cfg, _ = build_config(SynthConfig, read_json(args.config), train_fraction=0.5)
    dataset = generate_synthetic(cfg)
    _write(args.out, save_dataset, dataset)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _cmd_train(args):
    config = build_config(TrainConfig, read_json(args.config))
    dataset = load_dataset(args.data)
    params, enc_cfg, report = train(dataset, config)
    _write(args.out, save_checkpoint, params, enc_cfg)
    if args.report:
        _write(args.report, _save_text, report.to_json())
    print(report.to_text(), end="")
    return 0


def _cmd_eval(args):
    params, enc_cfg = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    query = args.query_modality
    protocol = EvalProtocol(
        query_modality=query,
        gallery_modality=THERMAL if query == VISIBLE else VISIBLE,
        trials=args.trials,
        single_shot=args.single_shot,
        seed=args.seed,
    )
    text = json_text(evaluate(params, enc_cfg, dataset, protocol))
    if args.report:
        _write(args.report, _save_text, text)
    print(text, end="")
    return 0


def _cmd_ablation(args):
    synth_cfg, train_fraction = build_config(SynthConfig, read_json(args.data_config), train_fraction=0.5)
    base = build_config(TrainConfig, read_json(args.config))
    seeds = []
    for token in args.seeds.split(","):
        if token:
            try:
                seeds.append(int(token))
            except ValueError:
                raise ConfigError(f"--seeds: {token!r} is not an integer") from None
    table = run_ablation(synth_cfg, base, seeds, train_fraction=train_fraction)
    if args.report:
        _write(args.report, _save_text, json_text(table))
    print(ablation_text(table), end="")
    return 0


def _cmd_gradcheck(args):
    report, ok = gradcheck(trials=args.trials, seed=args.seed)
    print(gradcheck_text(report), end="")
    return 0 if ok else 3


def build_parser():
    parser = _Parser(prog="xmodal", description="Cross-modality retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-modality dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth, inputs=("--config",), outputs=("--out",))

    p = sub.add_parser("train", help="train an encoder on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_train, inputs=("--data", "--config"), outputs=("--out", "--report"))

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--query-modality", choices=[VISIBLE, THERMAL], default=VISIBLE)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--single-shot", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval, inputs=("--checkpoint", "--data"), outputs=("--report",))

    p = sub.add_parser("ablation", help="run the four-arm ablation over seeds")
    p.add_argument("--data-config", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_ablation, inputs=("--data-config", "--config"), outputs=("--report",))

    p = sub.add_parser("gradcheck", help="verify all backward paths by finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck, inputs=(), outputs=())

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_paths(args)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric error: {exc}: the run diverged, or its inputs are too large "
              "for float64", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
