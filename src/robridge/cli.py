"""Command-line entry point.

    robridge collect --config cfg.json [--out DIR]
    robridge dagger  --config cfg.json [--out DIR]
    robridge eval    --config cfg.json --checkpoint PATH|expert|zero [--suite NAME]
    robridge replay  --log episode.jsonl [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 runtime failure. The
output directory resolves from --out, then $ROBRIDGE_OUT, then the
config's out_dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experts import ExpertError
from .harness import ConfigError, cmd_collect, cmd_dagger, cmd_eval, cmd_replay, load_config
from .policy import CheckpointError
from .tasks import UnknownTaskError, load_catalog
from .util import SchemaVersionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="robridge")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-base", type=int, default=None, help="override seeds.base")

    # demo collection and DAgger rollouts always run the nominal suite, so
    # only eval takes --suite
    common(sub.add_parser("collect", help="collect expert demonstrations"))
    common(sub.add_parser("dagger", help="run the adaptive-sampling trainer"))
    pe = sub.add_parser("eval", help="evaluate a checkpoint over tasks x suites")
    common(pe)
    pe.add_argument("--suite", default=None, help="restrict to one suite")
    pe.add_argument("--checkpoint", required=True,
                    help="checkpoint path, or the literals 'expert' / 'zero'")
    # the suite and seed come from the log's header, so replay takes no
    # --suite or --seed-base
    pr = sub.add_parser("replay", help="re-render a logged episode")
    pr.add_argument("--log", required=True, help="episode log (JSON lines)")
    pr.add_argument("--out", default=None, help="output directory")
    return ap


def _resolve_out(args, config) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("ROBRIDGE_OUT")
    if env:
        return Path(env)
    return Path(config.out_dir if config is not None else "out")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = None
        if getattr(args, "config", None):
            config = load_config(args.config)
            if args.seed_base is not None:
                config.seed_base = args.seed_base
            if getattr(args, "suite", None) is not None:
                if args.suite not in load_catalog().suites:
                    raise ConfigError(f"unknown suite {args.suite!r}")
                config.suites = [args.suite]
        out = _resolve_out(args, config)
    except (ConfigError, SchemaVersionError, UnknownTaskError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "collect":
            manifest = cmd_collect(config, out)
            counts = {t: d["count"] for t, d in manifest["tasks"].items()}
            print(f"collected {sum(counts.values())} trajectories -> {out}/stores")
        elif args.command == "dagger":
            result = cmd_dagger(config, out)
            print(f"trainer finished; final checkpoint {result['checkpoint']}")
        elif args.command == "eval":
            cmd_eval(config, args.checkpoint, out)
            print((out / "table.txt").read_text(), end="")
        elif args.command == "replay":
            info = cmd_replay(Path(args.log), out)
            print(f"replayed {info['frames']} frames -> {out}; "
                  f"final digest {info['final_digest']} verified")
        else:  # pragma: no cover
            return EXIT_CONFIG
    except (ConfigError, SchemaVersionError, UnknownTaskError, CheckpointError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExpertError, RuntimeError, ValueError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
