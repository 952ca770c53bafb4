"""Experiment orchestration: data collection, trainer runs, evaluation
tables, and episode replay. Every artifact carries a schema_version and
is byte-identical across reruns with the same config and seeds.
"""

from __future__ import annotations

import json
import logging
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dagger as daggerlib
from .augment import AugmentConfig
from .experts import ExpertError, rollout_expert
from .loop import (
    ExpertAsPolicy,
    LoopConfig,
    NetPolicy,
    ZeroPolicy,
    apply_fault,
    run_episode,
)
from .policy import init_params, load_params, save_params
from .render import render
from .tasks import ExpertRandomization, instantiate, load_catalog
from .util import SCHEMA_VERSION, check_schema_version, rng_for
from .world import step

BANNER = ("# desk-scale simulator results; absolute rates are not comparable to\n"
          "# hardware or full-scale benchmark numbers.\n")

# multi-stage tasks are evaluated on this suite alone, whatever the config lists
STAGED_SUITE = "nominal"

log = logging.getLogger("robridge.harness")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    tasks: list[str]
    suites: list[str] = field(default_factory=lambda: ["nominal"])
    seed_base: int = 0
    episodes_per_cell: int = 10
    demos_per_task: int = 4
    expert_randomization: ExpertRandomization | None = field(
        default_factory=ExpertRandomization)
    augment: AugmentConfig | None = None
    batch_size: int = 64
    train_epochs: int = 20
    train_lr: float = 1e-3
    dagger_n_eval: int = 10
    dagger_iterations: int = 10
    dagger_f: daggerlib.PiecewiseRewardMap = field(default_factory=daggerlib.PiecewiseRewardMap)
    dagger_sample_budget: int | None = None
    loop: LoopConfig = field(default_factory=LoopConfig)
    out_dir: str = "out"


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    check_schema_version(doc, f"config {path}")
    return config_from_dict(doc)


def _object(value, name: str, known: tuple[str, ...]) -> dict:
    """A config object whose keys all lie in known; anything else is a
    ConfigError naming the object or the key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    for key in value:
        if key not in known:
            raise ConfigError(f"{name} has unknown key {key!r}")
    return value


def _names(doc: dict, name: str, default: list[str], known) -> list[str]:
    """A non-empty list of distinct names, each one in known."""
    names = doc.get(name, default)
    if not isinstance(names, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {names!r}")
    if not names:   # no suites would make an eval table's Mean NaN
        raise ConfigError(f"{name} must list at least one {name[:-1]}")
    for n in names:
        if not isinstance(n, str) or n not in known:   # "tasks" lists tasks
            raise ConfigError(f"config references unknown {name[:-1]} {n!r}")
    if len(set(names)) < len(names):   # a repeat would run its cells twice
        repeated = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"{name} lists {repeated!r} more than once")
    return list(names)


def _number(name: str, raw, kind=int, lowest=None):
    """A JSON number as kind (an integral float passes as an int), checked
    >= lowest; anything else is a ConfigError naming the field."""
    if isinstance(raw, float) and kind is int and raw.is_integer():
        raw = int(raw)
    numeric = (int, float) if kind is float else (int,)
    if (isinstance(raw, bool) or not isinstance(raw, numeric)
            or (isinstance(raw, float) and not math.isfinite(raw))):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {raw!r}")
    if lowest is not None and raw < lowest:
        raise ConfigError(f"{name} must be >= {lowest}, got {raw}")
    return kind(raw)


# the LoopConfig fields "loop" may set, with their lowest values; absent ones keep the default
LOOP_LOWEST = {"status_period": 1, "retry_budget": 0, "max_ticks": 1, "primitive_timeout": 1}


def config_from_dict(doc: dict) -> ExperimentConfig:
    _object(doc, "config", ("schema_version", "tasks", "suites", "seeds", "demos_per_task",
                            "expert_randomization", "augment", "gea", "dagger", "loop",
                            "out_dir"))
    cat = load_catalog()
    tasks = _names(doc, "tasks", [], cat.tasks)
    suites = _names(doc, "suites", ["nominal"], cat.suites)
    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir must be a non-empty string, got {out_dir!r}")
    seeds = _object(doc.get("seeds", {}), "seeds", ("base", "episodes"))

    # absent: the default randomization; null: none
    er = doc.get("expert_randomization", {})
    expert_rand = None
    if isinstance(er, dict):
        try:
            expert_rand = ExpertRandomization(**{
                k: _number(f"expert_randomization.{k}", v, float, lowest=0)
                for k, v in er.items()})
        except TypeError as e:
            raise ConfigError(f"expert_randomization: {e}") from None
        # scaled object dimensions must stay positive
        if expert_rand.dims_frac >= 1:
            raise ConfigError("expert_randomization.dims_frac must be < 1, "
                              f"got {expert_rand.dims_frac}")
    elif er is not None:
        raise ConfigError(f"expert_randomization must be an object or null, got {er!r}")
    # absent or null: no augmentation
    aug = doc.get("augment")
    augment = None
    if isinstance(aug, dict):
        try:
            augment = AugmentConfig(**aug)
            augment.validate()
        except (TypeError, ValueError) as e:
            raise ConfigError(f"augment: {e}") from None
    elif aug is not None:
        raise ConfigError(f"augment must be an object or null, got {aug!r}")
    gea = _object(doc.get("gea", {}), "gea", ("batch_size", "epochs", "lr"))
    dag = _object(doc.get("dagger", {}), "dagger", ("n_eval", "iterations", "f", "sample_budget"))
    f_doc = _object(dag.get("f", {}), "dagger.f", ("thresholds", "values"))
    for key, raw in f_doc.items():
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"dagger.f.{key} must be a list, got {raw!r}")
        for v in raw:   # checked, not cast: an int stays an int in state.json
            _number(f"dagger.f.{key}", v, float)
    try:
        fmap = daggerlib.PiecewiseRewardMap(**{k: tuple(v) for k, v in f_doc.items()})
    except ValueError as e:
        raise ConfigError(f"dagger.f: {e}") from None
    budget = dag.get("sample_budget")
    loop_doc = _object(doc.get("loop", {}), "loop", tuple(LOOP_LOWEST))
    return ExperimentConfig(
        tasks=tasks, suites=suites,
        seed_base=_number("seeds.base", seeds.get("base", 0)),
        episodes_per_cell=_number("seeds.episodes", seeds.get("episodes", 10), lowest=1),
        demos_per_task=_number("demos_per_task", doc.get("demos_per_task", 4), lowest=1),
        expert_randomization=expert_rand,
        augment=augment,
        batch_size=_number("gea.batch_size", gea.get("batch_size", 64), lowest=1),
        train_epochs=_number("gea.epochs", gea.get("epochs", 20), lowest=1),
        train_lr=_number("gea.lr", gea.get("lr", 1e-3), float, lowest=0),
        dagger_n_eval=_number("dagger.n_eval", dag.get("n_eval", 10), lowest=1),
        dagger_iterations=_number("dagger.iterations", dag.get("iterations", 10), lowest=1),
        dagger_f=fmap,
        dagger_sample_budget=(None if budget is None
                              else _number("dagger.sample_budget", budget, lowest=1)),
        loop=LoopConfig(**{k: _number(f"loop.{k}", loop_doc[k], lowest=lowest)
                           for k, lowest in LOOP_LOWEST.items() if k in loop_doc}),
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# collect

def cmd_collect(config: ExperimentConfig, out_dir: Path) -> dict:
    """Seed demo stores with expert rollouts and write a manifest."""
    out_dir = Path(out_dir)
    store_root = out_dir / "stores"
    # attempt seeds restart at 0, so demos kept from a previous run would repeat
    if store_root.exists():
        shutil.rmtree(store_root)
    store_root.mkdir(parents=True)
    manifest = {"schema_version": SCHEMA_VERSION, "tasks": {}}
    failures = []
    for tid in config.tasks:
        store = daggerlib.DemoStore(store_root, tid)
        attempts = 0
        while len(store) < config.demos_per_task:
            demo_seed = int(rng_for(config.seed_base, tid, "seed-demo", attempts).integers(1 << 31))
            attempts += 1
            if attempts > config.demos_per_task * 5:
                failures.append(tid)
                break
            traj = rollout_expert(tid, demo_seed, config.expert_randomization)
            if traj.success:
                store.append(traj)
        manifest["tasks"][tid] = {
            "count": len(store),
            "samples": store.sample_count(),
            "files": store.file_digests(),
        }
    _write_json(out_dir / "manifest.json", manifest)
    if failures:
        raise ExpertError(f"expert failed to seed tasks: {failures} (partial manifest written)")
    return manifest


# ---------------------------------------------------------------------------
# trainer runs

def _open_stores(config: ExperimentConfig, root: Path) -> dict[str, daggerlib.DemoStore]:
    """The config's demo stores under root; none may be empty.
    ``dagger.init`` decodes each file once and names any that is corrupt."""
    if not root.exists():
        raise ConfigError(f"no demo stores at {root}; run collect first")
    stores = {tid: daggerlib.DemoStore(root, tid) for tid in config.tasks}
    for tid, store in stores.items():
        if len(store) == 0:
            raise ConfigError(f"store for {tid!r} is empty")
    return stores


def cmd_bc(config: ExperimentConfig, out_dir: Path) -> dict:
    """Behavior cloning on the collected stores: one training run from
    fresh parameters, the same step DAgger takes before its first rollout."""
    out_dir = Path(out_dir)
    stores = _open_stores(config, out_dir / "stores")
    params, _ = daggerlib._train_on_union(init_params(config.seed_base),
                                          daggerlib.init(stores), config)
    checkpoint = out_dir / "bc" / "checkpoint.bin"
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    save_params(params, checkpoint)
    return {"checkpoint": str(checkpoint)}


def cmd_dagger(config: ExperimentConfig, out_dir: Path) -> dict:
    """Run the adaptive-sampling trainer to budget, checkpointing each iteration."""
    out_dir = Path(out_dir)
    src_root = out_dir / "stores"
    if not src_root.exists():
        raise ConfigError(f"no demo stores at {src_root}; run collect first")
    work_root = out_dir / "dagger" / "stores"
    if work_root.exists():
        shutil.rmtree(work_root)
    shutil.copytree(src_root, work_root)

    state = daggerlib.init(_open_stores(config, work_root))
    params = init_params(config.seed_base)
    history = []
    for it in range(config.dagger_iterations):
        state, params, metrics = daggerlib.iterate(state, params, config)
        itdir = out_dir / "dagger" / f"iter_{it:02d}"
        itdir.mkdir(parents=True, exist_ok=True)
        save_params(params, itdir / "checkpoint.bin")
        daggerlib.save_state(state, config, itdir / "state.json")
        _write_json(itdir / "metrics.json", {"schema_version": SCHEMA_VERSION, **metrics})
        history.append(metrics)
    _write_report(out_dir / "dagger" / "report.txt", config, history)
    return {"iterations": history, "checkpoint": str(out_dir / "dagger"
                                                     / f"iter_{config.dagger_iterations - 1:02d}"
                                                     / "checkpoint.bin")}


def _write_report(path: Path, config: ExperimentConfig, history: list[dict]) -> None:
    lines = [BANNER.rstrip("\n")]
    tasks = config.tasks
    header = "iter  " + "  ".join(f"{tid:>14s}" for tid in tasks)
    lines.append("weights per iteration:")
    lines.append(header)
    for h in history:
        lines.append(f"{h['iteration']:4d}  "
                     + "  ".join(f"{h['weights'].get(tid, float('nan')):14.4f}" for tid in tasks))
    lines.append("")
    lines.append("dataset sizes per iteration:")
    lines.append(header)
    for h in history:
        lines.append(f"{h['iteration']:4d}  "
                     + "  ".join(f"{h['dataset_sizes'].get(tid, 0):14d}" for tid in tasks))
    lines.append("")
    lines.append("successes/tests per iteration:")
    for h in history:
        tested = {k: len(v) for k, v in h["tests"].items()}
        succ = sum(h["successes"].values())
        total = sum(tested.values())
        rate = succ / total if total else 0.0
        lines.append(f"{h['iteration']:4d}  {succ}/{total} ({rate:.2f})  tested={tested}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# evaluation

def _policy_for(checkpoint: str):
    if checkpoint == "expert":
        return ExpertAsPolicy()
    if checkpoint == "zero":
        return ZeroPolicy()
    return NetPolicy(load_params(checkpoint))


def cmd_eval(config: ExperimentConfig, checkpoint: str, out_dir: Path,
             jobs: int = 1) -> dict:
    """Success-rate table over tasks x suites, plus stage counts for any
    multi-stage tasks in the config. Those run on ``STAGED_SUITE`` only; a
    warning names each one whose other configured suites are skipped.

    Episodes always run one after another on the calling thread, in cell
    order. A tick is mostly short numpy calls that hold the GIL, so a
    thread pool only added lock hand-offs: two threads were slower than
    one. ``jobs`` is ignored; it stays only because the benchmark's
    workloads pass it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = _policy_for(checkpoint)
    cat = load_catalog()
    plain = [tid for tid in config.tasks if not cat.task(tid).stages]
    staged = [tid for tid in config.tasks if cat.task(tid).stages]
    skipped = [s for s in config.suites if s != STAGED_SUITE]

    table, stage_doc = {}, {}
    for tid in plain + staged:
        n_stages = len(cat.task(tid).stages)
        if n_stages and skipped:
            log.warning("staged task %s runs on suite %s only; skipping suites %s",
                        tid, STAGED_SUITE, ", ".join(skipped))
        results = {suite: [run_episode(tid, policy, config.loop, suite=suite,
                                       seed=config.seed_base + k)
                           for k in range(config.episodes_per_cell)]
                   for suite in ([STAGED_SUITE] if n_stages else config.suites)}
        if n_stages:
            counts = [r.stages_completed for r in results[STAGED_SUITE]]
            hist = {str(s): sum(1 for c in counts if c >= s) / len(counts)
                    for s in range(1, n_stages + 1)}
            stage_doc[tid] = {"histogram": hist, "avg_len": float(np.mean(counts))}
        else:
            row = {s: float(np.mean([r.success for r in rs])) for s, rs in results.items()}
            row["Mean"] = float(np.mean([row[s] for s in config.suites]))
            table[tid] = row

    doc = {"schema_version": SCHEMA_VERSION, "checkpoint": checkpoint,
           "episodes_per_cell": config.episodes_per_cell, "table": table}
    if staged:
        doc["stages"] = stage_doc
        _write_stage_table(out_dir / "stages.txt", stage_doc)

    _write_json(out_dir / "table.json", doc)
    _write_eval_table(out_dir / "table.txt", config, table)
    return doc


def _write_eval_table(path: Path, config: ExperimentConfig, table: dict) -> None:
    cols = list(config.suites) + ["Mean"]
    lines = [BANNER.rstrip("\n")]
    lines.append(f"{'task':<16s}" + "".join(f"{c:>19s}" for c in cols))
    for tid, row in table.items():
        lines.append(f"{tid:<16s}" + "".join(f"{row[c]:19.3f}" for c in cols))
    if table:
        lines.append(f"{'overall':<16s}" + "".join(
            f"{float(np.mean([row[c] for row in table.values()])):19.3f}" for c in cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_stage_table(path: Path, stage_doc: dict) -> None:
    lines = [BANNER.rstrip("\n")]
    for tid, d in stage_doc.items():
        stages = "  ".join(f"{k}:{v:.2f}" for k, v in sorted(d["histogram"].items()))
        lines.append(f"{tid:<16s} {STAGED_SUITE:<14s} stages>= {stages}   "
                     f"Avg. Len. {d['avg_len']:.2f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# replay

def cmd_replay(log_path: Path, out_dir: Path) -> dict:
    """Re-simulate a logged episode, dump frames and a textual timeline,
    and verify every tick's frame digest and the final one."""
    from .render import frame_digest

    log_path = Path(log_path)
    out_dir = Path(out_dir)
    lines = [ln for ln in log_path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"episode log {log_path} is empty")
    header = json.loads(lines[0])
    check_schema_version(header, f"episode log {log_path}")
    footer = json.loads(lines[-1])
    records = [json.loads(ln) for ln in lines[1:-1]]
    if not footer.get("final"):
        raise ValueError(f"episode log {log_path} lacks a final record")

    er = header.get("expert_rand")   # logs written before its fields hold true
    expert_rand = (ExpertRandomization(**er) if isinstance(er, dict)
                   else ExpertRandomization() if er else None)
    world, _, cams = instantiate(header["task_id"], header["suite"], header["seed"], expert_rand)
    cam3, cam1 = cams
    cam3.offset = tuple(header.get("camera_offset", cam3.offset))
    frames_dir = out_dir / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    timeline = []
    frame = render(world, cam3, cam1)
    for rec in records:
        digest = frame_digest(frame)
        if digest != rec["digest"]:
            raise RuntimeError(f"replay mismatch at tick {rec['tick']}: recomputed digest "
                               f"{digest} != logged {rec['digest']}")
        _write_ppm(frames_dir / f"tick_{rec['tick']:05d}.ppm", frame.rgb3)
        timeline.append(f"tick {rec['tick']:5d}  cursor {rec['cursor']}  "
                        f"{rec['primitive']:<6s} {rec['obj']:<18s} reward {rec['reward']:.3f}")
        world = step(world, np.array(rec["action"]))
        if "fault" in rec:
            apply_fault(world, rec["fault"])
        frame = render(world, cam3, cam1)
    final_digest = frame_digest(frame)
    (out_dir / "timeline.txt").write_text("\n".join(timeline) + "\n", encoding="utf-8")
    if final_digest != footer["final_digest"]:
        raise RuntimeError(
            f"replay mismatch: recomputed digest {final_digest} != logged {footer['final_digest']}")
    return {"frames": len(records), "final_digest": final_digest,
            "success": footer["success"]}


def _write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def _write_json(path: Path, doc: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
