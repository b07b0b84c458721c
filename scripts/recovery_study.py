#!/usr/bin/env python3
"""Seed sweep: how reliably does the pipeline recover a planted pitch effect?

Each run synthesizes a corpus, runs pitch extraction, gaze segmentation,
and the fixed-effects regression, and records the interaction estimate.
Prints coverage of the 95% interval plus estimate moments; optionally
writes one CSV row per run.

    python3 scripts/recovery_study.py --runs 100 --effect 0.15 --csv study.csv
"""

import argparse
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from modalign.cli import PitchSettings, RunConfig, build_panel, interaction_name
from modalign.ingest import CorpusIndex, build_index, write_csv
from modalign.stats import Z_95, fe_regress
from modalign.synth import SynthSpec, synth_corpus


def one_run(spec, workdir, cfg):
    manifest = synth_corpus(spec, workdir / "raw")
    index = CorpusIndex(build_index(manifest, workdir / "idx"))
    rows, _, _ = build_panel(index, cfg)
    result = fe_regress(rows)
    name = interaction_name(spec.other_party)
    return result.coefficients[name], result.standard_errors[name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--seed0", type=int, default=0, help="first seed; runs use seed0..seed0+runs-1")
    ap.add_argument("--effect", type=float, default=0.15, help="planted effect in speaker-SD units")
    ap.add_argument("--speakers", type=int, default=3)
    ap.add_argument("--words", type=int, default=100, help="words per speech")
    ap.add_argument("--sample-rate", type=int, default=8000)
    ap.add_argument("--csv", type=Path, help="write per-run rows here")
    args = ap.parse_args(argv)

    cfg = RunConfig(pitch=PitchSettings(frame_length=1024, hop=256))
    workdir = Path(tempfile.mkdtemp(prefix="recovery_study"))
    rows = []
    tic = time.perf_counter()
    try:
        for i in range(args.runs):
            seed = args.seed0 + i
            spec = SynthSpec(
                seed=seed,
                speakers=args.speakers,
                words_per_speech=args.words,
                planted_pitch_effect=args.effect,
                sample_rate=args.sample_rate,
            )
            est, se = one_run(spec, workdir, cfg)
            lo, hi = est - Z_95 * se, est + Z_95 * se
            rows.append((seed, est, se, lo, hi, int(lo <= args.effect <= hi)))
            print(f"seed {seed:4d}  est {est:+.3f}  se {se:.3f}  "
                  f"{'covered' if rows[-1][-1] else 'MISSED'}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - tic

    ests = [r[1] for r in rows]
    ses = [r[2] for r in rows]
    covered = sum(r[5] for r in rows)
    print(f"runs            {len(rows)}")
    print(f"planted effect  {args.effect:+.3f}")
    print(f"mean estimate   {statistics.fmean(ests):+.4f}")
    if len(ests) > 1:
        print(f"sd of estimates {statistics.stdev(ests):.4f}")
    print(f"mean std error  {statistics.fmean(ses):.4f}")
    print(f"95% CI coverage {covered}/{len(rows)}")
    print(f"wall time       {elapsed:.1f} s")

    if args.csv:
        write_csv(args.csv, "seed,estimate,std_error,ci_low,ci_high,covered", rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
