#!/usr/bin/env python3
"""Run the whole pipeline on a freshly generated synthetic corpus.

Generates speech-like sessions with a planted in-segment pitch boost,
builds the index, and prints what the analysis recovers: the regression
table, predicted pitch by party and addressing state, and the most
over-represented words in speech addressed at the target party.

    python3 scripts/demo.py --workdir /tmp/demo --effect 0.15
"""

import argparse
import json
from pathlib import Path

from modalign.cli import (
    PitchSettings, RunConfig, build_panel, interaction_name, margin_cells, session_segments,
)
from modalign.ingest import CorpusIndex, build_index
from modalign.stats import Z_95, fe_regress, fightin_words, four_situation_split, margins, render_result_table
from modalign.synth import SynthSpec, synth_corpus


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, default=Path("demo_out"),
                    help="directory for the corpus and index (default: ./demo_out)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--speakers", type=int, default=4)
    ap.add_argument("--words", type=int, default=200, help="words per speech")
    ap.add_argument("--effect", type=float, default=0.15,
                    help="planted in-segment pitch boost in speaker-SD units")
    ap.add_argument("--density", type=float, default=0.3,
                    help="target fraction of words inside address segments")
    ap.add_argument("--sample-rate", type=int, default=16000, choices=(8000, 16000))
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = SynthSpec(
        seed=args.seed,
        speakers=args.speakers,
        words_per_speech=args.words,
        planted_pitch_effect=args.effect,
        segment_density=args.density,
        sample_rate=args.sample_rate,
    )
    print(f"synthesizing {spec.speakers} speeches x {spec.words_per_speech} words "
          f"(planted effect {spec.planted_pitch_effect:+.2f} SD) ...")
    manifest = synth_corpus(spec, args.workdir / "raw")
    index = CorpusIndex(build_index(manifest, args.workdir / "idx"))

    # lower sample rates get along fine with a shorter analysis frame
    pitch = PitchSettings() if args.sample_rate >= 16000 else PitchSettings(frame_length=1024, hop=256)
    cfg = RunConfig(pitch=pitch)

    segments = session_segments(index, cfg)
    n_segments = sum(len(v) for v in segments.values())
    print(f"detected {n_segments} address segments across {len(segments)} sessions\n")

    rows, parties, skipped = build_panel(index, cfg)
    if skipped:
        print(f"({skipped} words had no voiced frames and were left out)")
    result = fe_regress(rows)
    print(render_result_table(result))

    print("predicted pitch (z units) by party and addressing state:")
    cells = [(f"{party} addressing={a}", s) for party, a, s in margin_cells(parties, result)]
    for m in margins(result, cells):
        print(f"  {m.label:<22} {m.predicted:+.3f}  [{m.ci_low:+.3f}, {m.ci_high:+.3f}]")

    truth = json.loads((args.workdir / "raw" / "ground_truth.json").read_text())
    name = interaction_name(spec.other_party)
    est = result.coefficients[name]
    se = result.standard_errors[name]
    print(f"\nplanted effect {truth['planted_effect']:+.3f}, "
          f"recovered {name} = {est:+.3f} +- {se:.3f} "
          f"(95% CI [{est - Z_95 * se:+.3f}, {est + Z_95 * se:+.3f}])")

    streams = [index.load_session(sid).words for sid in index.session_ids()]
    split = four_situation_split(
        streams, segments, {sid: p.party for sid, p in index.speakers().items()}
    )
    pooled_rest = split.target_to_target + split.target_to_others + split.others_to_others
    scored = fightin_words(split.others_to_target, pooled_rest)
    print("\nwords most typical of speech addressed at the target party:")
    for s in list(scored)[:5]:
        print(f"  {s.word:<14} z={s.z:+.2f}  ({s.count_a:.0f} vs { s.count_b:.0f} elsewhere)")


if __name__ == "__main__":
    main()
